package dsidx

import (
	"dsidx/internal/engine"
	"dsidx/internal/messi"
	"dsidx/internal/shard"
)

// MESSI is the parallel in-memory index (paper §III, Figure 3). Queries are
// exact; construction and search scale with the number of workers.
//
// The index owns a persistent worker pool shared by every in-flight query:
// all Search variants are safe for concurrent use from any number of
// goroutines, and BatchSearch / Serve multiplex many queries onto the pool
// with admission control. Close releases the pool's goroutines; an unclosed
// index releases them when garbage-collected.
//
// The index also accepts live writes: Append and AppendBatch add series
// while queries run. New series land in a delta buffer (summarized on
// arrival, exact-scanned by queries, so answers stay exact), and a
// background merge — scheduled on the same worker pool once the buffer
// reaches WithMergeThreshold — folds them into the tree without blocking
// readers. IngestStats exposes the write path's counters; Flush forces a
// synchronous merge.
//
// A MESSI is a Sharded of one shard: the same index, answering on the
// caller's goroutine as a flat tree does, without the partition options.
type MESSI struct {
	index
}

// NewMESSI builds a MESSI index over an in-memory collection.
func NewMESSI(coll *Collection, opts ...Option) (*MESSI, error) {
	o := buildOptions(opts)
	s, err := shard.Build(coll, o.coreConfig(), shard.Options{Shards: 1, Options: o.messiOptions()})
	if err != nil {
		return nil, err
	}
	return &MESSI{index{s}}, nil
}

// Stats returns the index tree shape.
func (ix *MESSI) Stats() IndexStats { return statsOf(ix.s.Shard(0).Tree()) }

// IngestStats is a snapshot of the live-ingestion counters.
type IngestStats struct {
	// Appended counts series accepted by Append/AppendBatch since the
	// index was created or loaded.
	Appended uint64
	// Pending is the current delta-buffer size: appended series not yet
	// merged into the tree (queries exact-scan them in the meantime).
	Pending int
	// Merged is the number of appended series the tree covers.
	Merged int
	// Merges counts completed background/Flush merge cycles;
	// SnapshotSwaps counts tree-snapshot publications (one per merge
	// cycle that installed a new tree).
	Merges        uint64
	SnapshotSwaps uint64
	// MergeThreshold is the delta size that triggers a background merge
	// (the WithMergeThreshold option; per shard on a sharded index).
	MergeThreshold int
	// Live and Tombstoned partition the landed series (base plus appends)
	// into searchable and deleted/expired.
	Live       int
	Tombstoned int
}

// SearchStats reports the work one query performed — the pruning behavior
// behind its latency. Lower RawDistances relative to Observed means the
// index discarded more of the collection without touching raw values.
type SearchStats struct {
	// ProbeLeaves is the number of leaves the approximate phase probed to
	// seed the best-so-far: the one leaf the query's summary routes to, as
	// in the paper, or none over an empty tree (summed over shards on a
	// sharded index).
	ProbeLeaves int
	// LeavesInserted is the length of the candidate list: leaves, other
	// than the probed one, whose envelope bound was below the best-so-far
	// once the bound pass and the scan of unmerged appends had finished.
	// LeavesPopped counts those actually refined afterwards.
	LeavesInserted int
	LeavesPopped   int
	// EntriesChecked counts per-series lower bounds computed.
	EntriesChecked int
	// RawDistances counts exact distances computed, approximate phase
	// included.
	RawDistances int
	// Observed is the number of series the query answered over (base
	// collection plus published appends at query start).
	Observed int
	// UncoveredShards lists the shards a partial-results query (a Sharded
	// index with WithAllowPartial) could not cover; empty whenever the
	// answer is complete, and always empty on an unsharded index.
	UncoveredShards []int
}

func statsFromQuery(st messi.QueryStats) SearchStats {
	return SearchStats{
		ProbeLeaves:     st.ProbeLeaves,
		LeavesInserted:  st.LeavesInserted,
		LeavesPopped:    st.LeavesPopped,
		EntriesChecked:  st.EntriesChecked,
		RawDistances:    st.RawDistances,
		Observed:        st.Observed,
		UncoveredShards: st.UncoveredShards,
	}
}

// EngineStats is a snapshot of the shared worker pool's throughput
// counters.
type EngineStats struct {
	// Workers is the pool size (tasks executing at any instant ≤ Workers).
	Workers int
	// PendingTasks is the current depth of the shared run queue.
	PendingTasks int
	// InFlight is the number of queries currently admitted by
	// BatchSearch/Serve; PeakInFlight is its high-water mark.
	InFlight     int
	PeakInFlight int
	// Queries counts queries executed since the index was built — through
	// any entry path, direct Search calls included, not only admitted
	// BatchSearch/Serve traffic. Tasks counts pool tasks executed.
	// Sampling Queries across an interval yields throughput (QPS).
	Queries uint64
	Tasks   uint64
	// Saturation counters: AdmitWaits counts admissions that blocked on a
	// full in-flight budget and AdmitWaitNanos their total blocked time;
	// together they say whether the pool is the bottleneck.
	// SubmitFallbacks reads 0: no pool task is optional, so none is ever
	// dropped. It stays until the benchmark stops reading it.
	AdmitWaits      uint64
	AdmitWaitNanos  uint64
	SubmitFallbacks uint64
	// Containment counters: TaskPanics counts pool tasks whose panic was
	// caught at the worker boundary, BgPanics background jobs (merges)
	// whose panic was caught. Nonzero values mean queries failed with
	// typed errors instead of crashing the process — inspect Health for
	// the query-level view.
	TaskPanics uint64
	BgPanics   uint64
}

// engineStatsOf mirrors the internal snapshot into the public type.
func engineStatsOf(st engine.Stats) EngineStats {
	return EngineStats{
		Workers:         st.Workers,
		PendingTasks:    st.PendingTasks,
		InFlight:        st.InFlight,
		PeakInFlight:    st.PeakInFlight,
		Queries:         st.Queries,
		Tasks:           st.Tasks,
		AdmitWaits:      st.AdmitWaits,
		AdmitWaitNanos:  st.AdmitWaitNanos,
		SubmitFallbacks: st.SubmitFallbacks,
		TaskPanics:      st.TaskPanics,
		BgPanics:        st.BgPanics,
	}
}

// Health is an index's liveness snapshot: how many queries ran, how many
// failed with a contained error instead of crashing, and how many
// background merges were abandoned after a contained panic. A healthy
// index reports zeros everywhere but Searches.
type Health struct {
	// Searches counts queries of every kind that reached their search
	// phase (past validation, over a non-empty index); FailedSearches
	// counts queries that returned a contained-fault error instead of an
	// answer.
	Searches       uint64
	FailedSearches uint64
	// MergeAborts counts background merges abandoned because a task
	// panicked; the delta buffer stays searchable and the next append or
	// Flush retries.
	MergeAborts uint64
	// TaskPanics and BgPanics are the worker pool's containment counters
	// (see EngineStats).
	TaskPanics uint64
	BgPanics   uint64
	// Live and Tombstoned partition the landed series into searchable and
	// deleted/expired.
	Live       int
	Tombstoned int
}

// Health snapshots the index's failure counters. Safe to call concurrently
// with queries and appends.
func (ix *MESSI) Health() Health {
	h := ix.s.Shard(0).Health()
	return Health{
		Searches:       h.Searches,
		FailedSearches: h.FailedSearches,
		MergeAborts:    h.MergeAborts,
		TaskPanics:     h.TaskPanics,
		BgPanics:       h.BgPanics,
		Live:           h.Live,
		Tombstoned:     h.Tombstoned,
	}
}

// TenantStats is one tenant's scheduling-and-throughput snapshot.
type TenantStats struct {
	// Tenant is the opaque ID supplied on Search*Tenant calls or
	// QueryRequest.Tenant.
	Tenant string
	// InFlight and ActiveQueries are the tenant's currently admitted and
	// currently executing query counts.
	InFlight      int
	ActiveQueries int
	// Queries counts the tenant's lifetime queries; AdmitWaits its
	// admissions that blocked on the tenant's own fairness gate.
	Queries    uint64
	AdmitWaits uint64
}

// tenantStatsOf mirrors the engine's per-tenant snapshot.
func tenantStatsOf(ts []engine.TenantStat) []TenantStats {
	out := make([]TenantStats, len(ts))
	for i, t := range ts {
		out[i] = TenantStats{
			Tenant:        t.Tenant,
			InFlight:      t.InFlight,
			ActiveQueries: t.ActiveQueries,
			Queries:       t.Queries,
			AdmitWaits:    t.AdmitWaits,
		}
	}
	return out
}
