// Shard-level health: per-shard query counters and the fault accounting of
// the cold tier.
//
// The failure model layers on the storage tier's: a cold read that exhausts
// its retries surfaces as a typed *storage.BlockError panic, the engine
// contains it at the task boundary, and the messi coordinator converts it
// into a per-shard query error. The scatter fails that one query with it
// and counts it here; the shard stays in every later query, so once the
// device answers again the next query reads it as if nothing happened.
package shard

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"dsidx/internal/metrics"
	"dsidx/internal/storage"
)

// shardHealth is one shard's query and fault accounting.
type shardHealth struct {
	// searches counts the shard's sub-searches, searchFails the ones that
	// returned an error instead of an answer, and queryDur times them.
	searches    atomic.Uint64
	searchFails atomic.Uint64
	queryDur    *metrics.Histogram

	failures   atomic.Uint64 // storage-classified query failures
	permFaults atomic.Uint64 // the permanent subset

	mu      sync.Mutex
	lastErr error
}

// record counts one sub-search that took d and returned err.
func (h *shardHealth) record(d time.Duration, err error) {
	h.searches.Add(1)
	if err != nil {
		h.searchFails.Add(1)
	}
	h.queryDur.Observe(d.Seconds())
}

func (h *shardHealth) getErr() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastErr
}

// ShardHealth is one shard's externally visible health snapshot.
type ShardHealth struct {
	// Cold reports the shard's tier.
	Cold bool
	// Failures counts queries this shard failed with a storage-classified
	// error; PermanentFailures is the permanent subset.
	Failures          uint64
	PermanentFailures uint64
	// LastError describes the most recent storage failure ("" when none).
	LastError string
}

// Health is the sharded index's liveness snapshot: aggregate query/merge
// outcomes plus per-shard fault accounting.
type Health struct {
	// Searches counts sub-searches, one per shard a query ran on, and
	// FailedSearches those that returned an error: a failed scatter-gather
	// query counts once per shard that failed it.
	Searches       uint64
	FailedSearches uint64
	// MergeAborts counts background merges abandoned after a contained
	// task panic, summed across shards.
	MergeAborts uint64
	// TaskPanics and BgPanics are the shared pool's containment counters.
	TaskPanics uint64
	BgPanics   uint64
	// Live and Tombstoned partition the landed series across shards into
	// searchable and deleted (or TTL-expired).
	Live       int
	Tombstoned int
	// Shards holds one entry per shard.
	Shards []ShardHealth
}

// Health snapshots the index's serving condition. It is safe to call
// concurrently with queries and appends.
func (s *Sharded) Health() Health {
	out := Health{Shards: make([]ShardHealth, s.n)}
	for si, sh := range s.shards {
		h := &s.health[si]
		out.Searches += h.searches.Load()
		out.FailedSearches += h.searchFails.Load()
		out.MergeAborts += sh.MergeAborts()
		out.Live += sh.Live()
		out.Tombstoned += sh.Tombstoned()
		hs := ShardHealth{
			Cold:              s.isCold(si),
			Failures:          h.failures.Load(),
			PermanentFailures: h.permFaults.Load(),
		}
		if err := h.getErr(); err != nil {
			hs.LastError = err.Error()
		}
		out.Shards[si] = hs
	}
	es := s.eng.Stats()
	out.TaskPanics = es.TaskPanics
	out.BgPanics = es.BgPanics
	return out
}

// noteShardError counts a sub-search error of shard si in its fault
// accounting when the storage tier classified it (it carries a
// *storage.BlockError from the cold tier); any other error is no device's
// doing and is left to the query counters.
func (s *Sharded) noteShardError(si int, err error) {
	var be *storage.BlockError
	if !errors.As(err, &be) {
		return
	}
	h := &s.health[si]
	h.failures.Add(1)
	if be.Class == storage.FaultPermanent {
		h.permFaults.Add(1)
	}
	h.mu.Lock()
	h.lastErr = err
	h.mu.Unlock()
}
