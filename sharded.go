package dsidx

import (
	"fmt"

	"dsidx/internal/shard"
)

// ShardPolicy selects how a Sharded index routes series to shards.
type ShardPolicy int

const (
	// ShardRoundRobin routes series by arrival order (series i to shard
	// i mod N): near-equal shard sizes, content-independent — the default.
	ShardRoundRobin ShardPolicy = iota
	// ShardByHash routes each series by a hash of its values, so identical
	// series always land on the same shard regardless of arrival order.
	ShardByHash
)

func (p ShardPolicy) internal() (shard.Policy, error) {
	switch p {
	case ShardRoundRobin:
		return shard.RoundRobin{}, nil
	case ShardByHash:
		return shard.HashSeries{}, nil
	default:
		return nil, fmt.Errorf("dsidx: unknown ShardPolicy %d", p)
	}
}

// WithShards partitions a Sharded index into n shards (default 1; at most
// 256). More shards parallelize builds and merges coarsely and cap each
// tree's size; queries scatter-gather over all of them with one shared
// best-so-far, so answers are unchanged.
func WithShards(n int) Option { return func(o *options) { o.shards = n } }

// WithShardPolicy selects the routing policy of a Sharded index (default
// ShardRoundRobin). When opening a saved index, the file's recorded policy
// wins; passing a different one explicitly is an error.
func WithShardPolicy(p ShardPolicy) Option {
	return func(o *options) { o.shardPolicy, o.shardPolicySet = p, true }
}

// WithAllowPartial opts a Sharded index into best-effort answers when
// shards are unavailable (quarantined after repeated device failures, or
// failing mid-query): instead of the whole query failing with a typed
// shards-unavailable error, it answers from the shards still serving and
// reports the gap in SearchStats.UncoveredShards. Off by default — a
// partial answer is no longer guaranteed to be the exact nearest neighbor,
// so callers must opt in explicitly.
func WithAllowPartial(enabled bool) Option {
	return func(o *options) { o.allowPartial = enabled }
}

// Sharded is a partitioned MESSI index: the collection is split across N
// independent shards — each a full MESSI index — that answer as one.
// Search variants scatter to every shard with a single shared best-so-far
// (a bound found on one shard prunes the others mid-flight) and gather
// results in the collection's global position space, so every answer is
// identical to the same query against an unsharded index. All shards share
// one worker pool and one admission budget, so WithWorkers and
// WithMaxInFlight govern the whole sharded index, not each shard.
//
// The full MESSI surface is available: exact 1-NN/k-NN/DTW and approximate
// search, BatchSearch, live Append/AppendBatch with background merges,
// Flush, Serve, persistence (Save/OpenSharded) and merged stats.
type Sharded struct {
	index
}

// shardOptions converts public options to the internal shard form. The
// policy stays nil when not explicitly chosen, so loading a saved index
// adopts the file's recorded policy instead of conflicting with it.
func (o options) shardOptions() (shard.Options, error) {
	var policy shard.Policy
	if o.shardPolicySet {
		var err error
		if policy, err = o.shardPolicy.internal(); err != nil {
			return shard.Options{}, err
		}
	}
	return shard.Options{
		Shards:       o.shards,
		Policy:       policy,
		AllowPartial: o.allowPartial,
		Options:      o.messiOptions(),
	}, nil
}

// NewSharded builds a sharded MESSI index over an in-memory collection,
// partitioned by WithShards and WithShardPolicy.
func NewSharded(coll *Collection, opts ...Option) (*Sharded, error) {
	o := buildOptions(opts)
	so, err := o.shardOptions()
	if err != nil {
		return nil, err
	}
	inner, err := shard.Build(coll, o.coreConfig(), so)
	if err != nil {
		return nil, err
	}
	return &Sharded{index{inner}}, nil
}

// OpenSharded reopens a saved sharded index over the collection it was
// built from. The file defines the shard count and policy; WithShards and
// WithShardPolicy, when given, must match it. A single-index file (as
// MESSI.Save wrote before a MESSI was a one-shard Sharded) opens as a
// 1-shard instance with unchanged positions and answers.
func OpenSharded(path string, coll *Collection, opts ...Option) (*Sharded, error) {
	data, err := readIndexFile(path)
	if err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	// shardOptions leaves Shards 0 and Policy nil when unset, which Decode
	// reads as "whatever the file says".
	so, err := o.shardOptions()
	if err != nil {
		return nil, err
	}
	inner, err := shard.Decode(data, coll, so)
	if err != nil {
		return nil, err
	}
	return &Sharded{index{inner}}, nil
}

// Shards returns the number of partitions.
func (s *Sharded) Shards() int { return s.s.Shards() }

// Stats merges the shards' tree shapes into one aggregate view.
func (s *Sharded) Stats() IndexStats {
	var out IndexStats
	leaves := 0
	for si := 0; si < s.s.Shards(); si++ {
		st := statsOf(s.s.Shard(si).Tree())
		out.Series += st.Series
		out.RootNodes += st.RootNodes
		out.InnerNodes += st.InnerNodes
		out.Leaves += st.Leaves
		out.MaxDepth = max(out.MaxDepth, st.MaxDepth)
		out.LeafFillAvg += st.LeafFillAvg * float64(st.Leaves)
		leaves += st.Leaves
	}
	if leaves > 0 {
		out.LeafFillAvg /= float64(leaves)
	}
	return out
}

// ShardHealth is one shard's serving condition inside a Sharded index.
type ShardHealth struct {
	// State is "serving", "quarantined" (repeated permanent device
	// failures; queries skip the shard) or "restaging" (being rewritten
	// onto a fresh store).
	State string
	// Cold reports whether the shard's base values live on the
	// out-of-core tier.
	Cold bool
	// Failures counts queries the shard failed with a storage-classified
	// error; PermanentFailures is the permanent subset.
	Failures          uint64
	PermanentFailures uint64
	// Quarantines and Restages count lifecycle transitions.
	Quarantines uint64
	Restages    uint64
	// LastError describes the most recent storage failure ("" when none).
	LastError string
}

// ShardedHealth is a Sharded index's liveness snapshot: the aggregate
// query/merge failure counters plus each shard's serving state.
type ShardedHealth struct {
	// Searches, FailedSearches and MergeAborts aggregate the per-shard
	// counters (see Health on MESSI): one query counts once per shard.
	Searches       uint64
	FailedSearches uint64
	MergeAborts    uint64
	// TaskPanics and BgPanics are the shared pool's containment counters.
	TaskPanics uint64
	BgPanics   uint64
	// Live and Tombstoned partition the landed series across shards into
	// searchable and deleted/expired.
	Live       int
	Tombstoned int
	// Shards holds one entry per shard; Quarantined lists the ids not
	// currently serving, ascending.
	Shards      []ShardHealth
	Quarantined []int
}

// Health snapshots the index's serving condition. Safe to call
// concurrently with queries, appends and background re-stages.
func (s *Sharded) Health() ShardedHealth {
	h := s.s.Health()
	out := ShardedHealth{
		Searches:       h.Searches,
		FailedSearches: h.FailedSearches,
		MergeAborts:    h.MergeAborts,
		TaskPanics:     h.TaskPanics,
		BgPanics:       h.BgPanics,
		Live:           h.Live,
		Tombstoned:     h.Tombstoned,
		Shards:         make([]ShardHealth, len(h.Shards)),
		Quarantined:    h.Quarantined,
	}
	for i, sh := range h.Shards {
		out.Shards[i] = ShardHealth{
			State:             sh.State.String(),
			Cold:              sh.Cold,
			Failures:          sh.Failures,
			PermanentFailures: sh.PermanentFailures,
			Quarantines:       sh.Quarantines,
			Restages:          sh.Restages,
			LastError:         sh.LastError,
		}
	}
	return out
}
