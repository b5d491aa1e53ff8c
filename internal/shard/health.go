// Shard-level fault tolerance: per-shard health tracking, quarantine of
// cold shards whose device keeps failing, partial-results queries over the
// shards that remain, and background re-staging that rewrites a quarantined
// shard onto a fresh store and returns it to serving.
//
// The failure model layers on the storage tier's: a cold read that exhausts
// its retries surfaces as a typed *storage.BlockError panic, the engine
// contains it at the task boundary, and the messi coordinator converts it
// into a per-shard query error. This file is where those per-shard errors
// become policy — fail fast with the missing-shard set, or answer from the
// shards still standing — instead of process death.
package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dsidx/internal/metrics"
	"dsidx/internal/series"
	"dsidx/internal/storage"
)

// ShardState is a shard's serving condition.
type ShardState int32

const (
	// Serving is the healthy state: the shard participates in every query.
	Serving ShardState = iota
	// Quarantined marks a cold shard whose device returned K consecutive
	// permanent read failures. Queries skip it: they fail fast with
	// ErrShardsUnavailable, or — under Options.AllowPartial — answer from
	// the remaining shards and report it uncovered.
	Quarantined
	// Restaging marks a shard being rewritten onto a fresh store. It is
	// still skipped by queries; Serving resumes when the rewrite lands.
	Restaging
)

// String names the state for logs and metrics.
func (st ShardState) String() string {
	switch st {
	case Serving:
		return "serving"
	case Quarantined:
		return "quarantined"
	case Restaging:
		return "restaging"
	default:
		return fmt.Sprintf("ShardState(%d)", int32(st))
	}
}

// QuarantineAfter is the number of CONSECUTIVE permanent cold-read failures
// after which a shard is quarantined. Retry-exhausted transient faults never
// count: only errors the storage tier classified permanent advance the
// streak, and any clean query resets it. A quarantined shard stays out of
// queries until the operator calls Restage.
const QuarantineAfter = 3

// ErrShardsUnavailable is the typed failure a query returns when one or
// more shards cannot be covered (quarantined, or failed mid-query) and the
// index is not configured for partial results. Callers distinguish it from
// bugs with errors.As; Shards lists every uncovered shard.
type ErrShardsUnavailable struct {
	// Shards is the ascending list of shard ids the query could not cover.
	Shards []int
	// Cause is the storage error behind the first in-query failure; nil
	// when every listed shard was already quarantined before the query.
	Cause error
}

func (e *ErrShardsUnavailable) Error() string {
	return fmt.Sprintf("shard: %d shard(s) unavailable %v: %v", len(e.Shards), e.Shards, e.Cause)
}

// Unwrap exposes the storage cause so errors.Is/As reach the device error.
func (e *ErrShardsUnavailable) Unwrap() error { return e.Cause }

// shardHealth is one shard's query and fault accounting. State transitions
// are Serving → Quarantined (K consecutive permanent failures, CAS so
// exactly one query performs it) → Restaging → Serving.
type shardHealth struct {
	// searches counts the shard's sub-searches, searchFails the ones that
	// returned an error instead of an answer, and queryDur times them.
	searches    atomic.Uint64
	searchFails atomic.Uint64
	queryDur    *metrics.Histogram

	state      atomic.Int32 // ShardState
	consecPerm atomic.Int32 // consecutive permanent failures; reset on success

	failures    atomic.Uint64 // storage-classified query failures
	permFaults  atomic.Uint64 // the permanent subset
	quarantines atomic.Uint64
	restages    atomic.Uint64

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

func (h *shardHealth) setErr(err error) {
	h.mu.Lock()
	h.lastErr = err
	h.mu.Unlock()
}

func (h *shardHealth) getErr() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastErr
}

// ShardHealth is one shard's externally visible health snapshot.
type ShardHealth struct {
	// State is the serving condition.
	State ShardState
	// Cold reports the shard's tier.
	Cold bool
	// Failures counts queries this shard failed with a storage-classified
	// error; PermanentFailures is the permanent subset.
	Failures          uint64
	PermanentFailures uint64
	// Quarantines and Restages count state transitions over the index's
	// lifetime (a shard may cycle more than once).
	Quarantines uint64
	Restages    uint64
	// LastError describes the most recent storage failure ("" when none).
	LastError string
}

// Health is the sharded index's liveness snapshot: aggregate query/merge
// outcomes plus per-shard serving states.
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
	// Shards holds one entry per shard; Quarantined lists the ids not
	// currently Serving, ascending.
	Shards      []ShardHealth
	Quarantined []int
}

// Health snapshots the index's serving condition. It is safe to call
// concurrently with queries, appends and re-stages.
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
			State:             ShardState(h.state.Load()),
			Cold:              s.isCold(si),
			Failures:          h.failures.Load(),
			PermanentFailures: h.permFaults.Load(),
			Quarantines:       h.quarantines.Load(),
			Restages:          h.restages.Load(),
		}
		if err := h.getErr(); err != nil {
			hs.LastError = err.Error()
		}
		out.Shards[si] = hs
		if hs.State != Serving {
			out.Quarantined = append(out.Quarantined, si)
		}
	}
	es := s.eng.Stats()
	out.TaskPanics = es.TaskPanics
	out.BgPanics = es.BgPanics
	return out
}

// ShardState reports shard si's serving condition.
func (s *Sharded) ShardState(si int) ShardState {
	return ShardState(s.health[si].state.Load())
}

// available reports whether shard si participates in queries right now.
func (s *Sharded) available(si int) bool {
	return s.health[si].state.Load() == int32(Serving)
}

// noteShardError classifies a per-shard query error. Storage-classified
// failures (those carrying a *storage.BlockError from the cold tier) are
// absorbed into the shard's health — the query treats the shard as
// uncovered — and permanent ones advance the quarantine counter. Anything
// else (a bug-level panic, a validation error) is not absorbable: the
// caller must fail the whole query with it.
func (s *Sharded) noteShardError(si int, err error) (absorbed bool) {
	var be *storage.BlockError
	if !errors.As(err, &be) {
		return false
	}
	h := &s.health[si]
	h.failures.Add(1)
	h.setErr(err)
	if be.Class != storage.FaultPermanent {
		return true
	}
	h.permFaults.Add(1)
	if h.consecPerm.Add(1) >= QuarantineAfter &&
		h.state.CompareAndSwap(int32(Serving), int32(Quarantined)) {
		h.quarantines.Add(1)
	}
	return true
}

// noteShardSuccess resets the consecutive-failure streak after a shard
// completes a query cleanly.
func (s *Sharded) noteShardSuccess(si int) {
	s.health[si].consecPerm.Store(0)
}

// Restage rewrites cold shard si onto a fresh store and returns it to
// serving: copy the shard's region — the same series in the same leaf order
// the build staged, so the slot table keeps resolving — from the re-stage
// source (ColdStorage.Source, or the index's base reader when unset) into a
// series file of its own, stand up a new block-cached reader, and
// atomically swap the shard's views onto it. The old store is left to its
// owner; the shard's messi tree and SAX summaries were never lost, so no
// index rebuild happens.
//
// Restage is safe concurrently with queries and appends. It returns an
// error — never panics — when the shard is hot, a re-stage is already in
// flight, or the source itself fails mid-copy (the shard then returns to
// Quarantined).
func (s *Sharded) Restage(si int) (err error) {
	if si < 0 || si >= s.n {
		return fmt.Errorf("shard: restage: no shard %d", si)
	}
	if !s.isCold(si) {
		return fmt.Errorf("shard: restage: shard %d is hot", si)
	}
	h := &s.health[si]
	// Claim the transition from whichever stable state the shard is in.
	if !h.state.CompareAndSwap(int32(Quarantined), int32(Restaging)) &&
		!h.state.CompareAndSwap(int32(Serving), int32(Restaging)) {
		return fmt.Errorf("shard: restage: shard %d re-stage already in flight", si)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard: restage shard %d: %v", si, r)
		}
		if err != nil {
			h.setErr(err)
			h.state.Store(int32(Quarantined))
		}
	}()

	t := s.cold
	fresh, err := stage(s.opt.ColdStorage, s.restageSource(), t.region(s.baseMap[si], si))
	if err != nil {
		return fmt.Errorf("shard: restage shard %d: %w", si, err)
	}
	fresh.off = t.regions[si]
	t.parts[si].src.Store(fresh)
	h.restages.Add(1)
	h.consecPerm.Store(0)
	h.setErr(nil)
	h.state.Store(int32(Serving))
	return nil
}

// restageSource is the reader a re-stage copies base values from: the
// caller-supplied hot source when configured, else the index's base reader
// (the caller's collection on a mixed hot/cold build; on an all-cold build
// that is the cold tier itself, which only works if the shard's device has
// recovered — supply ColdStorage.Source to re-stage around a dead device).
func (s *Sharded) restageSource() series.Reader {
	if cs := s.opt.ColdStorage; cs != nil && cs.Source != nil {
		return cs.Source
	}
	return s.base
}

// uncovered builds the sorted uncovered-shard list for a query: shards
// skipped because they were not Serving, plus shards that failed with an
// absorbable storage error mid-query.
func uncovered(skipped []int, failed []int) []int {
	out := append(append([]int(nil), skipped...), failed...)
	sort.Ints(out)
	return out
}
