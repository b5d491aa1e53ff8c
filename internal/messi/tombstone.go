package messi

// Deletes and TTL: the index never removes series in place — snapshots are
// immutable and the delta buffer is append-only, which is exactly what makes
// lock-free reads work — so deletion is a tombstone. Delete/DeleteRange mark
// global positions in a copy-on-write bitset published atomically; every
// search flavor (tree refinement, delta scan, k-NN offers, approximate
// probes) consults the set it loaded at query start, so an answer reflects
// one consistent delete state just like it reflects one consistent append
// cut. The background merge drops tombstoned entries whenever it rewrites a
// subtree (ingest.go), and Compact rewrites the subtrees that still hold
// any, through the same writer; the tombstone set
// itself is kept even for compacted positions — positions are never reused,
// so a stale bit is harmless, and keeping it makes the filter independent of
// compaction progress (answers cannot depend on merge timing).
//
// TTL is deletion scheduled by the caller's clock: AppendWithTTL/SetTTL
// record a deadline per position, and ExpireBefore(now) tombstones every
// position whose deadline has passed. The index never reads a wall clock
// itself — expiry is an explicit, deterministic operation, which is what
// lets the conformance harness drive it from a logical clock and demand
// bit-identical answers from every placement.

import (
	"fmt"
	"math/bits"
	"slices"

	"dsidx/internal/series"
	"dsidx/internal/storage"
)

// tombSet is an immutable bitset of tombstoned global positions plus its
// population count. Mutators build a new set under tombMu and publish it via
// an atomic pointer; readers load the pointer once per query and test it
// lock-free. A nil *tombSet (the initial state) is a valid empty set.
type tombSet struct {
	bits []uint64
	n    int
}

// has reports whether pos is tombstoned. Nil-safe.
func (ts *tombSet) has(pos int32) bool {
	if ts == nil || pos < 0 {
		return false
	}
	i := int(pos) >> 6
	return i < len(ts.bits) && ts.bits[i]&(1<<(uint(pos)&63)) != 0
}

// count returns the number of tombstoned positions. Nil-safe.
func (ts *tombSet) count() int {
	if ts == nil {
		return 0
	}
	return ts.n
}

// clone returns a mutable copy sized to hold positions below limit.
func (ts *tombSet) clone(limit int) *tombSet {
	words := (limit + 63) / 64
	next := &tombSet{bits: make([]uint64, words), n: ts.count()}
	if ts != nil {
		copy(next.bits, ts.bits)
	}
	return next
}

// set marks pos in a mutable (not yet published) set, reporting whether the
// bit was newly set.
func (ts *tombSet) set(pos int32) bool {
	i := int(pos) >> 6
	mask := uint64(1) << (uint(pos) & 63)
	if ts.bits[i]&mask != 0 {
		return false
	}
	ts.bits[i] |= mask
	ts.n++
	return true
}

// positions returns the tombstoned positions in ascending order. Nil-safe.
func (ts *tombSet) positions() []int32 {
	if ts == nil || ts.n == 0 {
		return nil
	}
	out := make([]int32, 0, ts.n)
	for i, w := range ts.bits {
		for ; w != 0; w &= w - 1 {
			out = append(out, int32(i*64+bits.TrailingZeros64(w)))
		}
	}
	return out
}

// ttlEntry is one pending expiry deadline: the series at global position pos
// is tombstoned by the first ExpireBefore(now) with now >= deadline.
type ttlEntry struct {
	pos      int32
	deadline int64
}

// tombstones returns the published tombstone set (nil-safe empty before any
// delete).
func (ix *Index) tombstones() *tombSet { return ix.tombs.Load() }

// Delete tombstones the series at global position pos: it stops appearing in
// every subsequent search (all flavors, hot or cold, merged or pending) and
// is dropped from the tree the next time a merge or Compact rebuilds its
// subtree. Returns false if pos was already tombstoned. Deleting is
// idempotent, safe concurrently with appends and queries, and never blocks
// readers — in-flight queries keep the delete state they observed at start,
// exactly as they keep their append cut.
func (ix *Index) Delete(pos int) (bool, error) {
	n, err := ix.DeleteRange(pos, pos+1)
	return n == 1, err
}

// DeleteRange tombstones every position in [lo, hi), returning how many were
// newly tombstoned. The range must satisfy 0 <= lo <= hi <= Count().
func (ix *Index) DeleteRange(lo, hi int) (int, error) {
	limit := ix.baseLen + int(ix.appended.Load())
	if lo < 0 || hi < lo || hi > limit {
		return 0, fmt.Errorf("messi: delete range [%d, %d) outside [0, %d)", lo, hi, limit)
	}
	if lo == hi {
		return 0, nil
	}
	ix.tombMu.Lock()
	next := ix.tombs.Load().clone(limit)
	newly := 0
	for p := lo; p < hi; p++ {
		if next.set(int32(p)) {
			newly++
		}
	}
	if newly > 0 {
		ix.tombs.Store(next)
	}
	ix.tombMu.Unlock()
	return newly, nil
}

// AppendWithTTL is Append plus a TTL deadline: the series is served exactly
// like any other append until a call to ExpireBefore(now) with
// now >= deadline tombstones it. The deadline is in whatever units the
// caller's clock uses (the index never reads a clock itself).
func (ix *Index) AppendWithTTL(s series.Series, deadline int64) (int, error) {
	pos, err := ix.Append(s)
	if err != nil {
		return 0, err
	}
	if err := ix.SetTTL(pos, deadline); err != nil {
		return 0, err
	}
	return pos, nil
}

// SetTTL attaches (or replaces) an expiry deadline on the series at global
// position pos. The position must be < Count().
func (ix *Index) SetTTL(pos int, deadline int64) error {
	limit := ix.baseLen + int(ix.appended.Load())
	if pos < 0 || pos >= limit {
		return fmt.Errorf("messi: ttl position %d outside [0, %d)", pos, limit)
	}
	ix.tombMu.Lock()
	replaced := false
	for i := range ix.ttls {
		if ix.ttls[i].pos == int32(pos) {
			ix.ttls[i].deadline = deadline
			replaced = true
			break
		}
	}
	if !replaced {
		ix.ttls = append(ix.ttls, ttlEntry{pos: int32(pos), deadline: deadline})
	}
	ix.tombMu.Unlock()
	return nil
}

// ExpireBefore tombstones every TTL'd series whose deadline is <= now and
// returns how many expired. Expiry is explicit — the caller owns the clock —
// so identical call sequences produce identical answer streams regardless of
// wall time, which the conformance harness relies on.
func (ix *Index) ExpireBefore(now int64) int {
	ix.tombMu.Lock()
	expired := 0
	keep := ix.ttls[:0]
	var next *tombSet
	for _, e := range ix.ttls {
		if e.deadline > now {
			keep = append(keep, e)
			continue
		}
		if next == nil {
			next = ix.tombs.Load().clone(ix.baseLen + int(ix.appended.Load()))
		}
		if next.set(e.pos) {
			expired++
		}
	}
	ix.ttls = keep
	if next != nil {
		ix.tombs.Store(next)
	}
	ix.tombMu.Unlock()
	return expired
}

// Tombstoned returns the number of tombstoned positions; Live returns
// Count() minus that — the series a full search actually ranges over.
func (ix *Index) Tombstoned() int { return ix.tombs.Load().count() }

// Live returns the number of non-tombstoned series the index answers over.
func (ix *Index) Live() int { return ix.Count() - ix.Tombstoned() }

// Compact synchronously folds the pending delta into the tree (Flush) and
// then rewrites every subtree that holds tombstoned entries, dropping them
// from leaves: the keys of the tombstoned positions the tree covers go
// through the merge's rewrite with nothing added, so a compacted subtree is
// the one Build would make from its live series. Queries were already exact
// before the call — the tombstone filter covers un-compacted entries — so
// Compact only reclaims memory and refinement work; answers never change.
func (ix *Index) Compact() {
	ix.Flush()
	ts := ix.tombs.Load()
	if ts.count() == 0 {
		return
	}
	ix.mergeMu.Lock()
	defer ix.mergeMu.Unlock()
	old := ix.snap.Load()
	pos := ts.positions() // ascending: cut off the pending ones, not in the tree
	inTree, _ := slices.BinarySearch(pos, int32(ix.baseLen+old.mergedA))
	if next := ix.rewrite(old.tree, ts, pos[:inTree], false); next != nil {
		ix.publish(next, old.mergedA)
		ix.snapSwaps.Add(1)
	}
}

// Tombstone persistence ("DST1"): an optional envelope around the DSL1/DSI1
// bytes carrying the tombstone set and pending TTL deadlines. Emitted only
// when either is non-empty, so an index with no delete state encodes
// byte-identically to one written before deletes existed, and legacy files
// load with zero tombstones.
//
//	magic "DST1", u32 version=1
//	u32 tombCount, tombCount × u32 ascending global positions
//	u32 ttlCount,  ttlCount × (u32 position, u64 deadline as int64 LE)
//	u64 innerLen, inner bytes (DSL1 or bare DSI1)
const (
	tombMagic   = "DST1"
	tombVersion = 1
)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", storage.ErrCorrupt, fmt.Sprintf(format, args...))
}
