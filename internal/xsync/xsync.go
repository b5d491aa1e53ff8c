// Package xsync provides the small concurrency primitives the paper's
// algorithms are built from: Fetch&Inc work claiming, a shared Best-So-Far
// (BSF) value, a lock-free append-only candidate list, and contiguous range
// chunking for static work partitioning.
//
// The paper's ParIS and MESSI assign work units (chunks of the raw data
// array, receiving buffers, index subtrees) to threads "using Fetch&Inc";
// Counter is that primitive. The BSF variable is read on every pruning
// decision and written rarely, so Best uses an atomic fast path for reads
// and a mutex only on improvement.
package xsync

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a Fetch&Inc work-claiming counter. The zero value is ready to
// use and starts at 0.
type Counter struct {
	v atomic.Int64
}

// Next claims and returns the next value (0, 1, 2, ...).
func (c *Counter) Next() int64 { return c.v.Add(1) - 1 }

// Value returns the number of values claimed so far without claiming one.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset rewinds the counter to zero so a pool can reuse it between phases.
func (c *Counter) Reset() { c.v.Store(0) }

// Best is a concurrently updatable (distance, position) pair that only ever
// improves (distance decreases, or stays while the position decreases).
// Reads are a single atomic load; writes take a mutex but first re-check
// under the atomic so losers back off cheaply.
type Best struct {
	bits atomic.Uint64 // float64 bits of the current best distance
	mu   sync.Mutex
	pos  int64
}

// NewBest returns a Best initialized to (+Inf, -1).
func NewBest() *Best {
	b := &Best{pos: -1}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

// Distance returns the current best distance.
func (b *Best) Distance() float64 { return math.Float64frombits(b.bits.Load()) }

// Reset rewinds the pair to (+Inf, -1) so a single owner can reuse the
// allocation across searches. Must not race with concurrent Update/Load
// callers — reuse is between searches, not during one.
func (b *Best) Reset() {
	b.mu.Lock()
	b.bits.Store(math.Float64bits(math.Inf(1)))
	b.pos = -1
	b.mu.Unlock()
}

// Load returns the current best distance and position. The pair is
// consistent: it reflects some update that actually happened.
func (b *Best) Load() (float64, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return math.Float64frombits(b.bits.Load()), b.pos
}

// Update installs (dist, pos) if dist improves on the current best — or
// equals it at a lower position — and reports whether it did. The tie rule
// makes the winner among equidistant candidates (exact duplicates in the
// data) the one a serial scan in position order reports, whatever order
// concurrent evaluators reach them in. Safe for concurrent use.
func (b *Best) Update(dist float64, pos int64) bool {
	if dist > b.Distance() {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if cur := math.Float64frombits(b.bits.Load()); dist > cur || (dist == cur && pos >= b.pos) {
		return false
	}
	b.bits.Store(math.Float64bits(dist))
	b.pos = pos
	return true
}

// CandidateList is the lock-free, append-only list that the lower-bound
// filtering stage of ParIS query answering fills with the positions of
// series that survive pruning (paper §III: "the data series that are not
// pruned are stored in a candidate list"). Appends claim a slot with a
// single atomic add; the list has fixed capacity, sized to the dataset.
type CandidateList struct {
	slots []int32
	next  atomic.Int64
}

// NewCandidateList allocates a list that can hold up to capacity positions.
func NewCandidateList(capacity int) *CandidateList {
	return &CandidateList{slots: make([]int32, capacity)}
}

// Append adds a position. It panics if capacity is exceeded, which cannot
// happen when capacity equals the dataset size.
func (l *CandidateList) Append(pos int32) {
	i := l.next.Add(1) - 1
	l.slots[i] = pos
}

// Snapshot returns the filled prefix of the list. Callers must ensure all
// appenders have finished (the stages are separated by WaitGroups).
func (l *CandidateList) Snapshot() []int32 { return l.slots[:l.next.Load()] }

// Len returns the number of appended candidates so far.
func (l *CandidateList) Len() int { return int(l.next.Load()) }

// Reset empties the list for reuse across queries.
func (l *CandidateList) Reset() { l.next.Store(0) }

// Chunk describes a contiguous half-open range of work items.
type Chunk struct{ Lo, Hi int }

// Chunks splits [0, n) into at most parts contiguous chunks of near-equal
// size. Fewer chunks are returned when n < parts. Static partitioning like
// this is how ParIS splits the SAX array across lower-bound workers.
func Chunks(n, parts int) []Chunk {
	if parts <= 0 || n <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	out := make([]Chunk, 0, parts)
	base, rem := n/parts, n%parts
	lo := 0
	for i := 0; i < parts; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, Chunk{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// Blocks splits [0, n) into fixed-size blocks (the last one may be short).
// MESSI assigns raw-data blocks to summarization workers round-robin from a
// shared Counter over these blocks.
func Blocks(n, blockSize int) []Chunk {
	if n <= 0 || blockSize <= 0 {
		return nil
	}
	out := make([]Chunk, 0, (n+blockSize-1)/blockSize)
	for lo := 0; lo < n; lo += blockSize {
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		out = append(out, Chunk{Lo: lo, Hi: hi})
	}
	return out
}
