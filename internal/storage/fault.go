package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// FaultClass classifies an I/O failure by how a reader should respond to it.
type FaultClass int

const (
	// FaultTransient marks a failure worth retrying: the device hiccuped
	// but the data is intact (bus reset, timeout, contention).
	FaultTransient FaultClass = iota
	// FaultPermanent marks a failure retries cannot fix: the bytes are
	// gone (bad sector, dead device, truncated file).
	FaultPermanent
)

// String names the class for error messages and metrics labels.
func (c FaultClass) String() string {
	if c == FaultTransient {
		return "transient"
	}
	return "permanent"
}

// ReadError is the typed error a FaultStore injects: the failed byte range
// plus the fault's class, so the retry layer above can tell a hiccup from a
// dead sector. Unwrap exposes the underlying cause for errors.Is chains.
type ReadError struct {
	Off   int64
	Len   int
	Class FaultClass
	Err   error
}

func (e *ReadError) Error() string {
	return fmt.Sprintf("storage: %s read fault at [%d,%d): %v", e.Class, e.Off, e.Off+int64(e.Len), e.Err)
}

func (e *ReadError) Unwrap() error { return e.Err }

// IsTransient reports whether err carries an explicitly transient fault
// classification. Anything else — permanent faults, plain I/O errors,
// corruption — is treated as non-retryable: only a fault the device itself
// marked as a hiccup justifies burning retry time.
func IsTransient(err error) bool {
	var re *ReadError
	return errors.As(err, &re) && re.Class == FaultTransient
}

// Range is a half-open byte range [Start, End) of the underlying store.
type Range struct {
	Start, End int64
}

// overlaps reports whether the range intersects [off, off+n).
func (r Range) overlaps(off int64, n int) bool {
	return off < r.End && off+int64(n) > r.Start
}

// FaultPlan scripts the failures a FaultStore injects. The zero plan
// injects nothing. Plans are values: tests build them inline, swap them
// mid-run with SetPlan, and clear them with Heal.
type FaultPlan struct {
	// Seed fixes the random stream driving probabilistic faults, so a
	// plan replays identically for a serial caller. (Concurrent readers
	// still share one stream; per-call outcomes then depend on
	// interleaving, but totals remain plan-bounded.)
	Seed int64
	// TransientProb is the per-read probability of starting a transient
	// fault burst.
	TransientProb float64
	// TransientBurst is the number of consecutive reads that fail once a
	// burst starts (0 means 1) — modeling the correlated failures real
	// devices produce, which is what exhausts naive retry loops.
	TransientBurst int
	// PermanentRanges lists byte ranges whose reads always fail with a
	// permanent fault — a dead region of the device.
	PermanentRanges []Range
	// LatencyProb and Latency inject stalls: with probability LatencyProb
	// a read sleeps Latency before being served. Slow-but-working reads
	// exercise the timeout-free retry path.
	LatencyProb float64
	Latency     time.Duration
}

// Active reports whether the plan injects anything (the zero plan does
// not).
func (p FaultPlan) Active() bool {
	return p.TransientProb > 0 || len(p.PermanentRanges) > 0 || p.LatencyProb > 0
}

// FaultStats counts the faults a FaultStore has injected.
type FaultStats struct {
	TransientFaults uint64
	PermanentFaults uint64
	LatencySpikes   uint64
	Reads           uint64
}

// FaultStore wraps a Store and injects read faults per a scriptable,
// seeded FaultPlan — the deterministic test substrate for every
// fault-tolerance layer above it. Writes, Size and Truncate pass through
// untouched: the failure modes under study are on the read path, where an
// index serves queries off cold data.
//
// errFault is the sentinel cause under every injected ReadError, so tests
// can errors.Is for "injected by the plan" regardless of class.
type FaultStore struct {
	inner Store

	mu    sync.Mutex
	rng   *rand.Rand
	plan  FaultPlan
	burst int // remaining reads of the active transient burst
	stats FaultStats
}

// ErrInjected is the root cause of every fault a FaultStore injects.
var ErrInjected = errors.New("injected fault")

// NewFaultStore wraps inner with the given plan.
func NewFaultStore(inner Store, plan FaultPlan) *FaultStore {
	f := &FaultStore{inner: inner}
	f.SetPlan(plan)
	return f
}

// SetPlan replaces the active plan, reseeding the random stream and
// clearing any in-progress burst. Safe to call while reads are in flight —
// the device "heals" or "degrades" mid-run.
func (f *FaultStore) SetPlan(plan FaultPlan) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plan = plan
	f.rng = rand.New(rand.NewSource(plan.Seed))
	f.burst = 0
}

// Heal clears the plan: subsequent reads pass through fault-free.
func (f *FaultStore) Heal() { f.SetPlan(FaultPlan{}) }

// Plan returns the active plan.
func (f *FaultStore) Plan() FaultPlan {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.plan
}

// Stats snapshots the injection counters.
func (f *FaultStore) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// ReadAt consults the plan, then either fails with a typed ReadError,
// stalls, or serves the read from the wrapped store.
func (f *FaultStore) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	f.stats.Reads++
	for _, r := range f.plan.PermanentRanges {
		if r.overlaps(off, len(p)) {
			f.stats.PermanentFaults++
			f.mu.Unlock()
			return 0, &ReadError{Off: off, Len: len(p), Class: FaultPermanent, Err: ErrInjected}
		}
	}
	if f.burst > 0 {
		f.burst--
		f.stats.TransientFaults++
		f.mu.Unlock()
		return 0, &ReadError{Off: off, Len: len(p), Class: FaultTransient, Err: ErrInjected}
	}
	if f.plan.TransientProb > 0 && f.rng.Float64() < f.plan.TransientProb {
		if f.plan.TransientBurst > 1 {
			f.burst = f.plan.TransientBurst - 1
		}
		f.stats.TransientFaults++
		f.mu.Unlock()
		return 0, &ReadError{Off: off, Len: len(p), Class: FaultTransient, Err: ErrInjected}
	}
	var stall time.Duration
	if f.plan.LatencyProb > 0 && f.rng.Float64() < f.plan.LatencyProb {
		f.stats.LatencySpikes++
		stall = f.plan.Latency
	}
	f.mu.Unlock()
	if stall > 0 {
		time.Sleep(stall)
	}
	return f.inner.ReadAt(p, off)
}

// WriteAt passes through to the wrapped store.
func (f *FaultStore) WriteAt(p []byte, off int64) (int, error) { return f.inner.WriteAt(p, off) }

// Size passes through to the wrapped store.
func (f *FaultStore) Size() int64 { return f.inner.Size() }

// Truncate passes through to the wrapped store.
func (f *FaultStore) Truncate(size int64) error { return f.inner.Truncate(size) }

var _ Store = (*FaultStore)(nil)
