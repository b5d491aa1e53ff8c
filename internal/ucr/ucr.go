// Package ucr implements the UCR Suite baseline (Rakthanmanon et al.,
// SIGKDD 2012), the serial-scan comparator of the paper's evaluation, plus
// the parallel in-memory variant ("UCR Suite-p") used in Figures 9 and 12.
//
// For whole-matching Euclidean search over z-normalized series, the UCR
// Suite reduces to a sequential scan with early-abandoning distance
// computations; for DTW it adds the LB_Keogh lower-bound cascade. Both are
// implemented here, over in-memory collections and over on-disk series
// files (the HDD/SSD experiments of Figures 10 and 11 scan the raw file).
package ucr

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"dsidx/internal/core"
	"dsidx/internal/series"
	"dsidx/internal/storage"
	"dsidx/internal/vector"
	"dsidx/internal/xsync"
)

// Result is the shared search answer type; for DTW searches Dist holds the
// squared DTW distance.
type Result = core.Result

// Scan performs serial exact 1-NN search over an in-memory collection with
// early abandoning — the UCR Suite baseline.
//
// The scans here use the same vector.SquaredEDEarlyAbandon kernel as the
// indexes, so for a series that is never abandoned (in particular the
// winner, whose partial sums all stay below the threshold) every system
// computes the identical floating-point sum. That makes the serial scan a
// bit-exact ground truth for the index and concurrent-engine test suites,
// not just a tolerance-based one.
func Scan(coll *series.Collection, q series.Series) Result {
	best := Result{Pos: -1, Dist: math.Inf(1)}
	for i := 0; i < coll.Len(); i++ {
		d := vector.SquaredEDEarlyAbandon(q, coll.At(i), best.Dist)
		if d < best.Dist {
			best = Result{Pos: int32(i), Dist: d}
		}
	}
	return best
}

// ScanLive is Scan restricted to the positions [lo, coll.Len()) for which
// dead reports false — the oracle form the delete- and window-aware
// differential suites reduce to. A nil dead means every position is live;
// lo 0 plus nil dead is exactly Scan. The same kernel-sharing argument
// makes it a bit-exact ground truth: skipping a position never perturbs
// the floating-point sums computed for the positions that are visited.
func ScanLive(coll *series.Collection, q series.Series, lo int, dead func(int) bool) Result {
	best := Result{Pos: -1, Dist: math.Inf(1)}
	if lo < 0 {
		lo = 0
	}
	for i := lo; i < coll.Len(); i++ {
		if dead != nil && dead(i) {
			continue
		}
		d := vector.SquaredEDEarlyAbandon(q, coll.At(i), best.Dist)
		if d < best.Dist {
			best = Result{Pos: int32(i), Dist: d}
		}
	}
	return best
}

// ScanLiveKNN is ScanKNN restricted like ScanLive.
func ScanLiveKNN(coll *series.Collection, q series.Series, k, lo int, dead func(int) bool) []Result {
	if k <= 0 {
		return nil
	}
	if lo < 0 {
		lo = 0
	}
	heap := newKBest(k)
	for i := lo; i < coll.Len(); i++ {
		if dead != nil && dead(i) {
			continue
		}
		d := vector.SquaredEDEarlyAbandon(q, coll.At(i), heap.threshold())
		heap.offer(Result{Pos: int32(i), Dist: d})
	}
	return heap.sorted()
}

// ScanLiveDTW is ScanDTW restricted like ScanLive.
func ScanLiveDTW(coll *series.Collection, q series.Series, window, lo int, dead func(int) bool) Result {
	env := series.NewEnvelope(q, window)
	best := Result{Pos: -1, Dist: math.Inf(1)}
	var rows []float64
	if lo < 0 {
		lo = 0
	}
	for i := lo; i < coll.Len(); i++ {
		if dead != nil && dead(i) {
			continue
		}
		s := coll.At(i)
		if lb := series.LBKeogh(env, s, best.Dist); lb >= best.Dist {
			continue
		}
		d := series.DTW(q, s, window, best.Dist, &rows)
		if d < best.Dist {
			best = Result{Pos: int32(i), Dist: d}
		}
	}
	return best
}

// ScanKNN performs serial exact k-NN search, returning the k nearest
// neighbors in ascending (distance, position) order.
func ScanKNN(coll *series.Collection, q series.Series, k int) []Result {
	if k <= 0 {
		return nil
	}
	// Bounded max-heap on (distance, position): the root is the current
	// k-th best, whose distance doubles as the abandoning threshold.
	heap := newKBest(k)
	for i := 0; i < coll.Len(); i++ {
		d := vector.SquaredEDEarlyAbandon(q, coll.At(i), heap.threshold())
		heap.offer(Result{Pos: int32(i), Dist: d})
	}
	return heap.sorted()
}

// ParallelScan is "UCR Suite-p": the collection is split into one chunk per
// worker and scanned concurrently with a shared best-so-far, so abandoning
// thresholds tighten globally as any worker improves the answer.
func ParallelScan(coll *series.Collection, q series.Series, workers int) Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunks := xsync.Chunks(coll.Len(), workers)
	best := xsync.NewBest()
	var wg sync.WaitGroup
	for _, ch := range chunks {
		wg.Add(1)
		go func(ch xsync.Chunk) {
			defer wg.Done()
			for i := ch.Lo; i < ch.Hi; i++ {
				limit := best.Distance()
				d := vector.SquaredEDEarlyAbandon(q, coll.At(i), limit)
				if d < limit {
					best.Update(d, int64(i))
				}
			}
		}(ch)
	}
	wg.Wait()
	d, p := best.Load()
	return Result{Pos: int32(p), Dist: d}
}

// ScanDisk performs the serial UCR Suite scan over an on-disk series file,
// reading sequential batches — the configuration of Figures 10 and 11. The
// batch size trades memory for fewer device round-trips.
func ScanDisk(f *storage.SeriesFile, q series.Series, batch int) (Result, error) {
	if batch <= 0 {
		batch = 4096
	}
	best := Result{Pos: -1, Dist: math.Inf(1)}
	for lo := int64(0); lo < f.Count(); lo += int64(batch) {
		n := int64(batch)
		if lo+n > f.Count() {
			n = f.Count() - lo
		}
		coll, err := f.ReadBatch(lo, n)
		if err != nil {
			return best, fmt.Errorf("ucr: scanning batch at %d: %w", lo, err)
		}
		for i := 0; i < coll.Len(); i++ {
			d := vector.SquaredEDEarlyAbandon(q, coll.At(i), best.Dist)
			if d < best.Dist {
				best = Result{Pos: int32(lo) + int32(i), Dist: d}
			}
		}
	}
	return best, nil
}

// ScanDTW performs serial exact 1-NN search under DTW with a Sakoe-Chiba
// band of half-width window, using the LB_Keogh cascade: candidates whose
// envelope bound already exceeds the best-so-far never reach the O(n·w)
// dynamic program.
func ScanDTW(coll *series.Collection, q series.Series, window int) Result {
	return ScanLiveDTW(coll, q, window, 0, nil)
}

// kBest is a fixed-capacity max-heap of the k best results seen so far,
// ranked by (distance, position): of two exact ties the lower position is
// the better result, at every k and at the k-th slot too — the rule every
// index in this module answers by.
type kBest struct {
	k     int
	items []Result
}

func newKBest(k int) *kBest { return &kBest{k: k, items: make([]Result, 0, k)} }

// worse reports whether a ranks after b: a larger distance, or an equal one
// at a higher position.
func worse(a, b Result) bool {
	return a.Dist > b.Dist || a.Dist == b.Dist && a.Pos > b.Pos
}

// threshold returns the current pruning threshold: +Inf until the heap is
// full, then the k-th best distance.
func (h *kBest) threshold() float64 {
	if len(h.items) < h.k {
		return math.Inf(1)
	}
	return h.items[0].Dist
}

// offer inserts r if it improves the k-best set, evicting the worst result.
func (h *kBest) offer(r Result) {
	if len(h.items) < h.k {
		h.items = append(h.items, r)
		i := len(h.items) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !worse(h.items[i], h.items[parent]) {
				break
			}
			h.items[parent], h.items[i] = h.items[i], h.items[parent]
			i = parent
		}
		return
	}
	if !worse(h.items[0], r) {
		return
	}
	h.items[0] = r
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		largest := i
		if l < len(h.items) && worse(h.items[l], h.items[largest]) {
			largest = l
		}
		if rr < len(h.items) && worse(h.items[rr], h.items[largest]) {
			largest = rr
		}
		if largest == i {
			return
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}

// sorted drains the heap into ascending (distance, position) order.
func (h *kBest) sorted() []Result {
	out := make([]Result, len(h.items))
	copy(out, h.items)
	// Simple insertion sort: k is small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && worse(out[j-1], out[j]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
