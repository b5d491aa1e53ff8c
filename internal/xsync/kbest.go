package xsync

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// KBestEntry is one (position, squared distance) result in a KBest set.
type KBestEntry struct {
	Pos  int32
	Dist float64
}

// compare orders entries by distance, equidistant ones (exact duplicates in
// the data) by position: the order a serial scan in position order ranks
// them in, whatever order concurrent evaluators offer them in.
func (e KBestEntry) compare(o KBestEntry) int {
	return cmp.Or(cmp.Compare(e.Dist, o.Dist), cmp.Compare(e.Pos, o.Pos))
}

// KBest is a concurrent bounded max-heap of the k best results seen so far,
// smallest under KBestEntry.compare. Its Threshold — the k-th best distance,
// +Inf until the set fills — is readable without the lock and plays the BSF
// role in k-NN search: any candidate whose lower bound reaches it can be
// pruned.
type KBest struct {
	k     int
	mu    sync.Mutex
	items []KBestEntry
	thr   atomic.Uint64
}

// NewKBest returns an empty k-best set.
func NewKBest(k int) *KBest {
	kb := &KBest{k: k, items: make([]KBestEntry, 0, k)}
	kb.thr.Store(math.Float64bits(math.Inf(1)))
	return kb
}

// Threshold returns the current pruning threshold (k-th best distance).
func (kb *KBest) Threshold() float64 { return math.Float64frombits(kb.thr.Load()) }

// Offer inserts (pos, dist) if it improves the k-best set; a candidate that
// ties the k-th distance displaces it only from a lower position. A position
// already present is ignored (results sets are per-position, and search
// phases may examine a series twice).
func (kb *KBest) Offer(pos int32, dist float64) {
	if dist > kb.Threshold() {
		return
	}
	kb.mu.Lock()
	defer kb.mu.Unlock()
	for _, it := range kb.items {
		if it.Pos == pos {
			return
		}
	}
	if len(kb.items) < kb.k {
		kb.items = append(kb.items, KBestEntry{pos, dist})
		kb.up(len(kb.items) - 1)
		if len(kb.items) == kb.k {
			kb.thr.Store(math.Float64bits(kb.items[0].Dist))
		}
		return
	}
	if (KBestEntry{pos, dist}).compare(kb.items[0]) >= 0 {
		return
	}
	kb.items[0] = KBestEntry{pos, dist}
	kb.down(0)
	kb.thr.Store(math.Float64bits(kb.items[0].Dist))
}

func (kb *KBest) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if kb.items[parent].compare(kb.items[i]) >= 0 {
			return
		}
		kb.items[parent], kb.items[i] = kb.items[i], kb.items[parent]
		i = parent
	}
}

func (kb *KBest) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(kb.items) && kb.items[l].compare(kb.items[largest]) > 0 {
			largest = l
		}
		if r < len(kb.items) && kb.items[r].compare(kb.items[largest]) > 0 {
			largest = r
		}
		if largest == i {
			return
		}
		kb.items[i], kb.items[largest] = kb.items[largest], kb.items[i]
		i = largest
	}
}

// Sorted returns the current results in ascending (distance, position)
// order.
func (kb *KBest) Sorted() []KBestEntry {
	kb.mu.Lock()
	out := make([]KBestEntry, len(kb.items))
	copy(out, kb.items)
	kb.mu.Unlock()
	slices.SortFunc(out, KBestEntry.compare)
	return out
}
