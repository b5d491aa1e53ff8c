package isax

import (
	"fmt"
	"math"

	"dsidx/internal/vector"
)

// This file implements the lower-bounding distances between a query and iSAX
// summaries. The guarantee chain (property-tested across packages) is
//
//	MinDist(PAA(q), iSAX(s)) <= (n/w)·ED²(PAA(q), PAA(s)) <= ED²(q, s)
//
// so pruning on MinDist never discards the true nearest neighbor.

// MinDist returns the squared lower-bounding distance between the query's
// PAA coefficients and an iSAX word, for original series length n. For each
// segment, the distance contribution is the gap between the coefficient and
// the word's value region (zero if the coefficient falls inside the region).
func MinDist(q *Quantizer, paaCoeffs []float64, w Word, n int) float64 {
	if len(paaCoeffs) != len(w.Symbols) {
		panic(fmt.Sprintf("isax: MinDist segment mismatch %d != %d", len(paaCoeffs), len(w.Symbols)))
	}
	ratio := float64(n) / float64(len(paaCoeffs))
	var acc float64
	for j, v := range paaCoeffs {
		lo, hi := q.Region(w.Symbols[j], int(w.Bits[j]))
		switch {
		case v < lo:
			d := lo - v
			acc += d * d
		case v > hi:
			d := v - hi
			acc += d * d
		}
	}
	return acc * ratio
}

// QueryTable is a per-query lookup table for lower-bound scans over
// full-cardinality summaries (the SAX array of ParIS, paper Figure 2).
// cell[j][s] holds the ready-scaled squared distance contribution of segment
// j when the candidate's symbol is s, so the bound for one series is the sum
// of w table lookups — this is the memory-access pattern the paper
// accelerates with SIMD.
//
// Beside cells sit its two one-sided halves, same shape: below[j][s] is the
// cell's value when the query lies below cell s and 0 otherwise, above[j][s]
// the same for a query above it. below grows with s and above shrinks, so
// over a symbol range [lo, hi] the smallest cell is max(below[j][lo],
// above[j][hi]) — two lookups bound a whole leaf's segment (see
// vector.EnvelopeDist).
type QueryTable struct {
	segments     int
	cells        []float64 // segments × 2^maxBits, row-major
	below, above []float64
	card         int
}

// NewQueryTable precomputes the lookup table for the given query PAA
// coefficients and original series length n.
func NewQueryTable(q *Quantizer, paaCoeffs []float64, n int) *QueryTable {
	t := &QueryTable{}
	t.FillED(q, paaCoeffs, n)
	return t
}

// FillED recomputes the table in place for a new query, reusing the arrays
// when the shape matches — they are 3·w·2^maxBits float64s (96KB at the
// defaults), so pooled scratch tables keep sustained query rates off the
// allocator. A point query is the envelope whose two sides coincide.
func (t *QueryTable) FillED(q *Quantizer, paaCoeffs []float64, n int) {
	t.FillDTW(q, paaCoeffs, paaCoeffs, n)
}

// reshape sizes the three arrays for segs × card entries, reallocating only
// on growth or shape change.
func (t *QueryTable) reshape(segs, card int) {
	t.segments, t.card = segs, card
	if n := segs * card; cap(t.cells) >= n {
		t.cells, t.below, t.above = t.cells[:n], t.below[:n], t.above[:n]
	} else {
		t.cells, t.below, t.above = make([]float64, n), make([]float64, n), make([]float64, n)
	}
}

// Cells exposes the row-major lookup table (segments × cardinality) for
// batched kernels in internal/vector. The slice must not be modified.
func (t *QueryTable) Cells() []float64 { return t.cells }

// Card returns the cardinality of the table — the row stride of Cells,
// which batched kernels need alongside the cell array.
func (t *QueryTable) Card() int { return t.card }

// Sides exposes the one-sided tables, laid out like Cells and as read-only.
func (t *QueryTable) Sides() (below, above []float64) { return t.below, t.above }

// FillRootKeys writes the table's bound for every root word — one bit per
// segment, the coarsest word a leaf can hang under — indexed by root key
// (RootKey's bit order: the last segment is bit 0): the bound of key is
// lo[key&255] + hi[key>>8]. A segment whose bit is 0 covers the lower half
// of the symbols and contributes above[j][card/2−1], its smallest cell; bit
// 1 contributes below[j][card/2]. Each table is built by doubling, one
// segment per step, so an entry is its terms summed from zero, last segment
// first. With eight segments or fewer, hi[0] = 0 is hi's only entry.
func (t *QueryTable) FillRootKeys(lo, hi *[256]float64) {
	half, j := t.card/2, t.segments
	for _, tab := range [2]*[256]float64{lo, hi} {
		tab[0] = 0
		for size := 1; size < len(tab) && j > 0; size *= 2 {
			j--
			zero, one := t.above[j*t.card+half-1], t.below[j*t.card+half]
			for i := 0; i < size; i++ {
				tab[size+i] = tab[i] + one
				tab[i] += zero
			}
		}
	}
}

// MinDistSAX returns the lower-bounding distance between the query
// underlying t and one full-cardinality summary. At w = 16 (the paper's
// configuration) it delegates to the vector kernel, so per-entry and
// batched scans produce bit-identical bounds by construction, whichever
// implementation dispatch selects.
func (t *QueryTable) MinDistSAX(fullSAX []uint8) float64 {
	if len(fullSAX) == 16 && t.segments == 16 {
		return vector.MinDistLookup16(t.cells, fullSAX, t.card)
	}
	var acc float64
	cells, card := t.cells, t.card
	for j, s := range fullSAX {
		acc += cells[j*card+int(s)]
	}
	return acc
}

// MinDistDTW returns a DTW-valid lower bound between a query envelope's PAA
// bounds and an iSAX word. For DTW queries (paper §V) the query is replaced
// by its warping envelope: a segment contributes distance only if the word's
// region lies entirely above the envelope-upper PAA or below the
// envelope-lower PAA. The bound is valid because every warping of the query
// stays inside the envelope.
func MinDistDTW(q *Quantizer, paaUpper, paaLower []float64, w Word, n int) float64 {
	if len(paaUpper) != len(w.Symbols) || len(paaLower) != len(w.Symbols) {
		panic("isax: MinDistDTW segment mismatch")
	}
	ratio := float64(n) / float64(len(paaUpper))
	var acc float64
	for j := range paaUpper {
		lo, hi := q.Region(w.Symbols[j], int(w.Bits[j]))
		switch {
		case paaUpper[j] < lo:
			d := lo - paaUpper[j]
			acc += d * d
		case paaLower[j] > hi:
			d := paaLower[j] - hi
			acc += d * d
		}
	}
	return acc * ratio
}

// NewDTWQueryTable precomputes a lookup table of per-segment DTW lower-bound
// contributions for a query envelope's PAA bounds (see MinDistDTW). The
// returned table's MinDistSAX then yields an envelope-based DTW lower bound
// for full-cardinality summaries, letting the DTW search reuse the same
// batched scan kernels as the Euclidean search (paper §V: DTW support with
// "no changes ... in the index structure").
func NewDTWQueryTable(q *Quantizer, paaUpper, paaLower []float64, n int) *QueryTable {
	t := &QueryTable{}
	t.FillDTW(q, paaUpper, paaLower, n)
	return t
}

// FillDTW recomputes the table in place for a new query envelope, reusing
// the arrays when the shape matches (see FillED). One pass over the
// full-cardinality breakpoints per segment: breakpoint k is the top of cell
// k and the bottom of cell k+1, the first cell has no bottom and the last no
// top. A cell is the larger of its two sides; for paaLower ≤ paaUpper —
// every point query and every envelope — at most one side is nonzero.
func (t *QueryTable) FillDTW(q *Quantizer, paaUpper, paaLower []float64, n int) {
	if len(paaUpper) != len(paaLower) {
		panic("isax: NewDTWQueryTable envelope mismatch")
	}
	segs := len(paaUpper)
	bp := q.bp[q.maxBits-1]
	card := len(bp) + 1
	t.reshape(segs, card)
	ratio := float64(n) / float64(segs)
	for j, u := range paaUpper {
		l := paaLower[j]
		cells, below, above := t.cells[j*card:][:card], t.below[j*card:][:card], t.above[j*card:][:card]
		var b float64 // cell k's below side, from breakpoint k−1
		for k, p := range bp {
			var a float64
			if l > p {
				d := l - p
				a = d * d * ratio
			}
			below[k], above[k], cells[k] = b, a, max(b, a)
			b = 0
			if u < p {
				d := p - u
				b = d * d * ratio
			}
		}
		below[card-1], above[card-1], cells[card-1] = b, 0, b
	}
}

// Inf is a convenience +Inf used by search loops.
var Inf = math.Inf(1)
