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
type QueryTable struct {
	segments int
	cells    []float64 // segments × 2^maxBits, row-major
	card     int
}

// NewQueryTable precomputes the lookup table for the given query PAA
// coefficients and original series length n.
func NewQueryTable(q *Quantizer, paaCoeffs []float64, n int) *QueryTable {
	t := &QueryTable{}
	t.FillED(q, paaCoeffs, n)
	return t
}

// FillED recomputes the table in place for a new query, reusing the cell
// array when the shape matches — the table is ~w·2^maxBits float64s (32KB at
// the defaults), so pooled scratch tables keep sustained query rates off the
// allocator.
func (t *QueryTable) FillED(q *Quantizer, paaCoeffs []float64, n int) {
	segs := len(paaCoeffs)
	card := 1 << q.maxBits
	t.reshape(segs, card)
	ratio := float64(n) / float64(segs)
	for j, v := range paaCoeffs {
		row := t.cells[j*card : (j+1)*card]
		for s := 0; s < card; s++ {
			lo, hi := q.Region(uint8(s), q.maxBits)
			switch {
			case v < lo:
				d := lo - v
				row[s] = d * d * ratio
			case v > hi:
				d := v - hi
				row[s] = d * d * ratio
			default:
				row[s] = 0
			}
		}
	}
}

// reshape sizes the cell array for segs × card entries, reallocating only on
// growth or shape change.
func (t *QueryTable) reshape(segs, card int) {
	t.segments, t.card = segs, card
	if cap(t.cells) >= segs*card {
		t.cells = t.cells[:segs*card]
	} else {
		t.cells = make([]float64, segs*card)
	}
}

// Cells exposes the row-major lookup table (segments × cardinality) for
// batched kernels in internal/vector. The slice must not be modified.
func (t *QueryTable) Cells() []float64 { return t.cells }

// Card returns the cardinality of the table — the row stride of Cells,
// which batched kernels need alongside the cell array.
func (t *QueryTable) Card() int { return t.card }

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

// MinDistSAXStrided computes lower bounds for a batch of summaries laid out
// back-to-back in sax (stride = segments), writing one bound per summary
// into out. Separating the batched form lets internal/vector provide an
// unrolled implementation with identical semantics.
func (t *QueryTable) MinDistSAXStrided(sax []uint8, out []float64) {
	w := t.segments
	if len(sax) != len(out)*w {
		panic(fmt.Sprintf("isax: strided batch mismatch: %d summaries of %d segments vs %d bounds",
			len(sax)/w, w, len(out)))
	}
	vector.MinDistBatch(t.cells, sax, w, t.card, out)
}

// MinDistWord returns the lower bound between the query underlying t and a
// variable-cardinality word, using region arithmetic from the quantizer.
// Node-level pruning in MESSI uses this (leaves store their words, not
// full-cardinality summaries).
func MinDistWord(q *Quantizer, paaCoeffs []float64, w Word, n int) float64 {
	return MinDist(q, paaCoeffs, w, n)
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
// the cell array when the shape matches (see FillED).
func (t *QueryTable) FillDTW(q *Quantizer, paaUpper, paaLower []float64, n int) {
	if len(paaUpper) != len(paaLower) {
		panic("isax: NewDTWQueryTable envelope mismatch")
	}
	segs := len(paaUpper)
	card := 1 << q.maxBits
	t.reshape(segs, card)
	ratio := float64(n) / float64(segs)
	for j := 0; j < segs; j++ {
		row := t.cells[j*card : (j+1)*card]
		for s := 0; s < card; s++ {
			lo, hi := q.Region(uint8(s), q.maxBits)
			switch {
			case paaUpper[j] < lo:
				d := lo - paaUpper[j]
				row[s] = d * d * ratio
			case paaLower[j] > hi:
				d := paaLower[j] - hi
				row[s] = d * d * ratio
			default:
				row[s] = 0
			}
		}
	}
}

// MultiTable extends a QueryTable to every cardinality level: cell (j, s)
// at level b holds the minimum lower-bound contribution of segment j over
// all full-cardinality symbols whose b-bit prefix is s. A node-word lower
// bound then costs one lookup per segment regardless of the word's
// cardinalities — the precomputed-distance trick the C implementations use
// to make tree-level pruning as cheap as SAX-array scanning.
//
// Because each coarse cell is the minimum over its sub-region, the bound
// remains valid (≤ the true MinDist of the word, which is itself ≤ the true
// distance); it equals MinDist exactly, since the region distance of a
// union of adjacent regions is the minimum of the member distances.
type MultiTable struct {
	segments int
	maxBits  int
	// cells holds every level back to back, level 1 first: level b starts
	// at segments×(2^b − 2) and holds segments × 2^b cells, row-major by
	// segment (see WordCell). One array, so a word's bound is Segments
	// lookups off a single base whatever cardinalities it mixes — the form
	// vector.WordDistBatch consumes.
	cells []float64
}

// WordCell returns the index in MultiTable.Cells of segment j's cell for a
// bits-bit symbol sym, in a table over the given number of segments.
func WordCell(segments, j int, sym, bits uint8) int {
	return segments*(1<<bits-2) + j<<bits + int(sym)
}

// The largest table has MaxSegments × (2^(MaxBits+1) − 2) = 8,160 cells, so
// a cell index always fits the uint16 WordCells stores.
const _ = uint16(MaxSegments * (2<<MaxBits - 2))

// WordCells writes w's cell indexes (one per segment, see WordCell) to dst:
// the query-independent half of DistWord, computed once per word so that a
// bound is a sum of table reads with no cardinality arithmetic left in it.
func WordCells(w Word, dst []uint16) {
	for j, sym := range w.Symbols {
		dst[j] = uint16(WordCell(len(w.Symbols), j, sym, w.Bits[j]))
	}
}

// NewMultiTable derives per-cardinality tables from a base full-cardinality
// table (Euclidean or DTW — any per-symbol contribution table works).
func NewMultiTable(q *Quantizer, base *QueryTable) *MultiTable {
	mt := &MultiTable{}
	mt.FillFrom(q, base)
	return mt
}

// FillFrom rederives every cardinality level from the (re)filled base table,
// reusing the backing array when the shape matches. The full-cardinality
// level is base's own cell array: the first call copies base's cells into
// place and re-points base at them, so later FillED/FillDTW calls on base
// write the top level directly and a pooled pair never copies it again.
func (mt *MultiTable) FillFrom(q *Quantizer, base *QueryTable) {
	segs, maxBits := base.segments, q.maxBits
	mt.segments, mt.maxBits = segs, maxBits
	top, n := WordCell(segs, 0, 0, uint8(maxBits)), segs*(2<<maxBits-2)
	if len(mt.cells) != n {
		mt.cells = make([]float64, n)
	}
	if &base.cells[0] != &mt.cells[top] {
		copy(mt.cells[top:], base.cells)
		base.cells = mt.cells[top:n:n]
	}
	for b := maxBits - 1; b >= 1; b-- {
		card := 1 << b
		below := mt.cells[WordCell(segs, 0, 0, uint8(b+1)):]
		cells := mt.cells[WordCell(segs, 0, 0, uint8(b)):]
		for j := 0; j < segs; j++ {
			for s := 0; s < card; s++ {
				lo := below[j*2*card+2*s]
				hi := below[j*2*card+2*s+1]
				if hi < lo {
					lo = hi
				}
				cells[j*card+s] = lo
			}
		}
	}
}

// Cells exposes the flat all-levels table, indexed by WordCell, for
// batched kernels in internal/vector. The slice must not be modified.
func (mt *MultiTable) Cells() []float64 { return mt.cells }

// DistWord returns the lower bound between the table's query and a
// variable-cardinality word: one lookup per segment, summed in segment
// order.
func (mt *MultiTable) DistWord(w Word) float64 {
	var acc float64
	for j, sym := range w.Symbols {
		acc += mt.cells[WordCell(mt.segments, j, sym, w.Bits[j])]
	}
	return acc
}

// DistSAX returns the full-cardinality bound (equivalent to the base
// table's MinDistSAX — at w = 16 both delegate to the same vector kernel,
// keeping the equivalence bit-exact under either dispatch choice).
func (mt *MultiTable) DistSAX(fullSAX []uint8) float64 {
	cells := mt.cells[WordCell(mt.segments, 0, 0, uint8(mt.maxBits)):]
	card := 1 << mt.maxBits
	if len(fullSAX) == 16 && mt.segments == 16 {
		return vector.MinDistLookup16(cells, fullSAX, card)
	}
	var acc float64
	for j, s := range fullSAX {
		acc += cells[j*card+int(s)]
	}
	return acc
}

// Inf is a convenience +Inf used by search loops.
var Inf = math.Inf(1)
