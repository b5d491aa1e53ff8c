// Package isax implements the indexable Symbolic Aggregate approXimation
// (iSAX) representation (paper §II, Figure 1(c)) used by the ADS+, ParIS,
// ParIS+ and MESSI indexes.
//
// iSAX discretizes the PAA coefficients of a series: the value axis is cut
// into regions by the quantiles of the standard normal distribution (data
// series are z-normalized, so their values are approximately N(0,1)), and
// each PAA coefficient is replaced by the symbol of the region it falls in.
// Each segment may use a different cardinality (number of regions); a
// cardinality of 2^b needs b bits. Symbols are nested: the b-bit symbol of a
// value is the top b bits of its maxBits-bit symbol, which is what lets a
// leaf split by "promoting" one segment to one more bit.
//
// The package also provides MinDist, the lower-bounding distance between a
// query (as PAA coefficients) and an iSAX word, and a per-query lookup table
// that makes scanning millions of full-cardinality summaries cheap.
package isax

import (
	"fmt"
	"math"
)

// MaxBits is the maximum cardinality in bits supported per segment: 8 bits =
// cardinality 256, the configuration used by the paper and by iSAX2+/ADS+.
const MaxBits = 8

// MaxSegments bounds the number of PAA segments. The root fan-out of the
// index keys on one bit per segment, so 16 segments (the paper's w) already
// yields 2^16 root subtrees; allowing more would explode the root array.
const MaxSegments = 16

// gridCells is the number of uniform cells SymbolsInto lays over
// [bp[0], bp[last]] of the maxBits table. At 8 bits the 255 normal
// quantiles span about ±2.66 and sit at least 0.0098 apart (near 0), so a
// cell (0.0013 wide) holds at most one breakpoint and the exact scan after
// the table lookup is one comparison, two when a breakpoint shares v's cell.
// Measured with BenchmarkSymbolsInto (16 N(0,1) coefficients per call,
// Xeon, 2 vCPUs, five runs each): 1024 cells 78–99 ns, 2048 57–68 ns, 4096
// 42–58 ns, 8192 38–40 ns, 16384 36–55 ns; a binary search per coefficient
// took 987–1042 ns. Past 4096 the gain is small and the table outgrows 4
// KiB; a 200,000 × 256 build's stage 1 read about 50 ms at 2048, 4096 and
// 8192 alike, bound by reading the series.
const gridCells = 4096

// Quantizer holds the nested breakpoint tables for every cardinality from
// 2^1 to 2^maxBits and performs value→symbol assignment. A Quantizer is
// immutable after construction and safe for concurrent use.
type Quantizer struct {
	maxBits int
	// bp[b] has 2^(b+1)-1 sorted breakpoints for cardinality 2^(b+1)
	// (index 0 ↔ 1 bit). All tables are subsamples of the maxBits table, so
	// symbol prefixes are consistent across cardinalities by construction.
	bp [][]float64

	// The grid SymbolsInto starts from: value v falls in cell
	// (v−gridLo)·gridScale, and gridLUT[c] is a lower bound on the symbol of
	// every value in cell c (see buildGrid).
	gridLo, gridScale float64
	gridLUT           [gridCells + 1]uint8
}

// NewQuantizer builds breakpoint tables for cardinalities up to 2^maxBits.
func NewQuantizer(maxBits int) (*Quantizer, error) {
	if maxBits < 1 || maxBits > MaxBits {
		return nil, fmt.Errorf("isax: maxBits %d out of range [1,%d]", maxBits, MaxBits)
	}
	full := normalBreakpoints(maxBits)
	q := &Quantizer{maxBits: maxBits, bp: make([][]float64, maxBits)}
	q.bp[maxBits-1] = full
	for b := 1; b < maxBits; b++ {
		step := 1 << (maxBits - b) // take every step-th quantile
		sub := make([]float64, (1<<b)-1)
		for k := range sub {
			sub[k] = full[(k+1)*step-1]
		}
		q.bp[b-1] = sub
	}
	q.buildGrid()
	return q, nil
}

// buildGrid fills the symbolizer's grid from the maxBits table's own
// breakpoints, through the same cell expression SymbolsInto evaluates:
// gridLUT[c] is the number of breakpoints whose cell is below c.
//
// That count is a lower bound on the symbol of any v in cell c. The map
// v ↦ fl(fl(v−lo)·scale) is monotone non-decreasing: subtracting a
// constant and multiplying by a positive constant are monotone, and
// round-to-nearest preserves monotonicity. The cell function (clamp to
// [0, gridCells], truncate) is monotone too. So a breakpoint with
// bp[i] > v has cell(bp[i]) ≥ cell(v) = c; conversely every breakpoint
// whose cell is below c is ≤ v. Those breakpoints are a prefix of the
// sorted table, of length gridLUT[c], and the symbol — the number of
// breakpoints ≤ v — is at least that. The forward scan in SymbolsInto
// then finds it exactly. Nothing here depends on which cell a breakpoint
// rounds into, only on both sides rounding through one expression.
func (q *Quantizer) buildGrid() {
	bp := q.bp[q.maxBits-1]
	lo, span := bp[0], bp[len(bp)-1]-bp[0]
	if span == 0 {
		span = 1 // one breakpoint (maxBits 1): any positive scale serves
	}
	q.gridLo, q.gridScale = lo, gridCells/span
	for _, b := range bp {
		if c := q.cell(b) + 1; c <= gridCells {
			q.gridLUT[c]++
		}
	}
	for c := 1; c <= gridCells; c++ {
		q.gridLUT[c] += q.gridLUT[c-1]
	}
}

// cell maps v to its grid cell in [0, gridCells]. Below the grid is cell
// 0; at or past its top, +Inf included, is cell gridCells (never
// int(+Inf)). A NaN goes to cell gridCells too: no breakpoint is above it,
// so the scan runs on to the last symbol from any start.
func (q *Quantizer) cell(v float64) int {
	x := (v - q.gridLo) * q.gridScale
	switch {
	case !(x >= 0):
		if x != x {
			return gridCells
		}
		return 0
	case x >= gridCells:
		return gridCells
	}
	return int(x)
}

// normalBreakpoints returns the 2^bits−1 quantiles of N(0,1) that cut the
// real line into 2^bits equiprobable regions.
func normalBreakpoints(bits int) []float64 {
	card := 1 << bits
	bp := make([]float64, card-1)
	for k := 1; k < card; k++ {
		bp[k-1] = normalQuantile(float64(k) / float64(card))
	}
	return bp
}

// normalQuantile computes Φ⁻¹(p) for p in (0,1) using Acklam's rational
// approximation refined by one Halley step; absolute error below 1e-13,
// far beyond what symbol assignment needs.
func normalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("isax: quantile argument %v out of (0,1)", p))
	}
	const (
		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((-7.784894002430293e-03*q-3.223964580411365e-01)*q-2.400758277161838e+00)*q-2.549732539343734e+00)*q+4.374664141464968e+00)*q + 2.938163982698783e+00) /
			((((7.784695709041462e-03*q+3.224671290700398e-01)*q+2.445134137142996e+00)*q+3.754408661907416e+00)*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		x = (((((-3.969683028665376e+01*r+2.209460984245205e+02)*r-2.759285104469687e+02)*r+1.383577518672690e+02)*r-3.066479806614716e+01)*r + 2.506628277459239e+00) * q /
			(((((-5.447609879822406e+01*r+1.615858368580409e+02)*r-1.556989798598866e+02)*r+6.680131188771972e+01)*r-1.328068155288572e+01)*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((-7.784894002430293e-03*q-3.223964580411365e-01)*q-2.400758277161838e+00)*q-2.549732539343734e+00)*q+4.374664141464968e+00)*q + 2.938163982698783e+00) /
			((((7.784695709041462e-03*q+3.224671290700398e-01)*q+2.445134137142996e+00)*q+3.754408661907416e+00)*q + 1)
	}
	// One Halley refinement using erfc for the forward CDF.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}

// Breakpoints returns the sorted breakpoint slice for the given cardinality
// bits (1..maxBits). The returned slice is shared and must not be modified.
func (q *Quantizer) Breakpoints(bits int) []float64 {
	if bits < 1 || bits > q.maxBits {
		panic(fmt.Sprintf("isax: breakpoint bits %d out of range [1,%d]", bits, q.maxBits))
	}
	return q.bp[bits-1]
}

// SymbolsInto assigns the maxBits-cardinality symbol for each PAA
// coefficient into out (len(out) == len(paaCoeffs)): the number of
// breakpoints ≤ v, i.e. the index of the region containing v, and the last
// symbol for a NaN. This is the hot path of the bulk-loading stages and of
// every query's summary; it allocates nothing. The grid gives a lower bound
// on the symbol and a short forward scan makes it exact (see buildGrid).
func (q *Quantizer) SymbolsInto(paaCoeffs []float64, out []uint8) {
	if len(paaCoeffs) != len(out) {
		panic(fmt.Sprintf("isax: SymbolsInto length mismatch %d != %d", len(paaCoeffs), len(out)))
	}
	bp := q.bp[q.maxBits-1]
	for j, v := range paaCoeffs {
		i := int(q.gridLUT[q.cell(v)])
		for i < len(bp) && !(bp[i] > v) {
			i++
		}
		out[j] = uint8(i)
	}
}

// Region returns the half-open value interval [lo, hi) covered by symbol sym
// at the given cardinality bits. The first region has lo = -Inf and the last
// has hi = +Inf.
func (q *Quantizer) Region(sym uint8, bits int) (lo, hi float64) {
	bp := q.Breakpoints(bits)
	card := 1 << bits
	if int(sym) >= card {
		panic(fmt.Sprintf("isax: symbol %d out of range for %d bits", sym, bits))
	}
	lo, hi = math.Inf(-1), math.Inf(1)
	if sym > 0 {
		lo = bp[sym-1]
	}
	if int(sym) < card-1 {
		hi = bp[sym]
	}
	return lo, hi
}
