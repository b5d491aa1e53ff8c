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
	"sort"
)

// MaxBits is the maximum cardinality in bits supported per segment: 8 bits =
// cardinality 256, the configuration used by the paper and by iSAX2+/ADS+.
const MaxBits = 8

// MaxSegments bounds the number of PAA segments. The root fan-out of the
// index keys on one bit per segment, so 16 segments (the paper's w) already
// yields 2^16 root subtrees; allowing more would explode the root array.
const MaxSegments = 16

// Quantizer holds the nested breakpoint tables for every cardinality from
// 2^1 to 2^maxBits and performs value→symbol assignment. A Quantizer is
// immutable after construction and safe for concurrent use.
type Quantizer struct {
	maxBits int
	// bp[b] has 2^(b+1)-1 sorted breakpoints for cardinality 2^(b+1)
	// (index 0 ↔ 1 bit). All tables are subsamples of the maxBits table, so
	// symbol prefixes are consistent across cardinalities by construction.
	bp [][]float64
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
	return q, nil
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

// Symbol returns the symbol of value v at the given cardinality bits:
// the number of breakpoints ≤ v, i.e. the index of the region containing v.
func (q *Quantizer) Symbol(v float64, bits int) uint8 {
	bp := q.Breakpoints(bits)
	// First index with bp[i] > v; equals the count of breakpoints <= v.
	i := sort.Search(len(bp), func(i int) bool { return bp[i] > v })
	return uint8(i)
}

// SymbolsInto assigns the maxBits-cardinality symbol for each PAA
// coefficient into out (len(out) == len(paaCoeffs)). This is the hot path of
// the bulk-loading stages; it allocates nothing.
func (q *Quantizer) SymbolsInto(paaCoeffs []float64, out []uint8) {
	if len(paaCoeffs) != len(out) {
		panic(fmt.Sprintf("isax: SymbolsInto length mismatch %d != %d", len(paaCoeffs), len(out)))
	}
	bp := q.bp[q.maxBits-1]
	for j, v := range paaCoeffs {
		i := sort.Search(len(bp), func(i int) bool { return bp[i] > v })
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
