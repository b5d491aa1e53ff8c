// Package vector provides the vectorized distance kernels of the paper's
// SIMD usage (§III: "MESSI uses SIMD for calculating the distances of the
// index iSAX summaries from the query iSAX summary ... and the raw data
// series from the query data series").
//
// # Implementation layers
//
// Every kernel exists twice: a pure-Go scalar implementation (the ORACLE:
// Scalar* functions, always compiled on every platform) and, on amd64
// without the purego build tag, a hand-written AVX2 assembly
// implementation. The exported kernels dispatch to the assembly when CPU
// feature detection (done once, at package init) found AVX2 support and
// ForceScalar has not been set; otherwise they run the oracle. Impl
// reports which implementation the next call will use.
//
// # The pinned summation contract
//
// The two implementations are BIT-IDENTICAL on every input — Inf and
// denormal values included — because both commit to one floating-point
// summation order, chosen so a 4-lane AVX2 register can implement it
// directly:
//
//   - Element i is accumulated into lane (i mod 4); lanes advance through
//     the input in element order, and every multiply is rounded before the
//     add consumes it (no fused multiply-add, on any platform).
//   - A result is produced by reducing the lanes as (l0+l1) + (l2+l3),
//     then folding any remaining tail elements (n mod 4) into the reduced
//     value sequentially.
//   - SquaredEDEarlyAbandon accumulates identically and additionally
//     performs the reduction after every 16 elements to compare against
//     the abandon limit; an abandoned call returns that partial reduction.
//     Because the check never perturbs the lanes, a call that never
//     abandons — any call with limit +Inf — returns the same bits as
//     SquaredED.
//   - MinDistLookup16 accumulates segment j's table cell into lane
//     (j mod 4), in segment order, and reduces the same way (tail-free:
//     w = 16 is a lane multiple). MinDistBatch at w == 16 is exactly that
//     kernel per entry; at any other width both implementations share the
//     plain sequential loop and no assembly is dispatched.
//   - EnvelopeDist accumulates segment j's term — the larger of its two
//     one-sided cells — into lane (j mod 4) at w = 16 and reduces the same
//     way, sequentially at any other width: MinDistBatch's order. Each term
//     is at most the cell of any symbol inside the envelope and rounding is
//     monotone, so the result is at most the MinDistBatch bound of every
//     entry the envelope covers, as floats, not just as reals. It has no
//     assembly form (it runs on the few leaves a two-load filter leaves
//     over), so every build runs the same code.
//
// The scalar oracle spells the product rounding out with explicit
// float64(d*d) conversions, which the Go spec defines as rounding points:
// without them the compiler may fuse the multiply-add on arm64/ppc64 and
// the oracle would stop matching itself across platforms, let alone the
// assembly. The conformance harness (internal/conformance) and the
// differential fuzz targets here and in internal/messi pin the contract:
// vectorized answers must stay bit-identical to the serial ground truth
// end to end.
//
// One carve-out, inherited from Go itself: when a result is NaN, its
// payload bits are unspecified. The Go spec does not define NaN payload
// propagation, and for a commutative add of two NaNs with different
// payloads the compiler is free to emit either operand order — x86 ADDSD
// returns its first source quieted, so the compiled oracle's payload
// choice is a register-allocation accident, not a semantic one. Both
// implementations are guaranteed to agree on WHETHER a result is NaN
// (NaN-ness is operand-order independent for every operation in these
// kernels); the tests and fuzzers therefore compare results with
// Float64bits but treat any NaN as equal to any NaN.
package vector

import "math"

// SquaredED returns the squared Euclidean distance between two equal-length
// float32 vectors, accumulated in the pinned 4-lane order documented in the
// package comment. Panics if b is shorter than a.
func SquaredED(a, b []float32) float64 {
	_ = b[len(a)-1] // one bounds check; both implementations assume it
	if useSIMD() {
		return simdSquaredED(a, b)
	}
	return scalarSquaredED(a, b)
}

// SquaredEDEarlyAbandon is SquaredED with an abandon check every 16
// elements: as soon as the reduced partial sum exceeds limit, that partial
// sum is returned. Used by the real-distance phases, where most candidates
// abandon within the first few blocks. A call that never abandons (in
// particular limit = +Inf) returns bits identical to SquaredED — the
// property the conformance harness verifies answers against.
func SquaredEDEarlyAbandon(a, b []float32, limit float64) float64 {
	_ = b[len(a)-1]
	if useSIMD() {
		return simdSquaredEDEarlyAbandon(a, b, limit)
	}
	return scalarSquaredEDEarlyAbandon(a, b, limit)
}

// MinDistLookup16 sums 16 table lookups — the per-series inner loop of the
// lower-bound scan over the SAX array when w = 16 (the paper's
// configuration). cells is the query table laid out row-major
// (segment × cardinality); sax is one 16-segment summary; card is the
// cardinality (row stride), always a power of two.
//
// Accumulation follows the pinned 4-lane order (segment j lands in lane
// j mod 4; reduce (l0+l1)+(l2+l3)), so the batched and per-entry
// refinement paths make the same pruning decisions down to the last ulp.
// Symbols are reduced modulo card (a mask with card-1), making the kernel
// total: both implementations read the same cell for any input byte.
func MinDistLookup16(cells []float64, sax []uint8, card int) float64 {
	_ = sax[15]
	_ = cells[16*card-1]
	if useSIMD() {
		var out [1]float64
		simdMinDistBatch16(cells, sax[:16], card, out[:1])
		return out[0]
	}
	return scalarMinDistLookup16(cells, sax, card)
}

// MinDistBatch computes lower bounds for a batch of w-segment summaries laid
// out back-to-back in sax, writing one bound per summary into out. At
// w == 16 each bound is the MinDistLookup16 kernel (SIMD when available);
// other widths share one sequential scalar loop. Each bound is bit-identical
// to the per-entry isax.QueryTable.MinDistSAX value — the contract the
// batched refinement hot path relies on.
func MinDistBatch(cells []float64, sax []uint8, w, card int, out []float64) {
	if w == 16 {
		if len(out) == 0 {
			return
		}
		_ = sax[len(out)*16-1]
		_ = cells[16*card-1]
		if useSIMD() {
			simdMinDistBatch16(cells, sax, card, out)
			return
		}
		for i := range out {
			out[i] = scalarMinDistLookup16(cells, sax[i*16:i*16+16], card)
		}
		return
	}
	for i := range out {
		var acc float64
		row := sax[i*w : (i+1)*w]
		for j, s := range row {
			acc += cells[j*card+int(s)]
		}
		out[i] = acc
	}
}

// EnvelopeDist bounds a whole leaf at once: env is the leaf's envelope, its
// smallest full-cardinality symbol per segment followed by its largest
// (w = len(env)/2 of each), and below and above are the query table's
// one-sided halves (isax.QueryTable.Sides), row-major with stride card.
// Segment j contributes the smallest cell over its symbol range, which is
// the larger of below[j][min] and above[j][max] because below grows with the
// symbol and above shrinks; the terms are summed in MinDistBatch's order for
// that width, so the result never exceeds the MinDistBatch bound of an entry
// inside the envelope. Symbols are reduced modulo card, as in
// MinDistLookup16. An envelope whose first segment has min > max covers
// nothing and bounds to +Inf — below no threshold, so never a candidate.
func EnvelopeDist(below, above []float64, env []uint8, card int) float64 {
	w := len(env) / 2
	lo, hi := env[:w], env[w:][:w]
	if lo[0] > hi[0] {
		return math.Inf(1)
	}
	mask := card - 1
	term := func(j int) float64 {
		b, a := below[j*card+int(lo[j])&mask], above[j*card+int(hi[j])&mask]
		if a > b {
			return a
		}
		return b
	}
	if w == 16 {
		var l0, l1, l2, l3 float64
		for k := 0; k < 16; k += 4 {
			l0 += term(k)
			l1 += term(k + 1)
			l2 += term(k + 2)
			l3 += term(k + 3)
		}
		return (l0 + l1) + (l2 + l3)
	}
	var acc float64
	for j := range lo {
		acc += term(j)
	}
	return acc
}
