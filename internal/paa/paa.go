// Package paa implements Piecewise Aggregate Approximation (PAA), the first
// half of the iSAX summarization pipeline (paper §II, Figure 1(b)).
//
// PAA divides a series of length n into w segments of equal length and
// represents each segment by the mean of its points. The classical bound
//
//	ED(a, b) >= sqrt(n/w) * ED(PAA(a), PAA(b))
//
// is what makes PAA (and everything built on it) usable for exact search.
package paa

import (
	"fmt"

	"dsidx/internal/series"
)

// Transform computes the w-segment PAA of s. The series length must be a
// positive multiple of w; all indexes in this repository validate series
// length at construction, so Transform panics rather than returning an error.
func Transform(s series.Series, w int) []float64 {
	out := make([]float64, w)
	TransformInto(s, out)
	return out
}

// TransformInto computes the PAA of s into out, whose length determines the
// segment count. It performs no allocation, so the per-series hot paths of
// the bulk-loading stages can reuse one buffer per worker.
//
// Segments are summed four at a time, in four independent accumulators, so
// the additions of one segment need not wait on the previous addition's
// latency. Each accumulator still adds its own segment's values in order
// from zero, so every mean is bit-identical to a one-segment-at-a-time sum.
func TransformInto(s series.Series, out []float64) {
	w := len(out)
	if w <= 0 || len(s) == 0 || len(s)%w != 0 {
		panic(fmt.Sprintf("paa: series length %d not a positive multiple of segments %d", len(s), w))
	}
	seg := len(s) / w
	inv := 1.0 / float64(seg)
	j := 0
	for ; j+4 <= w; j += 4 {
		s0 := s[j*seg : (j+1)*seg]
		s1 := s[(j+1)*seg : (j+2)*seg][:len(s0)]
		s2 := s[(j+2)*seg : (j+3)*seg][:len(s0)]
		s3 := s[(j+3)*seg : (j+4)*seg][:len(s0)]
		var a0, a1, a2, a3 float64
		for k := range s0 {
			a0 += float64(s0[k])
			a1 += float64(s1[k])
			a2 += float64(s2[k])
			a3 += float64(s3[k])
		}
		out[j], out[j+1], out[j+2], out[j+3] = a0*inv, a1*inv, a2*inv, a3*inv
	}
	for ; j < w; j++ {
		var sum float64
		for _, v := range s[j*seg : (j+1)*seg] {
			sum += float64(v)
		}
		out[j] = sum * inv
	}
}

// Valid reports whether a series of length n can be summarized with w
// segments.
func Valid(n, w int) bool { return w > 0 && n > 0 && n%w == 0 }
