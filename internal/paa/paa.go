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
func TransformInto(s series.Series, out []float64) {
	w := len(out)
	if w <= 0 || len(s) == 0 || len(s)%w != 0 {
		panic(fmt.Sprintf("paa: series length %d not a positive multiple of segments %d", len(s), w))
	}
	seg := len(s) / w
	inv := 1.0 / float64(seg)
	for j := 0; j < w; j++ {
		var sum float64
		base := j * seg
		for k := 0; k < seg; k++ {
			sum += float64(s[base+k])
		}
		out[j] = sum * inv
	}
}

// SquaredLowerBound returns the scaled squared PAA distance
// (n/w)·Σ(a_j−b_j)², which lower-bounds the squared Euclidean distance of
// the original series of length n.
func SquaredLowerBound(a, b []float64, n int) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("paa: coefficient length mismatch %d != %d", len(a), len(b)))
	}
	var acc float64
	for j := range a {
		d := a[j] - b[j]
		acc += d * d
	}
	return acc * float64(n) / float64(len(a))
}

// Valid reports whether a series of length n can be summarized with w
// segments.
func Valid(n, w int) bool { return w > 0 && n > 0 && n%w == 0 }
