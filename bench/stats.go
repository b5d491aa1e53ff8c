package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// beyondMin is how many samples must lie beyond a reported percentile:
// with fewer, the number is a handful of outliers, not a distribution.
const beyondMin = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs,
// which must be sorted ascending. It refuses a percentile that fewer than
// beyondMin samples lie beyond, so p50 needs 20 samples, p95 200 and p99
// 1000.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < beyondMin {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, n, max(0, n-rank), beyondMin)
	}
	return sorted[rank-1], nil
}

// median returns the middle value of xs (mean of the two middle ones for an
// even count) without reordering it; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread returns the interquartile distance of xs as a share of their
// median, the quartiles being those of Python's
// statistics.quantiles(xs, n=4) — the number the driver holds against each
// metric's bound. ok is false below two samples, where no quartile exists.
func spread(xs []float64) (share float64, ok bool) {
	m := len(xs)
	if m < 2 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0, false
	}
	return (quartile(3) - quartile(1)) / math.Abs(med), true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
