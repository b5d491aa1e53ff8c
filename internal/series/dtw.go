package series

import (
	"fmt"
	"math"
)

// This file implements dynamic time warping (DTW) and the LB_Keogh lower
// bound, supporting the paper's §V extension: answering DTW similarity
// queries on the same iSAX index used for Euclidean queries, with no change
// to the index structure.

// DTW returns the squared DTW distance between a and b under a Sakoe-Chiba
// band of half-width window (window < 0 means unconstrained). A window of 0
// degenerates to the squared Euclidean distance.
//
// The implementation uses the standard O(n·w) two-row dynamic program with
// early termination when an entire row exceeds limit (pass math.Inf(1) to
// disable early abandoning). rows holds the program's two rows between
// calls: DTW grows it when it is shorter than 2·(len(b)+1), so a caller
// that keeps one per goroutine pays no allocation after the first call.
func DTW(a, b Series, window int, limit float64, rows *[]float64) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	if window < 0 {
		window = max(n, m)
	}
	// The band must be at least |n-m| wide for any warping path to exist.
	if d := n - m; d > window || -d > window {
		return math.Inf(1)
	}

	const inf = math.MaxFloat64
	if len(*rows) < 2*(m+1) {
		*rows = make([]float64, 2*(m+1))
	}
	prev, curr := (*rows)[:m+1], (*rows)[m+1:2*(m+1)]
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0

	for i := 1; i <= n; i++ {
		lo := max(1, i-window)
		hi := min(m, i+window)
		for j := 0; j <= m; j++ {
			curr[j] = inf
		}
		rowMin := inf
		for j := lo; j <= hi; j++ {
			d := float64(a[i-1]) - float64(b[j-1])
			cost := d * d
			best := prev[j] // insertion
			if prev[j-1] < best {
				best = prev[j-1] // match
			}
			if curr[j-1] < best {
				best = curr[j-1] // deletion
			}
			curr[j] = cost + best
			if curr[j] < rowMin {
				rowMin = curr[j]
			}
		}
		if rowMin > limit {
			return rowMin
		}
		prev, curr = curr, prev
	}
	return prev[m]
}

// Envelope holds the upper and lower warping envelopes of a query series:
// for each position i, Upper[i] = max(q[i-w..i+w]) and Lower[i] is the
// corresponding min. LB_Keogh compares candidate values against this band.
type Envelope struct {
	Upper Series
	Lower Series
}

// NewEnvelope computes the warping envelope of q for a Sakoe-Chiba band of
// half-width window. The envelope is computed once per query, so the simple
// O(n·window) sweep is never a measurable cost.
func NewEnvelope(q Series, window int) *Envelope {
	n := len(q)
	env := &Envelope{Upper: make(Series, n), Lower: make(Series, n)}
	if window < 0 {
		window = n
	}
	for i := 0; i < n; i++ {
		lo := max(0, i-window)
		hi := min(n-1, i+window)
		up, down := q[lo], q[lo]
		for j := lo + 1; j <= hi; j++ {
			if q[j] > up {
				up = q[j]
			}
			if q[j] < down {
				down = q[j]
			}
		}
		env.Upper[i], env.Lower[i] = up, down
	}
	return env
}

// LBKeogh returns the squared LB_Keogh lower bound of DTW(q, s) where env is
// the envelope of q. Early-abandons once the partial sum exceeds limit.
//
// Invariant (property-tested): LBKeogh(env(q), s) ≤ DTW(q, s, window).
func LBKeogh(env *Envelope, s Series, limit float64) float64 {
	if len(env.Upper) != len(s) {
		panic(fmt.Sprintf("series: LBKeogh length mismatch %d != %d", len(env.Upper), len(s)))
	}
	var acc float64
	for i, v := range s {
		switch {
		case v > env.Upper[i]:
			d := float64(v) - float64(env.Upper[i])
			acc += d * d
		case v < env.Lower[i]:
			d := float64(v) - float64(env.Lower[i])
			acc += d * d
		}
		if acc > limit {
			return acc
		}
	}
	return acc
}
