package xsync

import (
	"math/rand"
	"slices"
	"testing"
)

// TestKBestTiesKeepLowestPositions: among equidistant candidates the set
// keeps the lowest positions and reports them in position order, whatever
// order they are offered in.
func TestKBestTiesKeepLowestPositions(t *testing.T) {
	offers := []KBestEntry{{9, 2}, {4, 2}, {7, 2}, {1, 2}, {3, 1}, {8, 5}, {2, 5}}
	want := []KBestEntry{{3, 1}, {1, 2}, {4, 2}, {7, 2}}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		rng.Shuffle(len(offers), func(i, j int) { offers[i], offers[j] = offers[j], offers[i] })
		kb := NewKBest(len(want))
		for _, e := range offers {
			kb.Offer(e.Pos, e.Dist)
			kb.Offer(e.Pos, e.Dist) // a position offered twice counts once
		}
		if got := kb.Sorted(); !slices.Equal(got, want) {
			t.Fatalf("offered %v: kept %v, want %v", offers, got, want)
		}
		if thr := kb.Threshold(); thr != 2 {
			t.Fatalf("threshold %v, want the k-th distance 2", thr)
		}
	}
}
