package paa

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dsidx/internal/series"
)

func randomSeries(rng *rand.Rand, n int) series.Series {
	s := make(series.Series, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

func TestTransformKnown(t *testing.T) {
	s := series.Series{1, 1, 2, 2, 3, 3, 4, 4}
	got := Transform(s, 4)
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("coeff[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTransformSingleSegmentIsMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := randomSeries(rng, 64)
	got := Transform(s, 1)
	if math.Abs(got[0]-s.Mean()) > 1e-9 {
		t.Errorf("single segment PAA = %v, want mean %v", got[0], s.Mean())
	}
}

func TestTransformFullResolutionIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randomSeries(rng, 16)
	got := Transform(s, 16)
	for i := range s {
		if math.Abs(got[i]-float64(s[i])) > 1e-6 {
			t.Errorf("coeff[%d] = %v, want %v", i, got[i], s[i])
		}
	}
}

func TestTransformPanicsOnBadShape(t *testing.T) {
	cases := []struct {
		n, w int
	}{{10, 3}, {0, 4}, {8, 0}, {4, 8}}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d w=%d: expected panic", tc.n, tc.w)
				}
			}()
			Transform(make(series.Series, tc.n), tc.w)
		}()
	}
}

func TestTransformIntoMatchesTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomSeries(rng, 256)
	buf := make([]float64, 16)
	TransformInto(s, buf)
	want := Transform(s, 16)
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("TransformInto[%d] = %v, Transform = %v", i, buf[i], want[i])
		}
	}
}

func TestLowerBoundProperty(t *testing.T) {
	// (n/w)·ED²(PAA(a),PAA(b)) ≤ ED²(a,b): the foundation of pruning.
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, w := 256, 16
		a, b := randomSeries(r, n), randomSeries(r, n)
		lb := SquaredLowerBound(Transform(a, w), Transform(b, w), n)
		return lb <= series.SquaredED(a, b)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestLowerBoundTightensWithResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 256
	a, b := randomSeries(rng, n), randomSeries(rng, n)
	prev := 0.0
	for _, w := range []int{1, 2, 4, 8, 16, 32} {
		lb := SquaredLowerBound(Transform(a, w), Transform(b, w), n)
		if lb+1e-9 < prev {
			t.Fatalf("lower bound decreased from %v to %v at w=%d", prev, lb, w)
		}
		prev = lb
	}
}

func TestValid(t *testing.T) {
	cases := []struct {
		n, w int
		want bool
	}{{256, 16, true}, {128, 16, true}, {100, 16, false}, {0, 16, false}, {16, 0, false}, {8, 16, false}}
	for _, tc := range cases {
		if got := Valid(tc.n, tc.w); got != tc.want {
			t.Errorf("Valid(%d,%d) = %v, want %v", tc.n, tc.w, got, tc.want)
		}
	}
}
