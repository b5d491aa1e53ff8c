package series

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDTWIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, w := range []int{0, 1, 5, -1} {
		s := randomSeries(rng, 64)
		if d := DTW(s, s, w, math.Inf(1), new([]float64)); d != 0 {
			t.Errorf("DTW(s,s,window=%d) = %v, want 0", w, d)
		}
	}
}

func TestDTWZeroWindowIsED(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		a, b := randomSeries(rng, 100), randomSeries(rng, 100)
		dtw := DTW(a, b, 0, math.Inf(1), new([]float64))
		ed := SquaredED(a, b)
		if !almostEqual(dtw, ed, 1e-9) {
			t.Fatalf("DTW window 0 = %v, SquaredED = %v", dtw, ed)
		}
	}
}

func TestDTWNeverExceedsED(t *testing.T) {
	// Widening the band can only decrease the optimum.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		a, b := randomSeries(rng, 80), randomSeries(rng, 80)
		ed := SquaredED(a, b)
		prev := ed
		for _, w := range []int{1, 2, 5, 10, 80} {
			d := DTW(a, b, w, math.Inf(1), new([]float64))
			if d > prev+1e-9 {
				t.Fatalf("DTW with window %d = %v exceeds smaller-window value %v", w, d, prev)
			}
			prev = d
		}
	}
}

func TestDTWKnownAlignment(t *testing.T) {
	// b is a shifted by one position; a one-step warp aligns all but the
	// boundary, so DTW should be far below ED.
	a := Series{0, 1, 2, 3, 4, 5, 6, 7}
	b := Series{0, 0, 1, 2, 3, 4, 5, 6}
	dtw := DTW(a, b, 2, math.Inf(1), new([]float64))
	ed := SquaredED(a, b)
	if dtw >= ed {
		t.Fatalf("DTW = %v not below ED = %v for shifted series", dtw, ed)
	}
	if !almostEqual(dtw, 1, 1e-9) {
		t.Errorf("DTW = %v, want 1 (single boundary mismatch)", dtw)
	}
}

func TestDTWEmptyAndMismatched(t *testing.T) {
	if d := DTW(Series{}, Series{1}, 1, math.Inf(1), new([]float64)); !math.IsInf(d, 1) {
		t.Errorf("DTW with empty input = %v, want +Inf", d)
	}
	// Band narrower than the length difference: no path.
	if d := DTW(make(Series, 10), make(Series, 20), 3, math.Inf(1), new([]float64)); !math.IsInf(d, 1) {
		t.Errorf("DTW with impossible band = %v, want +Inf", d)
	}
}

func TestDTWEarlyAbandonConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		a, b := randomSeries(rng, 64), randomSeries(rng, 64)
		full := DTW(a, b, 8, math.Inf(1), new([]float64))
		got := DTW(a, b, 8, full/3, new([]float64))
		if got <= full/3 && !almostEqual(got, full, 1e-9) {
			t.Fatalf("abandoned DTW returned %v <= limit but full is %v", got, full)
		}
	}
}

func TestEnvelopeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	q := randomSeries(rng, 128)
	for _, w := range []int{0, 1, 7, 128} {
		env := NewEnvelope(q, w)
		for i := range q {
			if env.Lower[i] > q[i] || env.Upper[i] < q[i] {
				t.Fatalf("window %d: envelope does not contain q at %d: [%v,%v] vs %v",
					w, i, env.Lower[i], env.Upper[i], q[i])
			}
		}
	}
}

func TestEnvelopeZeroWindowIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	q := randomSeries(rng, 32)
	env := NewEnvelope(q, 0)
	for i := range q {
		if env.Upper[i] != q[i] || env.Lower[i] != q[i] {
			t.Fatalf("zero-window envelope differs from q at %d", i)
		}
	}
}

func TestLBKeoghLowerBoundsDTW(t *testing.T) {
	// The load-bearing invariant of the DTW cascade.
	rng := rand.New(rand.NewSource(16))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q, s := randomSeries(r, 96), randomSeries(r, 96)
		w := r.Intn(20)
		env := NewEnvelope(q, w)
		lb := LBKeogh(env, s, math.Inf(1))
		dtw := DTW(q, s, w, math.Inf(1), new([]float64))
		return lb <= dtw+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestLBKeoghZeroForSeriesInsideEnvelope(t *testing.T) {
	q := Series{0, 1, 2, 3, 4}
	env := NewEnvelope(q, 2)
	if lb := LBKeogh(env, q, math.Inf(1)); lb != 0 {
		t.Errorf("LBKeogh of query against own envelope = %v, want 0", lb)
	}
}

func TestLBKeoghEarlyAbandon(t *testing.T) {
	q := make(Series, 64)
	s := make(Series, 64)
	for i := range s {
		s[i] = 100 // far outside envelope of zeros
	}
	env := NewEnvelope(q, 3)
	got := LBKeogh(env, s, 5)
	if got <= 5 {
		t.Errorf("expected early-abandoned value > 5, got %v", got)
	}
	full := LBKeogh(env, s, math.Inf(1))
	if full != 64*100*100 {
		t.Errorf("full LBKeogh = %v, want %v", full, 64*100*100)
	}
}

// TestDTWReusesRows: one rows buffer, grown on the first call, serves every
// later call — longer and shorter series alike — with answers equal to a
// fresh buffer's and no allocation.
func TestDTWReusesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var rows []float64
	for _, n := range []int{96, 32, 96, 64} {
		a, b := randomSeries(rng, n), randomSeries(rng, n)
		for _, w := range []int{0, 3, -1} {
			if got, want := DTW(a, b, w, math.Inf(1), &rows), DTW(a, b, w, math.Inf(1), new([]float64)); got != want {
				t.Fatalf("n=%d window %d: reused rows give %v, fresh rows %v", n, w, got, want)
			}
		}
	}
	a, b := randomSeries(rng, 96), randomSeries(rng, 96)
	if allocs := testing.AllocsPerRun(10, func() { DTW(a, b, 4, math.Inf(1), &rows) }); allocs != 0 {
		t.Fatalf("DTW over grown rows allocates %v times", allocs)
	}
}
