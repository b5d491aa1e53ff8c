package series

import (
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func randomSeries(rng *rand.Rand, n int) Series {
	s := make(Series, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

func TestMeanStddev(t *testing.T) {
	tests := []struct {
		name string
		s    Series
		mean float64
		sd   float64
	}{
		{"empty", Series{}, 0, 0},
		{"single", Series{5}, 5, 0},
		{"constant", Series{2, 2, 2, 2}, 2, 0},
		{"simple", Series{1, 2, 3, 4}, 2.5, math.Sqrt(1.25)},
		{"negative", Series{-1, 1}, 0, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.s.Mean(); !almostEqual(got, tc.mean, 1e-9) {
				t.Errorf("Mean() = %v, want %v", got, tc.mean)
			}
			if got := tc.s.Stddev(); !almostEqual(got, tc.sd, 1e-9) {
				t.Errorf("Stddev() = %v, want %v", got, tc.sd)
			}
		})
	}
}

func TestZNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := randomSeries(rng, 256)
	for i := range s {
		s[i] = s[i]*3 + 7 // skew mean and variance
	}
	z := s.ZNormalize()
	if !almostEqual(z.Mean(), 0, 1e-5) {
		t.Errorf("z-normalized mean = %v, want 0", z.Mean())
	}
	if !almostEqual(z.Stddev(), 1, 1e-5) {
		t.Errorf("z-normalized stddev = %v, want 1", z.Stddev())
	}
}

func TestZNormalizeConstant(t *testing.T) {
	s := Series{3, 3, 3}
	z := s.ZNormalize()
	for i, v := range z {
		if v != 0 {
			t.Errorf("z[%d] = %v, want 0 for constant series", i, v)
		}
	}
}

func TestZNormalizeInPlaceMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randomSeries(rng, 64)
	want := s.ZNormalize()
	got := s.Clone()
	got.ZNormalizeInPlace()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("in-place[%d] = %v, copy = %v", i, got[i], want[i])
		}
	}
}

func TestSquaredED(t *testing.T) {
	a := Series{0, 0, 0}
	b := Series{1, 2, 2}
	if got := SquaredED(a, b); got != 9 {
		t.Errorf("SquaredED = %v, want 9", got)
	}
	if got := ED(a, b); got != 3 {
		t.Errorf("ED = %v, want 3", got)
	}
	if got := SquaredED(a, a); got != 0 {
		t.Errorf("SquaredED(a,a) = %v, want 0", got)
	}
}

func TestSquaredEDPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	SquaredED(Series{1}, Series{1, 2})
}

func TestCollectionBasics(t *testing.T) {
	c := NewCollection(3, 4)
	if c.Len() != 3 || c.SeriesLen() != 4 {
		t.Fatalf("shape = (%d,%d), want (3,4)", c.Len(), c.SeriesLen())
	}
	c.Set(1, Series{1, 2, 3, 4})
	got := c.At(1)
	for i, want := range []float32{1, 2, 3, 4} {
		if got[i] != want {
			t.Errorf("At(1)[%d] = %v, want %v", i, got[i], want)
		}
	}
	// Slot 0 and 2 untouched.
	for _, i := range []int{0, 2} {
		for j, v := range c.At(i) {
			if v != 0 {
				t.Errorf("At(%d)[%d] = %v, want 0", i, j, v)
			}
		}
	}
}

func TestCollectionFromValues(t *testing.T) {
	c, err := CollectionFromValues([]float32{1, 2, 3, 4, 5, 6}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if c.At(1)[0] != 4 {
		t.Errorf("At(1)[0] = %v, want 4", c.At(1)[0])
	}
	if _, err := CollectionFromValues([]float32{1, 2, 3, 4, 5}, 3); err == nil {
		t.Error("expected error for non-divisible values")
	}
	if _, err := CollectionFromValues(nil, 0); err == nil {
		t.Error("expected error for zero length")
	}
}

func TestCollectionAppend(t *testing.T) {
	c := NewCollection(0, 2)
	i := c.Append(Series{1, 2})
	j := c.Append(Series{3, 4})
	if i != 0 || j != 1 {
		t.Fatalf("Append returned %d,%d want 0,1", i, j)
	}
	if c.At(1)[1] != 4 {
		t.Errorf("At(1)[1] = %v, want 4", c.At(1)[1])
	}
}

func TestCollectionSlice(t *testing.T) {
	c := NewCollection(5, 2)
	for i := 0; i < 5; i++ {
		c.Set(i, Series{float32(i), float32(i)})
	}
	s := c.Slice(1, 4)
	if s.Len() != 3 {
		t.Fatalf("Slice len = %d, want 3", s.Len())
	}
	if s.At(0)[0] != 1 || s.At(2)[0] != 3 {
		t.Errorf("Slice contents wrong: %v %v", s.At(0), s.At(2))
	}
}

func TestBruteForce1NN(t *testing.T) {
	c := NewCollection(4, 3)
	c.Set(0, Series{10, 10, 10})
	c.Set(1, Series{1, 1, 1})
	c.Set(2, Series{5, 5, 5})
	c.Set(3, Series{0.5, 0.5, 0.5})
	idx, d := c.BruteForce1NN(Series{0, 0, 0})
	if idx != 3 {
		t.Errorf("1NN index = %d, want 3", idx)
	}
	if !almostEqual(d, 0.75, 1e-9) {
		t.Errorf("1NN dist = %v, want 0.75", d)
	}
}

func TestBruteForce1NNEmpty(t *testing.T) {
	c := NewCollection(0, 3)
	idx, d := c.BruteForce1NN(Series{0, 0, 0})
	if idx != -1 || !math.IsInf(d, 1) {
		t.Errorf("empty 1NN = (%d,%v), want (-1,+Inf)", idx, d)
	}
}
