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

// squaredLowerBound returns the scaled squared PAA distance
// (n/w)·Σ(a_j−b_j)², which lower-bounds the squared Euclidean distance of
// the original series of length n.
func squaredLowerBound(a, b []float64, n int) float64 {
	var acc float64
	for j := range a {
		d := a[j] - b[j]
		acc += d * d
	}
	return acc * float64(n) / float64(len(a))
}

// sequentialPAA is TransformInto's oracle: one segment at a time, each
// summed in order from zero.
func sequentialPAA(s series.Series, w int) []float64 {
	seg := len(s) / w
	inv := 1.0 / float64(seg)
	out := make([]float64, w)
	for j := range out {
		var sum float64
		for k := 0; k < seg; k++ {
			sum += float64(s[j*seg+k])
		}
		out[j] = sum * inv
	}
	return out
}

func TestTransformIntoMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for w := 1; w <= 16; w++ {
		for _, seg := range []int{1, 3, 16} {
			for _, mag := range []float64{1e-30, 1e-10, 1, 1e10, 1e30} {
				s := make(series.Series, w*seg)
				for i := range s {
					s[i] = float32(rng.NormFloat64() * mag)
				}
				got := make([]float64, w)
				TransformInto(s, got)
				for j, want := range sequentialPAA(s, w) {
					if math.Float64bits(got[j]) != math.Float64bits(want) {
						t.Fatalf("w=%d seg=%d mag=%g: segment %d = %v, sequential sum %v", w, seg, mag, j, got[j], want)
					}
				}
			}
		}
	}
}

// FuzzTransformIntoMatchesSequential: any float32 values, at any segment
// count and length, must give the bits of the one-segment-at-a-time sums.
func FuzzTransformIntoMatchesSequential(f *testing.F) {
	f.Add([]byte{}, uint8(16), uint8(16))
	f.Add([]byte{0x7f, 0x7f, 0xff, 0xff, 0x00, 0x00, 0x80, 0x01}, uint8(5), uint8(3))
	f.Add([]byte("interleaved segment sums"), uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, wRaw, segRaw uint8) {
		w, seg := 1+int(wRaw%16), 1+int(segRaw%32)
		s := make(series.Series, w*seg)
		for i := range s {
			var u uint32
			for b := 0; b < 4 && len(data) > 0; b++ {
				u = u<<8 | uint32(data[(4*i+b)%len(data)])
			}
			s[i] = math.Float32frombits(u ^ uint32(i)*0x9E3779B9)
		}
		got := make([]float64, w)
		TransformInto(s, got)
		for j, want := range sequentialPAA(s, w) {
			if math.Float64bits(got[j]) != math.Float64bits(want) {
				t.Fatalf("w=%d seg=%d: segment %d = %v, sequential sum %v", w, seg, j, got[j], want)
			}
		}
	})
}

func BenchmarkTransformInto(b *testing.B) {
	s := randomSeries(rand.New(rand.NewSource(7)), 256)
	out := make([]float64, 16)
	for i := 0; i < b.N; i++ {
		TransformInto(s, out)
	}
}

func TestLowerBoundProperty(t *testing.T) {
	// (n/w)·ED²(PAA(a),PAA(b)) ≤ ED²(a,b): the foundation of pruning.
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, w := 256, 16
		a, b := randomSeries(r, n), randomSeries(r, n)
		lb := squaredLowerBound(Transform(a, w), Transform(b, w), n)
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
		lb := squaredLowerBound(Transform(a, w), Transform(b, w), n)
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
