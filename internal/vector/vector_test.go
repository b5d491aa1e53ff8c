package vector

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func TestSquaredEDMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 128, 256, 255} {
		a, b := randVec(rng, n), randVec(rng, n)
		want := ScalarSquaredED(a, b)
		if got := SquaredED(a, b); math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Errorf("n=%d: SquaredED %v vs scalar %v", n, got, want)
		}
		if got := SquaredEDUnrolled(a, b); math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Errorf("n=%d: unrolled %v vs scalar %v", n, got, want)
		}
	}
}

func TestSquaredEDZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randVec(rng, 64)
	if got := SquaredED(a, a); got != 0 {
		t.Errorf("SquaredED(a,a) = %v, want 0", got)
	}
}

func TestEarlyAbandonMatchesFullWhenUnderLimit(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, b := randVec(r, n), randVec(r, n)
		full := SquaredED(a, b)
		got := SquaredEDEarlyAbandon(a, b, math.Inf(1))
		return math.Abs(got-full) <= 1e-9*math.Max(1, full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEarlyAbandonExceedsLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		a, b := randVec(rng, 256), randVec(rng, 256)
		full := ScalarSquaredED(a, b)
		limit := full / 8
		got := SquaredEDEarlyAbandon(a, b, limit)
		if got <= limit {
			t.Fatalf("abandoned value %v must exceed limit %v", got, limit)
		}
	}
}

func TestMinDistLookup16(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const card = 256
	cells := make([]float64, 16*card)
	for i := range cells {
		cells[i] = rng.Float64()
	}
	sax := make([]uint8, 16)
	for i := range sax {
		sax[i] = uint8(rng.Intn(card))
	}
	got := MinDistLookup16(cells, sax, card)
	want := ScalarMinDistLookup16(cells, sax, card)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("MinDistLookup16 = %v, want %v (must be bit-identical to the pinned 4-lane sum)", got, want)
	}
	var seq float64
	for j, s := range sax {
		seq += cells[j*card+int(s)]
	}
	if math.Abs(got-seq) > 1e-12*math.Max(1, seq) {
		t.Fatalf("MinDistLookup16 = %v, sequential sum %v differ beyond reassociation tolerance", got, seq)
	}
}

func TestMinDistBatchGenericAndUnrolledAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const card = 256
	for _, w := range []int{8, 16} {
		cells := make([]float64, w*card)
		for i := range cells {
			cells[i] = rng.Float64()
		}
		const count = 37
		sax := make([]uint8, count*w)
		for i := range sax {
			sax[i] = uint8(rng.Intn(card))
		}
		out := make([]float64, count)
		MinDistBatch(cells, sax, w, card, out)
		for i := 0; i < count; i++ {
			var want float64
			if w == 16 {
				// w == 16 follows the pinned 4-lane contract.
				want = ScalarMinDistLookup16(cells, sax[i*16:i*16+16], card)
			} else {
				for j := 0; j < w; j++ {
					want += cells[j*card+int(sax[i*w+j])]
				}
			}
			if math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("w=%d batch[%d] = %v, want %v (must be bit-identical to the contract order)", w, i, out[i], want)
			}
		}
	}
}

// wordRows returns n random rows of w cell indexes below cells, the shape of
// a leaf directory's index array.
func wordRows(rng *rand.Rand, n, w, cells int) []uint16 {
	idx := make([]uint16, n*w)
	for i := range idx {
		idx[i] = uint16(rng.Intn(cells))
	}
	return idx
}

func TestWordDistBatchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, w := range []int{1, 3, 8, 16} {
		cells := make([]float64, w*510)
		for i := range cells {
			cells[i] = rng.NormFloat64() * rng.NormFloat64()
		}
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 64, 257} {
			idx := wordRows(rng, n, w, len(cells))
			got, want := make([]float64, n), make([]float64, n)
			WordDistBatch(cells, idx, w, got)
			ScalarWordDistBatch(cells, idx, w, want)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("w=%d n=%d row %d: %v != oracle %v", w, n, i, got[i], want[i])
				}
			}
		}
	}
}

func BenchmarkWordDistBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	const w, n = 16, 15_570
	cells := make([]float64, w*510)
	for i := range cells {
		cells[i] = rng.Float64()
	}
	idx := wordRows(rng, n, w, len(cells))
	out := make([]float64, 256)
	for _, k := range []struct {
		name string
		fn   func([]float64, []uint16, int, []float64)
	}{{"interleaved", WordDistBatch}, {"oracle", ScalarWordDistBatch}} {
		b.Run(k.name, func(b *testing.B) {
			for b.Loop() {
				for lo := 0; lo < n; lo += len(out) {
					m := min(len(out), n-lo)
					k.fn(cells, idx[lo*w:(lo+m)*w], w, out[:m])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/word")
		})
	}
}
