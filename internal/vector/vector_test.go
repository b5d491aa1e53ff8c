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

// TestEarlyAbandonProperty: a result at or under the limit is the full
// distance, bit for bit, and a result over it means the full distance is
// over it too.
func TestEarlyAbandonProperty(t *testing.T) {
	f := func(seed int64, limFrac float64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVec(r, 128), randVec(r, 128)
		full := SquaredED(a, b)
		limit := math.Abs(limFrac) * full
		if got := SquaredEDEarlyAbandon(a, b, limit); got <= limit {
			return math.Float64bits(got) == math.Float64bits(full)
		}
		return full > limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
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

// envelopeOracle is the executable statement of EnvelopeDist's contract,
// written the plainest way: one term per segment, summed through an explicit
// lane array at w = 16 and in segment order otherwise.
func envelopeOracle(below, above []float64, env []uint8, card int) float64 {
	w := len(env) / 2
	if env[0] > env[w] {
		return math.Inf(1)
	}
	terms := make([]float64, w)
	for j := range terms {
		b := below[j*card+int(env[j])%card]
		a := above[j*card+int(env[w+j])%card]
		terms[j] = b
		if a > b {
			terms[j] = a
		}
	}
	if w == 16 {
		var lane [4]float64
		for j, v := range terms {
			lane[j%4] += v
		}
		return (lane[0] + lane[1]) + (lane[2] + lane[3])
	}
	var acc float64
	for _, v := range terms {
		acc += v
	}
	return acc
}

// oneSided returns a random pair of one-sided tables of the shape a query
// table has: per segment, below is zero up to a random symbol and grows past
// it, above shrinks to zero before it, and cells is the larger of the two.
func oneSided(rng *rand.Rand, w, card int) (cells, below, above []float64) {
	cells, below, above = make([]float64, w*card), make([]float64, w*card), make([]float64, w*card)
	for j := 0; j < w; j++ {
		q := rng.Intn(card)
		for s := q + 1; s < card; s++ {
			below[j*card+s] = below[j*card+s-1] + rng.Float64()
		}
		for s := q - 1; s >= 0; s-- {
			above[j*card+s] = above[j*card+s+1] + rng.Float64()
		}
		for s := 0; s < card; s++ {
			cells[j*card+s] = max(below[j*card+s], above[j*card+s])
		}
	}
	return cells, below, above
}

func TestEnvelopeDistMatchesOracleAndBoundsEveryEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, w := range []int{1, 3, 8, 16} {
		for _, card := range []int{2, 16, 256} {
			cells, below, above := oneSided(rng, w, card)
			for leaf := 0; leaf < 200; leaf++ {
				n := 1 + rng.Intn(20)
				sax := make([]uint8, n*w)
				env := make([]uint8, 2*w)
				for j := 0; j < w; j++ {
					base, span := rng.Intn(card), 1+rng.Intn(card)
					env[j], env[w+j] = uint8(card-1), 0
					for i := 0; i < n; i++ {
						s := uint8(min(card-1, base+rng.Intn(span)))
						sax[i*w+j] = s
						env[j], env[w+j] = min(env[j], s), max(env[w+j], s)
					}
				}
				got := EnvelopeDist(below, above, env, card)
				if want := envelopeOracle(below, above, env, card); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("w=%d card=%d: %v != oracle %v", w, card, got, want)
				}
				entries := make([]float64, n)
				MinDistBatch(cells, sax, w, card, entries)
				for i, e := range entries {
					// Non-negative floats order as their bit patterns do.
					if math.Float64bits(got) > math.Float64bits(e) {
						t.Fatalf("w=%d card=%d: envelope bound %v above entry %d's bound %v", w, card, got, i, e)
					}
				}
			}
		}
	}
}

func TestEnvelopeDistEmptyEnvelopeIsInf(t *testing.T) {
	_, below, above := oneSided(rand.New(rand.NewSource(6)), 16, 256)
	env := make([]uint8, 32)
	for j := 0; j < 16; j++ {
		env[j] = 0xFF
	}
	if got := EnvelopeDist(below, above, env, 256); !math.IsInf(got, 1) {
		t.Fatalf("inverted envelope bounds to %v, want +Inf", got)
	}
}

func BenchmarkEnvelopeDist(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	const w, card, n = 16, 256, 1024
	_, below, above := oneSided(rng, w, card)
	env := make([]uint8, n*2*w)
	for i := 0; i < n; i++ {
		for j := 0; j < w; j++ {
			lo := rng.Intn(card)
			env[i*2*w+j], env[i*2*w+w+j] = uint8(lo), uint8(lo+rng.Intn(card-lo))
		}
	}
	var sink float64
	for b.Loop() {
		for i := 0; i < n; i++ {
			sink += EnvelopeDist(below, above, env[i*2*w:(i+1)*2*w], card)
		}
	}
	_ = sink
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/leaf")
}
