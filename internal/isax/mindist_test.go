package isax

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dsidx/internal/paa"
	"dsidx/internal/series"
)

func randomSeries(rng *rand.Rand, n int) series.Series {
	s := make(series.Series, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// fullWord builds the maxBits-cardinality word of a summary.
func fullWord(sax []uint8, maxBits int) Word {
	w := Word{Symbols: make([]uint8, len(sax)), Bits: make([]uint8, len(sax))}
	for j, s := range sax {
		w.Symbols[j] = s
		w.Bits[j] = uint8(maxBits)
	}
	return w
}

func summarize(q *Quantizer, s series.Series, segments int) []uint8 {
	coeffs := paa.Transform(s, segments)
	out := make([]uint8, segments)
	q.SymbolsInto(coeffs, out)
	return out
}

func TestMinDistLowerBoundsED(t *testing.T) {
	// THE invariant: MinDist(PAA(q), iSAX(s)) <= ED²(q, s), at every
	// cardinality. Every index's exactness depends on this.
	q := mustQuantizer(t, 8)
	rng := rand.New(rand.NewSource(20))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, segments := 256, 16
		a, b := randomSeries(r, n), randomSeries(r, n)
		qPAA := paa.Transform(a, segments)
		ed := series.SquaredED(a, b)
		sax := summarize(q, b, segments)
		// Random-cardinality word containing b's summary.
		w := Word{Symbols: make([]uint8, segments), Bits: make([]uint8, segments)}
		for j := range w.Symbols {
			bits := 1 + r.Intn(8)
			w.Bits[j] = uint8(bits)
			w.Symbols[j] = sax[j] >> (8 - bits)
		}
		return MinDist(q, qPAA, w, n) <= ed+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestMinDistZeroForOwnWord(t *testing.T) {
	q := mustQuantizer(t, 8)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		s := randomSeries(rng, 128)
		qPAA := paa.Transform(s, 16)
		sax := summarize(q, s, 16)
		w := fullWord(sax, 8)
		if d := MinDist(q, qPAA, w, 128); d != 0 {
			t.Fatalf("MinDist of series against its own word = %v, want 0", d)
		}
	}
}

func TestMinDistMonotoneInCardinality(t *testing.T) {
	// Promoting a segment to higher cardinality shrinks the region, so the
	// bound can only tighten (grow).
	q := mustQuantizer(t, 8)
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 100; trial++ {
		n, segments := 256, 16
		a, b := randomSeries(rng, n), randomSeries(rng, n)
		qPAA := paa.Transform(a, segments)
		sax := summarize(q, b, segments)
		prev := -1.0
		for bits := 1; bits <= 8; bits++ {
			w := Word{Symbols: make([]uint8, segments), Bits: make([]uint8, segments)}
			for j := range w.Symbols {
				w.Bits[j] = uint8(bits)
				w.Symbols[j] = sax[j] >> (8 - bits)
			}
			d := MinDist(q, qPAA, w, n)
			if d < prev-1e-9 {
				t.Fatalf("bound loosened from %v to %v at bits=%d", prev, d, bits)
			}
			prev = d
		}
	}
}

func TestQueryTableMatchesMinDist(t *testing.T) {
	q := mustQuantizer(t, 8)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n, segments := 256, 16
		a, b := randomSeries(rng, n), randomSeries(rng, n)
		qPAA := paa.Transform(a, segments)
		sax := summarize(q, b, segments)
		table := NewQueryTable(q, qPAA, n)
		got := table.MinDistSAX(sax)
		want := MinDist(q, qPAA, fullWord(sax, 8), n)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("QueryTable = %v, MinDist = %v", got, want)
		}
	}
}

func TestMinDistDTWLowerBoundsDTW(t *testing.T) {
	// DTW extension invariant: the envelope-based iSAX bound never exceeds
	// the true DTW distance.
	q := mustQuantizer(t, 8)
	rng := rand.New(rand.NewSource(25))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, segments := 128, 16
		a, b := randomSeries(r, n), randomSeries(r, n)
		window := r.Intn(16)
		env := series.NewEnvelope(a, window)
		upPAA := paa.Transform(env.Upper, segments)
		loPAA := paa.Transform(env.Lower, segments)
		sax := summarize(q, b, segments)
		w := fullWord(sax, 8)
		lb := MinDistDTW(q, upPAA, loPAA, w, n)
		dtw := series.DTW(a, b, window, math.Inf(1), new([]float64))
		return lb <= dtw+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestMinDistDTWAtZeroWindowMatchesMinDistDirection(t *testing.T) {
	// With window 0 the envelope collapses to the query, so the DTW bound
	// must still lower-bound plain ED.
	q := mustQuantizer(t, 8)
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 50; trial++ {
		n, segments := 128, 16
		a, b := randomSeries(rng, n), randomSeries(rng, n)
		env := series.NewEnvelope(a, 0)
		upPAA := paa.Transform(env.Upper, segments)
		loPAA := paa.Transform(env.Lower, segments)
		sax := summarize(q, b, segments)
		lb := MinDistDTW(q, upPAA, loPAA, fullWord(sax, 8), n)
		ed := series.SquaredED(a, b)
		if lb > ed+1e-6 {
			t.Fatalf("zero-window DTW bound %v exceeds ED %v", lb, ed)
		}
	}
}

func TestQueryTableFillReuseMatchesFresh(t *testing.T) {
	// Refilling a table in place for a new query must be indistinguishable
	// from building a fresh one — the scratch-pooling path of the concurrent
	// query engine depends on it, including cells that must return to zero,
	// in the one-sided tables and the root-key tables as much as in cells.
	q, err := NewQuantizer(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	const segments, n = 16, 256
	reused := &QueryTable{}
	var reusedLo, reusedHi [256]float64
	for round := 0; round < 5; round++ {
		s := randomSeries(rng, n)
		coeffs := paa.Transform(s, segments)
		fresh := NewQueryTable(q, coeffs, n)
		reused.FillED(q, coeffs, n)
		requireSameTables(t, reused, fresh)
		var freshLo, freshHi [256]float64
		fresh.FillRootKeys(&freshLo, &freshHi)
		reused.FillRootKeys(&reusedLo, &reusedHi)
		if reusedLo != freshLo || reusedHi != freshHi {
			t.Fatalf("round %d: reused root-key tables differ from fresh ones", round)
		}
	}
}

// requireSameTables compares all three arrays of two tables bit for bit.
func requireSameTables(t *testing.T, got, want *QueryTable) {
	t.Helper()
	gb, ga := got.Sides()
	wb, wa := want.Sides()
	for name, pair := range map[string][2][]float64{
		"cells": {got.Cells(), want.Cells()}, "below": {gb, wb}, "above": {ga, wa},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s: %d entries, want %d", name, len(pair[0]), len(pair[1]))
		}
		for i, c := range pair[1] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(c) {
				t.Fatalf("%s[%d] = %v, want %v", name, i, pair[0][i], c)
			}
		}
	}
}

// regionTable is the Region-based form of FillED (paaUpper == paaLower) and
// FillDTW that the one-pass fill replaced, kept as its oracle.
func regionTable(q *Quantizer, paaUpper, paaLower []float64, n int) []float64 {
	segs, card := len(paaUpper), 1<<q.maxBits
	ratio := float64(n) / float64(segs)
	cells := make([]float64, segs*card)
	for j := 0; j < segs; j++ {
		for s := 0; s < card; s++ {
			lo, hi := q.Region(uint8(s), q.maxBits)
			switch {
			case paaUpper[j] < lo:
				d := lo - paaUpper[j]
				cells[j*card+s] = d * d * ratio
			case paaLower[j] > hi:
				d := paaLower[j] - hi
				cells[j*card+s] = d * d * ratio
			}
		}
	}
	return cells
}

func TestOnePassFillMatchesRegionForm(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, maxBits := range []int{1, 4, 8} {
		q := mustQuantizer(t, maxBits)
		card := 1 << maxBits
		for _, segments := range []int{8, 16} {
			const n = 128
			for round := 0; round < 40; round++ {
				s := randomSeries(rng, n)
				env := series.NewEnvelope(s, rng.Intn(12))
				up, lo := paa.Transform(env.Upper, segments), paa.Transform(env.Lower, segments)
				mid := paa.Transform(s, segments)
				if round%8 == 0 { // a coefficient exactly on a breakpoint, and far tails
					mid[0], mid[1], mid[2] = q.Breakpoints(maxBits)[card/2-1], -9, 9
				}
				for name, table := range map[string]*QueryTable{
					"ED": NewQueryTable(q, mid, n), "DTW": NewDTWQueryTable(q, up, lo, n),
				} {
					want := regionTable(q, up, lo, n)
					if name == "ED" {
						want = regionTable(q, mid, mid, n)
					}
					below, above := table.Sides()
					for i, c := range table.Cells() {
						if math.Float64bits(c) != math.Float64bits(want[i]) {
							t.Fatalf("%s b=%d w=%d: cell %d = %v, Region form %v", name, maxBits, segments, i, c, want[i])
						}
						if c != max(below[i], above[i]) || min(below[i], above[i]) != 0 {
							t.Fatalf("%s: cell %d = %v with sides %v, %v", name, i, c, below[i], above[i])
						}
						if s := i % card; s > 0 && (below[i] < below[i-1] || above[i] > above[i-1]) {
							t.Fatalf("%s: sides not monotone at segment %d symbol %d", name, i/card, s)
						}
					}
				}
			}
		}
	}
}

func TestRootKeyTablesBoundRootWords(t *testing.T) {
	// lo[key&255] + hi[key>>8] is the table's bound on the root word of key:
	// its terms summed last segment first, bit for bit, and MinDist on the
	// word itself up to summation order.
	rng := rand.New(rand.NewSource(34))
	q := mustQuantizer(t, 8)
	const n = 128
	for _, segments := range []int{1, 5, 8, 9, 16} {
		coeffs := make([]float64, segments)
		for j := range coeffs {
			coeffs[j] = rng.NormFloat64()
		}
		table := NewQueryTable(q, coeffs, n)
		below, above := table.Sides()
		var lo, hi [256]float64
		table.FillRootKeys(&lo, &hi)
		for trial := 0; trial < 2000; trial++ {
			key := uint32(rng.Intn(1 << segments))
			word := RootWordFromKey(key, segments)
			var sums [2]float64 // low eight key bits, the rest
			for j := segments - 1; j >= 0; j-- {
				term := above[j*256+127]
				if word.Symbols[j] == 1 {
					term = below[j*256+128]
				}
				sums[(segments-1-j)/8] += term
			}
			got := lo[key&255] + hi[key>>8]
			if want := sums[0] + sums[1]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("w=%d key %#x: %v, terms sum to %v", segments, key, got, want)
			}
			if want := MinDist(q, coeffs, word, n); math.Abs(got-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("w=%d key %#x: %v, MinDist of the root word %v", segments, key, got, want)
			}
			sax := make([]uint8, segments)
			for j := range sax {
				sax[j] = word.Symbols[j]<<7 | uint8(rng.Intn(128))
			}
			if RootKey(sax, 8) != key {
				t.Fatalf("RootKey(%v) = %#x, want %#x", sax, RootKey(sax, 8), key)
			}
			if entry := table.MinDistSAX(sax); got > entry*(1+1e-12) {
				t.Fatalf("w=%d key %#x: root bound %v above a member's bound %v", segments, key, got, entry)
			}
		}
	}
}

func TestQueryTableFillDTWReuse(t *testing.T) {
	q, err := NewQuantizer(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	const segments, n = 16, 256
	reused := &QueryTable{}
	// First fill with an ED table so the DTW refill must overwrite all cells.
	reused.FillED(q, paa.Transform(randomSeries(rng, n), segments), n)
	for round := 0; round < 3; round++ {
		s := randomSeries(rng, n)
		env := series.NewEnvelope(s, 10)
		up := paa.Transform(env.Upper, segments)
		lo := paa.Transform(env.Lower, segments)
		fresh := NewDTWQueryTable(q, up, lo, n)
		reused.FillDTW(q, up, lo, n)
		requireSameTables(t, reused, fresh)
	}
}

// BenchmarkQueryTableFill times a query's table preparation at the default
// shape: the three arrays in one pass, then the two root-key tables.
func BenchmarkQueryTableFill(b *testing.B) {
	q, err := NewQuantizer(8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	const segments, n = 16, 256
	s := randomSeries(rng, n)
	coeffs := paa.Transform(s, segments)
	env := series.NewEnvelope(s, 12)
	up, lo := paa.Transform(env.Upper, segments), paa.Transform(env.Lower, segments)
	t := &QueryTable{}
	var keyLo, keyHi [256]float64
	b.Run("FillED", func(b *testing.B) {
		for b.Loop() {
			t.FillED(q, coeffs, n)
		}
	})
	b.Run("FillDTW", func(b *testing.B) {
		for b.Loop() {
			t.FillDTW(q, up, lo, n)
		}
	})
	b.Run("FillRootKeys", func(b *testing.B) {
		for b.Loop() {
			t.FillRootKeys(&keyLo, &keyHi)
		}
	})
}
