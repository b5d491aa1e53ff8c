package isax

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func mustQuantizer(t *testing.T, bits int) *Quantizer {
	t.Helper()
	q, err := NewQuantizer(bits)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// searchSymbol is the symbolizer's oracle: the number of breakpoints ≤ v
// at the given cardinality bits, by binary search over the sorted table
// (NaN, which no breakpoint is above, gets the last symbol).
func searchSymbol(q *Quantizer, v float64, bits int) uint8 {
	bp := q.Breakpoints(bits)
	return uint8(sort.Search(len(bp), func(i int) bool { return bp[i] > v }))
}

// symbolOf runs SymbolsInto on one value.
func symbolOf(q *Quantizer, v float64) uint8 {
	var out [1]uint8
	q.SymbolsInto([]float64{v}, out[:])
	return out[0]
}

func TestNewQuantizerValidation(t *testing.T) {
	for _, bits := range []int{0, -1, 9, 100} {
		if _, err := NewQuantizer(bits); err == nil {
			t.Errorf("NewQuantizer(%d): expected error", bits)
		}
	}
	for bits := 1; bits <= MaxBits; bits++ {
		if _, err := NewQuantizer(bits); err != nil {
			t.Errorf("NewQuantizer(%d): %v", bits, err)
		}
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.8413447460685429, 1},   // Φ(1)
		{0.15865525393145705, -1}, // Φ(-1)
		{0.9772498680518208, 2},   // Φ(2)
		{0.25, -0.6744897501960817},
		{0.75, 0.6744897501960817},
	}
	for _, tc := range cases {
		if got := normalQuantile(tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("normalQuantile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestBreakpointsSortedAndSymmetric(t *testing.T) {
	q := mustQuantizer(t, 8)
	for bits := 1; bits <= 8; bits++ {
		bp := q.Breakpoints(bits)
		if len(bp) != (1<<bits)-1 {
			t.Fatalf("bits=%d: %d breakpoints, want %d", bits, len(bp), (1<<bits)-1)
		}
		if !sort.Float64sAreSorted(bp) {
			t.Fatalf("bits=%d: breakpoints not sorted", bits)
		}
		// N(0,1) is symmetric: bp[k] == -bp[len-1-k].
		for k := range bp {
			if math.Abs(bp[k]+bp[len(bp)-1-k]) > 1e-9 {
				t.Fatalf("bits=%d: breakpoints not symmetric at %d: %v vs %v",
					bits, k, bp[k], bp[len(bp)-1-k])
			}
		}
	}
	// Classic 1-bit cut is at 0.
	if bp := q.Breakpoints(1); math.Abs(bp[0]) > 1e-12 {
		t.Errorf("1-bit breakpoint = %v, want 0", bp[0])
	}
}

func TestSymbolRegionConsistency(t *testing.T) {
	q := mustQuantizer(t, 8)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		v := rng.NormFloat64() * 2
		for bits := 1; bits <= 8; bits++ {
			sym := searchSymbol(q, v, bits)
			lo, hi := q.Region(sym, bits)
			if v < lo || v >= hi {
				t.Fatalf("bits=%d: value %v assigned symbol %d with region [%v,%v)", bits, v, sym, lo, hi)
			}
		}
	}
}

func TestSymbolNestingProperty(t *testing.T) {
	// The b-bit symbol must be the top b bits of the 8-bit symbol; leaf
	// splitting relies on this.
	q := mustQuantizer(t, 8)
	f := func(raw float64) bool {
		v := math.Mod(raw, 10) // keep finite and in a reasonable range
		full := symbolOf(q, v)
		for bits := 1; bits < 8; bits++ {
			if searchSymbol(q, v, bits) != full>>(8-bits) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSymbolBoundaryBelongsToUpperRegion(t *testing.T) {
	q := mustQuantizer(t, 2)
	bp := q.Breakpoints(2)
	for i, b := range bp {
		sym := searchSymbol(q, b, 2)
		if int(sym) != i+1 {
			t.Errorf("symbol at breakpoint %d (%v) = %d, want %d", i, b, sym, i+1)
		}
	}
}

func TestSymbolsIntoMatchesSymbol(t *testing.T) {
	q := mustQuantizer(t, 8)
	rng := rand.New(rand.NewSource(2))
	coeffs := make([]float64, 16)
	for j := range coeffs {
		coeffs[j] = rng.NormFloat64()
	}
	out := make([]uint8, 16)
	q.SymbolsInto(coeffs, out)
	for j, v := range coeffs {
		if want := searchSymbol(q, v, 8); out[j] != want {
			t.Errorf("SymbolsInto[%d] = %d, want %d", j, out[j], want)
		}
	}
}

// edgeValues returns the values where a grid symbolizer could go wrong for
// q: every breakpoint and its ±1 and ±2-ulp neighbours, every grid-cell
// edge and its ±1-ulp neighbours, and the special and extreme floats.
func edgeValues(q *Quantizer) []float64 {
	vals := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), -math.Float64frombits(0x000FFFFFFFFFFFFF),
	}
	around := func(v float64, ulps int) {
		vals = append(vals, v)
		up, down := v, v
		for k := 0; k < ulps; k++ {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
			vals = append(vals, up, down)
		}
	}
	for _, b := range q.Breakpoints(q.maxBits) {
		around(b, 2)
	}
	for c := 0; c <= gridCells; c++ {
		around(q.gridLo+float64(c)/q.gridScale, 1)
	}
	return vals
}

func TestSymbolsIntoMatchesSearchAtEdges(t *testing.T) {
	for bits := 1; bits <= MaxBits; bits++ {
		q := mustQuantizer(t, bits)
		vals := edgeValues(q)
		out := make([]uint8, len(vals))
		q.SymbolsInto(vals, out)
		for j, v := range vals {
			if want := searchSymbol(q, v, bits); out[j] != want {
				t.Errorf("maxBits %d: SymbolsInto(%v [%#x]) = %d, want %d",
					bits, v, math.Float64bits(v), out[j], want)
			}
		}
	}
}

// FuzzSymbolsIntoMatchesSearch holds the grid symbolizer to the binary
// search over the breakpoints, for any float64 at every maxBits.
func FuzzSymbolsIntoMatchesSearch(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -1, 0.6744897501960817,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-300, 2.66, -2.66} {
		f.Add(v)
	}
	quants := make([]*Quantizer, MaxBits+1)
	for bits := 1; bits <= MaxBits; bits++ {
		q, err := NewQuantizer(bits)
		if err != nil {
			f.Fatal(err)
		}
		quants[bits] = q
	}
	f.Fuzz(func(t *testing.T, v float64) {
		for bits := 1; bits <= MaxBits; bits++ {
			q := quants[bits]
			if got, want := symbolOf(q, v), searchSymbol(q, v, bits); got != want {
				t.Fatalf("maxBits %d: SymbolsInto(%v [%#x]) = %d, want %d", bits, v, math.Float64bits(v), got, want)
			}
		}
	})
}

func BenchmarkSymbolsInto(b *testing.B) {
	q, err := NewQuantizer(MaxBits)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	coeffs := make([][]float64, 1024)
	for i := range coeffs {
		coeffs[i] = make([]float64, MaxSegments)
		for j := range coeffs[i] {
			coeffs[i][j] = rng.NormFloat64()
		}
	}
	out := make([]uint8, MaxSegments)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.SymbolsInto(coeffs[i%len(coeffs)], out)
	}
}

func TestRegionExtremes(t *testing.T) {
	q := mustQuantizer(t, 3)
	lo, _ := q.Region(0, 3)
	if !math.IsInf(lo, -1) {
		t.Errorf("first region lo = %v, want -Inf", lo)
	}
	_, hi := q.Region(7, 3)
	if !math.IsInf(hi, 1) {
		t.Errorf("last region hi = %v, want +Inf", hi)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range symbol")
		}
	}()
	q.Region(8, 3)
}

func TestWordContainsAndChild(t *testing.T) {
	q := mustQuantizer(t, 8)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		segments := 4
		full := make([]uint8, segments)
		for j := range full {
			full[j] = uint8(rng.Intn(256))
		}
		root := RootWordFromKey(RootKey(full, 8), segments)
		if !root.Contains(full, 8) {
			t.Fatalf("root word %v does not contain its own summary %v", root, full)
		}
		// Repeated splitting: the summary must land in exactly one child.
		w := root
		for depth := 0; depth < 20; depth++ {
			seg := rng.Intn(segments)
			if w.Bits[seg] >= 8 {
				continue
			}
			c0, c1 := w.Child(seg, 0), w.Child(seg, 1)
			in0, in1 := c0.Contains(full, 8), c1.Contains(full, 8)
			if in0 == in1 {
				t.Fatalf("summary in %d children after split (word=%v seg=%d)", b2i(in0)+b2i(in1), w, seg)
			}
			bit := w.PrefixBitAt(seg, full[seg], 8)
			if (bit == 0) != in0 {
				t.Fatalf("PrefixBitAt says %d but containment says c0=%v", bit, in0)
			}
			if in0 {
				w = c0
			} else {
				w = c1
			}
		}
	}
	_ = q
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestWordCloneIndependence(t *testing.T) {
	w := NewRootWord([]uint8{1, 0, 1, 0})
	c := w.Clone()
	c.Symbols[0] = 0
	c.Bits[1] = 5
	if w.Symbols[0] != 1 || w.Bits[1] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestWordEqualAndKey(t *testing.T) {
	a := NewRootWord([]uint8{1, 0})
	b := NewRootWord([]uint8{1, 0})
	c := a.Child(0, 1)
	if !a.Equal(b) || a.Key() != b.Key() {
		t.Error("identical words not equal")
	}
	if a.Equal(c) || a.Key() == c.Key() {
		t.Error("different words compare equal")
	}
	if a.Equal(Word{Symbols: []uint8{1}, Bits: []uint8{1}}) {
		t.Error("words of different segment counts compare equal")
	}
}

func TestWordString(t *testing.T) {
	w := NewRootWord([]uint8{1, 0})
	w = w.Child(0, 0) // segment 0 now "10" at 4 cardinality
	if got := w.String(); got != "10(4) 0(2)" {
		t.Errorf("String() = %q, want %q", got, "10(4) 0(2)")
	}
}

func TestRootKeyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		segments := 1 + rng.Intn(16)
		full := make([]uint8, segments)
		for j := range full {
			full[j] = uint8(rng.Intn(256))
		}
		key := RootKey(full, 8)
		w := RootWordFromKey(key, segments)
		for j := 0; j < segments; j++ {
			if w.Symbols[j] != full[j]>>7 {
				t.Fatalf("round-trip symbol %d = %d, want %d", j, w.Symbols[j], full[j]>>7)
			}
		}
		if !w.Contains(full, 8) {
			t.Fatal("root word from key does not contain summary")
		}
	}
}

func TestRootKeyRange(t *testing.T) {
	full := []uint8{255, 255, 255, 255}
	if key := RootKey(full, 8); key != 15 {
		t.Errorf("RootKey(all-high, 4 segs) = %d, want 15", key)
	}
	if key := RootKey([]uint8{0, 0, 0, 0}, 8); key != 0 {
		t.Errorf("RootKey(all-low) = %d, want 0", key)
	}
}
