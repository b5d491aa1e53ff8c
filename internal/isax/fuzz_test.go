package isax_test

import (
	"encoding/binary"
	"math"
	"testing"

	"dsidx/internal/isax"
	"dsidx/internal/paa"
	"dsidx/internal/series"
)

// FuzzSAXLowerBound property-tests the guarantee the whole index family
// rests on: the iSAX lower bound never exceeds the true squared Euclidean
// distance, so pruning on it can never discard the true nearest neighbor.
// The fuzzer drives both the query and the candidate; any counterexample
// would be an exactness bug in every index in this repository.
func FuzzSAXLowerBound(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252, 253, 254, 255})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	seed := make([]byte, 96)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		const n, w, maxBits = 64, 8, 8
		q, s := fuzzSeries(data, n), fuzzSeries(append([]byte{0xA5}, data...), n)
		quant, err := isax.NewQuantizer(maxBits)
		if err != nil {
			t.Fatal(err)
		}
		qPAA := paa.Transform(q, w)
		sPAA := paa.Transform(s, w)
		sax := make([]uint8, w)
		quant.SymbolsInto(sPAA, sax)
		d := series.SquaredED(q, s)
		// Tiny relative slack: the bound and the distance accumulate float64
		// rounding along different orders.
		limit := d*(1+1e-9) + 1e-9

		table := isax.NewQueryTable(quant, qPAA, n)
		if lb := table.MinDistSAX(sax); lb > limit {
			t.Errorf("table lower bound %v exceeds true distance %v", lb, d)
		}
		word := isax.Word{Symbols: sax, Bits: []uint8{maxBits, maxBits, maxBits, maxBits, maxBits, maxBits, maxBits, maxBits}}
		if lb := isax.MinDist(quant, qPAA, word, n); lb > limit {
			t.Errorf("word lower bound %v exceeds true distance %v", lb, d)
		}
		// Every coarser cardinality must lower-bound the distance too, down
		// to the root word, which the root-key tables bound from the table.
		coarse := word
		for bits := maxBits; bits > 1; bits-- {
			next := coarse.Clone()
			for j := range next.Symbols {
				next.Symbols[j] >>= 1
				next.Bits[j]--
			}
			coarse = next
			if lb := isax.MinDist(quant, qPAA, coarse, n); lb > limit {
				t.Errorf("%d-bit word lower bound %v exceeds true distance %v", bits-1, lb, d)
			}
		}
		var keyLo, keyHi [256]float64
		table.FillRootKeys(&keyLo, &keyHi)
		if key := isax.RootKey(sax, maxBits); keyLo[key&255]+keyHi[key>>8] > limit {
			t.Errorf("root-key bound %v exceeds true distance %v", keyLo[key&255]+keyHi[key>>8], d)
		}
		// The DTW envelope bound with a degenerate (window 0) envelope is an
		// ED lower bound as well.
		dtw := isax.NewDTWQueryTable(quant, qPAA, qPAA, n)
		if lb := dtw.MinDistSAX(sax); lb > limit {
			t.Errorf("DTW-table lower bound %v exceeds true distance %v", lb, d)
		}
	})
}

// fuzzSeries expands arbitrary bytes into a finite length-n series: four
// bytes per point via float32 bit patterns, with non-finite and huge values
// replaced deterministically so the mathematical bound claim applies.
func fuzzSeries(data []byte, n int) series.Series {
	out := make(series.Series, n)
	for i := 0; i < n; i++ {
		var u uint32
		for j := 0; j < 4; j++ {
			u <<= 8
			if len(data) > 0 {
				u |= uint32(data[(i*4+j)%len(data)])
			}
		}
		v := math.Float32frombits(u)
		if f64 := float64(v); math.IsNaN(f64) || math.Abs(f64) > 1e6 {
			// Fold the bit pattern into a modest finite value instead.
			v = float32(int32(u%2001)-1000) / 250
		}
		out[i] = v
	}
	// Mix in the length of data so short inputs still vary.
	if len(data) > 0 {
		out[0] += float32(binary.LittleEndian.Uint16(append(data, 0, 0)[:2])) / 65536
	}
	return out
}
