package vector

import (
	"encoding/binary"
	"math"
	"testing"
)

// Differential fuzzing: the exported kernels (SIMD on machines that have
// it) against the scalar oracle, compared through Float64bits so signed
// zeros, infinities, and denormals all count (NaN payloads are the one
// unspecified dimension — see the package comment). Inputs are raw bytes
// reinterpreted as float32 bit patterns, so NaNs, infinities, and
// denormals appear constantly, and lengths are whatever the byte slice
// gives — never a convenient lane multiple.

// nanEq is the contract comparison: exact bits, except any NaN matches
// any NaN (payloads are unspecified — see the package comment).
func nanEq(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func f32sFromBytes(data []byte) []float32 {
	n := len(data) / 4
	v := make([]float32, n)
	for i := 0; i < n; i++ {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:]))
	}
	return v
}

func FuzzSquaredEDDifferential(f *testing.F) {
	f.Add(make([]byte, 8), make([]byte, 8))
	f.Add([]byte{0, 0, 0x80, 0x7f, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, []byte{0, 0, 0xc0, 0xff, 0, 0, 0, 0x80, 2, 0, 0, 0})
	f.Add(make([]byte, 4*33), make([]byte, 4*33))
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		a, b := f32sFromBytes(ab), f32sFromBytes(bb)
		n := min(len(a), len(b))
		a, b = a[:n], b[:n]
		if n == 0 {
			return
		}
		got, want := SquaredED(a, b), ScalarSquaredED(a, b)
		if !nanEq(got, want) {
			t.Fatalf("impl=%s n=%d: SquaredED=%x scalar=%x (%v vs %v)",
				Impl(), n, math.Float64bits(got), math.Float64bits(want), got, want)
		}
	})
}

func FuzzSquaredEDEarlyAbandonDifferential(f *testing.F) {
	f.Add(make([]byte, 4*17), make([]byte, 4*17), 1.5)
	f.Add([]byte{0, 0, 0x80, 0x7f}, []byte{0, 0, 0x80, 0xff}, math.Inf(1))
	f.Add(make([]byte, 4*64), make([]byte, 4*64), math.NaN())
	f.Fuzz(func(t *testing.T, ab, bb []byte, limit float64) {
		a, b := f32sFromBytes(ab), f32sFromBytes(bb)
		n := min(len(a), len(b))
		a, b = a[:n], b[:n]
		if n == 0 {
			return
		}
		got := SquaredEDEarlyAbandon(a, b, limit)
		want := ScalarSquaredEDEarlyAbandon(a, b, limit)
		if !nanEq(got, want) {
			t.Fatalf("impl=%s n=%d limit=%v: EA=%x scalar=%x",
				Impl(), n, limit, math.Float64bits(got), math.Float64bits(want))
		}
		// And the documented identity: EA at +Inf is the full distance.
		if ea, ed := SquaredEDEarlyAbandon(a, b, math.Inf(1)), SquaredED(a, b); !nanEq(ea, ed) {
			t.Fatalf("impl=%s n=%d: EA(+Inf)=%v != SquaredED=%v", Impl(), n, ea, ed)
		}
	})
}

func FuzzMinDistBatchDifferential(f *testing.F) {
	f.Add(make([]byte, 16*4*8), make([]byte, 16*3), uint8(2))
	f.Add(make([]byte, 16*8*8), make([]byte, 16), uint8(3))
	f.Fuzz(func(t *testing.T, cellBytes, sax []byte, logCard uint8) {
		card := 1 << (logCard % 9) // 1..256, always a power of two
		if len(cellBytes) < 16*card*8 || len(sax) < 16 {
			return
		}
		cells := make([]float64, 16*card)
		for i := range cells {
			cells[i] = math.Float64frombits(binary.LittleEndian.Uint64(cellBytes[i*8:]))
		}
		count := len(sax) / 16
		sax = sax[:count*16]
		got := make([]float64, count)
		want := make([]float64, count)
		MinDistBatch(cells, sax, 16, card, got)
		ScalarMinDistBatch(cells, sax, 16, card, want)
		for i := range got {
			if !nanEq(got[i], want[i]) {
				t.Fatalf("impl=%s card=%d entry=%d: %x vs %x",
					Impl(), card, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
		// Single-entry form must match the batch entry bit for bit.
		if one := MinDistLookup16(cells, sax[:16], card); !nanEq(one, want[0]) {
			t.Fatalf("impl=%s card=%d: MinDistLookup16=%v batch=%v", Impl(), card, one, want[0])
		}
	})
}

// FuzzEnvelopeDistDifferential: the envelope kernel against its oracle on raw
// table bits and raw envelope bytes — NaN and negative cells, inverted
// ranges, symbols past the cardinality — at every width. The tables are
// tiled from whatever bytes arrive, so every row addresses real cells.
func FuzzEnvelopeDistDifferential(f *testing.F) {
	f.Add(make([]byte, 64), make([]byte, 32), uint8(15), uint8(8))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 0, 0, 0, 0, 0, 0xf8, 0xff}, []byte{9, 200, 3, 3, 0xff, 0}, uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, tableBytes, envBytes []byte, width, bits uint8) {
		w, card := 1+int(width)%16, 1<<(1+bits%8)
		if len(tableBytes) < 8 {
			return
		}
		below, above := make([]float64, w*card), make([]float64, w*card)
		for i := range below {
			k := len(tableBytes) / 8
			below[i] = math.Float64frombits(binary.LittleEndian.Uint64(tableBytes[i%k*8:]))
			above[i] = math.Float64frombits(binary.LittleEndian.Uint64(tableBytes[(i*7+3)%k*8:]))
		}
		for ; len(envBytes) >= 2*w; envBytes = envBytes[2*w:] {
			got, want := EnvelopeDist(below, above, envBytes[:2*w], card), envelopeOracle(below, above, envBytes[:2*w], card)
			if !nanEq(got, want) {
				t.Fatalf("w=%d card=%d env=%v: %x vs %x", w, card, envBytes[:2*w],
					math.Float64bits(got), math.Float64bits(want))
			}
		}
	})
}
