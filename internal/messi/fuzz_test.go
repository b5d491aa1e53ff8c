package messi

import (
	"math"
	"math/rand"
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/isax"
	"dsidx/internal/series"
	"dsidx/internal/ucr"
	"dsidx/internal/vector"
)

// FuzzPersistRoundTrip drives the live persistence format from both ends:
// arbitrary bytes must never panic the decoder, and an index whose delta
// buffer holds fuzz-derived appends (part merged, part pending) must
// round-trip through Encode/Decode into a byte-identical, answer-identical
// copy.
func FuzzPersistRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("DSL1"))
	f.Add([]byte("DSL1\x01\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte("DSI1 not really an index"))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0x80, 0x00, 0xff, 0x7f, 0x41, 0x41, 0x41, 0x41})

	f.Fuzz(func(t *testing.T, data []byte) {
		const n, length = 64, 32
		base := gen.Generator{Kind: gen.Synthetic, Length: length, Seed: 9}.Collection(n)

		// Arbitrary bytes through the decoder: errors are expected, panics
		// are bugs — including panics deferred to the first query over a
		// garbage index that happened to decode.
		if ix, err := Decode(data, base, Options{Workers: 1}); err == nil {
			if _, _, err := ix.Search(base.At(0), 0); err != nil {
				t.Errorf("search over decoded index errored: %v", err)
			}
			ix.Close()
		}

		// Round-trip an index with a non-empty, split delta buffer derived
		// from the fuzz input.
		ix, err := Build(base, core.Config{Segments: 8, LeafCapacity: 16},
			Options{Workers: 1, MergeThreshold: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		appends := 2 + len(data)%7
		merged := appends / 2
		s := make(series.Series, length)
		for a := 0; a < appends; a++ {
			for j := range s {
				b := byte(a*length + j)
				if len(data) > 0 {
					b = data[(a*length+j)%len(data)]
				}
				s[j] = float32(int8(b)) / 8
			}
			if _, err := ix.Append(s); err != nil {
				t.Fatal(err)
			}
			if a == merged-1 {
				ix.Flush() // part of the buffer merged, the rest pending
			}
		}
		if ix.Pending() == 0 {
			t.Fatal("fuzz setup: delta buffer unexpectedly empty")
		}

		enc := ix.Encode()
		ix2, err := Decode(enc, base, Options{Workers: 1})
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		defer ix2.Close()
		if ix2.Count() != ix.Count() || ix2.Pending() != ix.Pending() {
			t.Fatalf("round-trip shape: count %d/%d pending %d/%d",
				ix2.Count(), ix.Count(), ix2.Pending(), ix.Pending())
		}
		if enc2 := ix2.Encode(); string(enc2) != string(enc) {
			t.Fatal("re-encode differs after round trip")
		}
		if err := ix2.Tree().CheckInvariants(); err != nil {
			t.Fatalf("decoded tree invariants: %v", err)
		}
		// One query through both copies, checked against a serial scan over
		// the decoded index's full content.
		live := liveCollection(ix2)
		q := base.At(0)
		a, _, err := ix.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := ix2.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := ucr.Scan(live, q)
		if a != b || b.Pos != want.Pos || b.Dist != want.Dist {
			t.Fatalf("round-trip answers diverge: %+v vs %+v vs serial %+v", a, b, want)
		}
	})
}

// FuzzBatchedLowerBounds is the differential guarantee behind the batched
// refinement hot path: for random leaves (SAX blocks), cardinalities and
// segment counts, the batched kernel used by leaf refinement and the delta
// scans (vector.MinDistBatch — SIMD at w=16 where the CPU has it, generic
// otherwise) must produce bounds BIT-IDENTICAL to the per-entry QueryTable.MinDistSAX path — so batched and per-entry
// refinement make the same pruning decisions down to the last ulp, and the
// set of entries surviving any limit is the same. The batched bounds must
// also be bit-identical across implementations: a ForceScalar pass re-runs
// the kernel on the scalar oracle and compares.
func FuzzBatchedLowerBounds(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(8), uint8(64), false)
	f.Add(int64(2), uint8(16), uint8(3), uint8(1), true)
	f.Add(int64(3), uint8(4), uint8(1), uint8(255), false)
	f.Add(int64(4), uint8(7), uint8(5), uint8(17), true)
	f.Add(int64(5), uint8(32), uint8(8), uint8(9), false)

	f.Fuzz(func(t *testing.T, seed int64, wRaw, bitsRaw, cntRaw uint8, dtw bool) {
		w := 1 + int(wRaw)%32 // segments; 16 exercises the unrolled kernel
		maxBits := 1 + int(bitsRaw)%isax.MaxBits
		count := 1 + int(cntRaw) // leaf entries
		rng := rand.New(rand.NewSource(seed))

		quant, err := isax.NewQuantizer(maxBits)
		if err != nil {
			t.Fatal(err)
		}
		paaA := make([]float64, w)
		paaB := make([]float64, w)
		for j := range paaA {
			paaA[j] = rng.NormFloat64()
			paaB[j] = rng.NormFloat64()
		}
		n := w * (1 + rng.Intn(32)) // series length, a multiple of w
		table := &isax.QueryTable{}
		if dtw {
			// Envelope tables feed the same kernels; upper must dominate.
			for j := range paaA {
				if paaA[j] < paaB[j] {
					paaA[j], paaB[j] = paaB[j], paaA[j]
				}
			}
			table.FillDTW(quant, paaA, paaB, n)
		} else {
			table.FillED(quant, paaA, n)
		}

		// A random leaf: count full-cardinality summaries back-to-back.
		card := 1 << maxBits
		sax := make([]uint8, count*w)
		for i := range sax {
			sax[i] = uint8(rng.Intn(card))
		}

		perEntry := make([]float64, count)
		for i := 0; i < count; i++ {
			perEntry[i] = table.MinDistSAX(sax[i*w : (i+1)*w])
		}
		batched := make([]float64, count)
		vector.MinDistBatch(table.Cells(), sax, w, table.Card(), batched)
		for i := 0; i < count; i++ {
			if batched[i] != perEntry[i] {
				t.Fatalf("w=%d bits=%d entry %d: batched bound %v != per-entry %v",
					w, maxBits, i, batched[i], perEntry[i])
			}
		}

		// SIMD and scalar implementations must agree bit for bit (on
		// machines without SIMD both passes run the oracle and this is
		// trivially true).
		vector.ForceScalar(true)
		scalarBounds := make([]float64, count)
		vector.MinDistBatch(table.Cells(), sax, w, table.Card(), scalarBounds)
		vector.ForceScalar(false)
		for i := 0; i < count; i++ {
			if math.Float64bits(scalarBounds[i]) != math.Float64bits(batched[i]) {
				t.Fatalf("w=%d bits=%d entry %d: %s bound %v != scalar bound %v",
					w, maxBits, i, vector.Impl(), batched[i], scalarBounds[i])
			}
		}

		// Same survivor set under a pruning limit drawn from the bounds
		// themselves (the adversarial spot: limits equal to a bound).
		limit := perEntry[rng.Intn(count)]
		for i := 0; i < count; i++ {
			if (batched[i] >= limit) != (perEntry[i] >= limit) {
				t.Fatalf("entry %d: batched and per-entry paths disagree on pruning at limit %v", i, limit)
			}
		}
	})
}
