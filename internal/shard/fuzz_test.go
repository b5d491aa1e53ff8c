package shard

import (
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/series"
	"dsidx/internal/ucr"
)

// FuzzShardedPersistRoundTrip drives the DSS1 manifest format from both
// ends, the same contract core.DecodeIndex and the messi live format hold:
// arbitrary bytes through Decode must error, never panic — including
// panics deferred to the first query over a garbage manifest that happened
// to decode — and a real sharded index with a split delta buffer must
// round-trip into a byte-identical, answer-identical copy.
func FuzzShardedPersistRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(2))
	f.Add([]byte("DSS1"), uint8(1))
	f.Add([]byte("DSS1\x01\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff"), uint8(3))
	f.Add([]byte("DSS1\x01\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00"+
		"\x40\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff"), uint8(2))
	f.Add([]byte("DSL1 pretending to be a live index"), uint8(4))
	f.Add([]byte("DSI1 not really an index"), uint8(1))
	f.Add([]byte{0x80, 0x00, 0xff, 0x7f, 0x41, 0x41, 0x41, 0x41}, uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, shardsRaw uint8) {
		const n, length = 64, 32
		shards := 1 + int(shardsRaw)%4
		base := gen.Generator{Kind: gen.Synthetic, Length: length, Seed: 19}.Collection(n)

		// Arbitrary bytes through the decoder: errors are expected, panics
		// are bugs, and an accidentally valid decode must answer queries.
		if s, err := Decode(data, base, Options{Options: messi.Options{Workers: 1}}); err == nil {
			if _, _, err := s.Search(base.At(0), 0); err != nil {
				t.Errorf("search over decoded index errored: %v", err)
			}
			s.Close()
		}

		// Round-trip a sharded index whose delta buffers hold fuzz-derived
		// appends, part merged, part pending, across several shards.
		s, err := Build(base, core.Config{Segments: 8, LeafCapacity: 16},
			Options{Shards: shards, Policy: HashSeries{},
				Options: messi.Options{Workers: 1, MergeThreshold: 1 << 30}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		appends := 3 + len(data)%9
		merged := appends / 2
		ser := make(series.Series, length)
		for a := 0; a < appends; a++ {
			for j := range ser {
				b := byte(a*length + j)
				if len(data) > 0 {
					b = data[(a*length+j)%len(data)]
				}
				ser[j] = float32(int8(b))/8 + float32(a)
			}
			if _, err := s.Append(ser); err != nil {
				t.Fatal(err)
			}
			if a == merged-1 {
				s.Flush()
			}
		}
		if s.IngestStats().Pending == 0 {
			t.Fatal("fuzz setup: delta buffers unexpectedly empty")
		}

		enc := s.Encode()
		s2, err := Decode(enc, base, Options{})
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		defer s2.Close()
		if s2.Count() != s.Count() || s2.IngestStats().Pending != s.IngestStats().Pending || s2.Shards() != shards {
			t.Fatalf("round-trip shape: count %d/%d pending %d/%d shards %d/%d",
				s2.Count(), s.Count(), s2.IngestStats().Pending, s.IngestStats().Pending, s2.Shards(), shards)
		}
		if enc2 := s2.Encode(); string(enc2) != string(enc) {
			t.Fatal("re-encode differs after round trip")
		}
		for si := 0; si < shards; si++ {
			if err := s2.Shard(si).Tree().CheckInvariants(); err != nil {
				t.Fatalf("decoded shard %d tree invariants: %v", si, err)
			}
		}
		// One query through both copies, checked against a serial scan over
		// the full landed content.
		live := landedCollection(s2)
		q := base.At(0)
		a, _, err := s.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := s2.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := ucr.Scan(live, q)
		if a != b || b.Pos != want.Pos || b.Dist != want.Dist {
			t.Fatalf("round-trip answers diverge: %+v vs %+v vs serial %+v", a, b, want)
		}
	})
}
