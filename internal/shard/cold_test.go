package shard

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/series"
	"dsidx/internal/storage"
	"dsidx/internal/ucr"
)

// coldOptions returns a small-cache cold configuration so tests exercise
// misses and evictions, not just the warm path.
func coldOptions(cold func(int) bool) *ColdStorage {
	return &ColdStorage{CacheBytes: 16 << 10, BlockSeries: 8, Cold: cold}
}

// TestColdStorageMatchesHot is the tiering acceptance test: the same
// collection indexed hot, all-cold and mixed hot/cold must answer every
// search flavor bit-identically, while the cold builds actually touch the
// device cache.
func TestColdStorageMatchesHot(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 11}
	coll := g.Collection(900)
	queries := g.PerturbedQueries(coll, 10, 0.05)
	hot := buildSharded(t, coll, 3, RoundRobin{})

	placements := map[string]func(int) bool{
		"all-cold": nil,
		"mixed":    func(si int) bool { return si != 1 },
	}
	for name, placement := range placements {
		t.Run(name, func(t *testing.T) {
			s, err := Build(coll, testConfig(), Options{Shards: 3,
				ColdStorage: coldOptions(placement),
				Options:     messi.Options{MergeThreshold: 1 << 30}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			for i := 0; i < queries.Len(); i++ {
				q := queries.At(i)
				got, _, err := s.Search(q, 0)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := hot.Search(q, 0)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("query %d: cold (#%d, %v) != hot (#%d, %v)",
						i, got.Pos, got.Dist, want.Pos, want.Dist)
				}
				gotK, _, err := s.Query(messi.Query{Kind: messi.KNN, Series: q, K: 5, Scope: messi.FullScope})
				if err != nil {
					t.Fatal(err)
				}
				wantK, _, err := hot.Query(messi.Query{Kind: messi.KNN, Series: q, K: 5, Scope: messi.FullScope})
				if err != nil {
					t.Fatal(err)
				}
				for r := range wantK {
					if gotK[r] != wantK[r] {
						t.Fatalf("query %d rank %d: cold %+v != hot %+v", i, r, gotK[r], wantK[r])
					}
				}
				gotD, _, err := messi.First(s.Query(messi.Query{Kind: messi.DTW, Series: q, Warp: 4, Scope: messi.FullScope}))
				if err != nil {
					t.Fatal(err)
				}
				wantD, _, err := messi.First(hot.Query(messi.Query{Kind: messi.DTW, Series: q, Warp: 4, Scope: messi.FullScope}))
				if err != nil {
					t.Fatal(err)
				}
				if gotD != wantD {
					t.Fatalf("DTW query %d: cold %+v != hot %+v", i, gotD, wantD)
				}
			}
			st := s.ColdStats()
			wantShards := 3
			if name == "mixed" {
				wantShards = 2
			}
			if st.ColdShards != wantShards {
				t.Fatalf("ColdShards = %d, want %d", st.ColdShards, wantShards)
			}
			if st.Cache.Misses == 0 {
				t.Error("cold queries never missed the 16 KiB cache")
			}
			if st.Device.ReadOps == 0 || st.Device.BytesRead == 0 {
				t.Errorf("cold device untouched: %+v", st.Device)
			}
			if s.ColdDisk() == nil {
				t.Error("ColdDisk() = nil with cold shards present")
			}
			if name == "all-cold" {
				// All shards cold: the sharded index must serve global reads
				// through the device cache, not keep the flat collection alive.
				if _, ok := s.base.(*coldTier); !ok {
					t.Errorf("all-cold base is %T, want *coldTier", s.base)
				}
			} else if s.base != coll {
				t.Errorf("mixed-tier base replaced: %T", s.base)
			}
		})
	}

	// The hot index has no cold tier to report.
	if st := hot.ColdStats(); st != (ColdStats{}) {
		t.Errorf("hot ColdStats = %+v, want zero", st)
	}
	if hot.ColdDisk() != nil {
		t.Error("hot ColdDisk() non-nil")
	}
}

// TestColdStorageAppendsStayHot: appends land in the in-RAM delta stores
// regardless of tier, and queries over the mixed base+append content still
// match the serial oracle.
func TestColdStorageAppendsStayHot(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 13}
	coll := g.Collection(300)
	s, err := Build(coll, testConfig(), Options{Shards: 2,
		ColdStorage: coldOptions(nil),
		Options:     messi.Options{MergeThreshold: 64}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	for i := 0; i < 150; i++ {
		if _, err := s.Append(g.Series(int64(1000 + i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	mirror := landedCollection(s)
	queries := g.PerturbedQueries(mirror, 8, 0.05)
	for i := 0; i < queries.Len(); i++ {
		q := queries.At(i)
		got, st, err := s.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.Observed != mirror.Len() {
			t.Fatalf("observed %d, want %d", st.Observed, mirror.Len())
		}
		want := ucr.Scan(mirror, q)
		if got.Pos != want.Pos || got.Dist != want.Dist {
			t.Fatalf("query %d: (#%d, %v) != serial (#%d, %v)", i, got.Pos, got.Dist, want.Pos, want.Dist)
		}
	}
}

// TestColdStorageDecode: a file saved from a hot instance loads with a cold
// base placement and keeps answering identically — persistence is
// backing-agnostic.
func TestColdStorageDecode(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 17}
	coll := g.Collection(400)
	hot := buildSharded(t, coll, 3, RoundRobin{})
	enc := hot.Encode()

	s, err := Decode(enc, coll, Options{
		ColdStorage: coldOptions(nil),
		Options:     messi.Options{MergeThreshold: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	queries := g.PerturbedQueries(coll, 8, 0.05)
	for i := 0; i < queries.Len(); i++ {
		q := queries.At(i)
		got, _, err := s.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := hot.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %d: decoded-cold %+v != hot %+v", i, got, want)
		}
	}
	if st := s.ColdStats(); st.ColdShards != 3 || st.Cache.Hits+st.Cache.Misses == 0 {
		t.Fatalf("decoded-cold stats %+v", st)
	}
}

// TestColdStorageFileStore runs the cold tier over a real temp file — the
// genuinely out-of-core configuration — and checks answers against the
// oracle.
func TestColdStorageFileStore(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 19}
	coll := g.Collection(500)
	fs, err := storage.OpenFileStore(filepath.Join(t.TempDir(), "base.dsf"))
	if err != nil {
		t.Fatal(err)
	}
	cs := coldOptions(nil)
	cs.Store = fs
	s, err := Build(coll, testConfig(), Options{Shards: 2, ColdStorage: cs,
		Options: messi.Options{MergeThreshold: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		fs.Close()
	})
	queries := g.PerturbedQueries(coll, 6, 0.05)
	for i := 0; i < queries.Len(); i++ {
		q := queries.At(i)
		got, _, err := s.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := ucr.Scan(coll, q)
		if got.Pos != want.Pos || got.Dist != want.Dist {
			t.Fatalf("query %d: (#%d, %v) != serial (#%d, %v)", i, got.Pos, got.Dist, want.Pos, want.Dist)
		}
	}
}

// TestColdStorageAllHotPlacement: a ColdStorage whose Cold func marks every
// shard hot is a no-op — no tier is built, no device exists.
func TestColdStorageAllHotPlacement(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 29}
	coll := g.Collection(100)
	s, err := Build(coll, testConfig(), Options{Shards: 2,
		ColdStorage: coldOptions(func(int) bool { return false })})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if s.ColdDisk() != nil || s.ColdStats() != (ColdStats{}) {
		t.Fatal("all-hot placement still built a cold tier")
	}
	q := coll.At(0)
	got, _, err := s.Search(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := ucr.Scan(coll, q); got.Pos != want.Pos {
		t.Fatalf("got #%d, want #%d", got.Pos, want.Pos)
	}
}

// coldCounters builds a single cold shard with one worker on an unthrottled
// device — one goroutine issues every read, so device counters are exactly
// reproducible — and returns it with a per-query device-counter reader.
func coldCounters(t *testing.T, coll *series.Collection, cfg core.Config, cacheBytes int64, blockSeries int) *Sharded {
	t.Helper()
	s, err := Build(coll, cfg, Options{Shards: 1,
		ColdStorage: &ColdStorage{Profile: storage.Unthrottled, CacheBytes: cacheBytes, BlockSeries: blockSeries},
		Options:     messi.Options{Workers: 1, MergeThreshold: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if m := s.ColdStats().Device; m.ReadOps != 0 || m.BytesRead != 0 {
		t.Fatalf("the build read the device it staged: %+v", m)
	}
	return s
}

// TestColdReadsOnlySurvivors pins the bounds-before-bytes discipline with
// device counters: every device read serves at least one series whose real
// distance is then computed, so reads never outnumber raw distances; and
// the bytes read stay within a small multiple of the bytes refined. Two
// inputs: perturbed members, the paper's pruning regime; and fresh random
// walks, poorly pruned with survivors scattered one to a block, through a
// cache of 1/32 of the payload, where reads per query are held as well.
func TestColdReadsOnlySurvivors(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 41}
	coll := g.Collection(2000)
	payload := int64(coll.Len()) * testLen * 4
	for _, in := range []struct {
		name     string
		queries  *series.Collection
		cache    int64
		maxReads float64 // device reads per query; 0 leaves it unchecked
		maxAmp   float64
	}{
		{"perturbed", g.PerturbedQueries(coll, 40, 0.05), payload / 8, 0, 20},
		{"random-walk", g.Queries(40), payload / 32, 60, 25},
	} {
		t.Run(in.name, func(t *testing.T) {
			s := coldCounters(t, coll, testConfig(), in.cache, 0)
			var reads, bytes, raws int64
			for i := 0; i < in.queries.Len(); i++ {
				before := s.ColdStats().Device
				got, st, err := s.Search(in.queries.At(i), 0)
				if err != nil {
					t.Fatal(err)
				}
				after := s.ColdStats().Device
				if want := ucr.Scan(coll, in.queries.At(i)); got.Pos != want.Pos || got.Dist != want.Dist {
					t.Fatalf("query %d: (#%d, %v) != serial (#%d, %v)", i, got.Pos, got.Dist, want.Pos, want.Dist)
				}
				if d := after.ReadOps - before.ReadOps; d > int64(st.RawDistances) {
					t.Fatalf("query %d: %d device reads for %d raw distances", i, d, st.RawDistances)
				}
				reads += after.ReadOps - before.ReadOps
				bytes += after.BytesRead - before.BytesRead
				raws += int64(st.RawDistances)
			}
			if reads == 0 {
				t.Fatal("no query read the device")
			}
			perQuery := float64(reads) / float64(in.queries.Len())
			amp := float64(bytes) / float64(raws*testLen*4)
			t.Logf("%.1f device reads per query, read amplification %.1f", perQuery, amp)
			if in.maxReads > 0 && perQuery > in.maxReads {
				t.Fatalf("%.1f device reads per query, want ≤ %v", perQuery, in.maxReads)
			}
			if amp > in.maxAmp {
				t.Fatalf("read amplification %.1f (%d bytes for %d raw distances), want ≤ %v", amp, bytes, raws, in.maxAmp)
			}
		})
	}
}

// TestColdLeafWithoutSurvivorsReadsNothing: a query that IS a member finds
// distance zero in the leaf the approximate phase probes — that leaf's
// members are neighbours on the device, so it costs exactly one read. And a
// refined leaf with no survivors reads nothing: the same member run through
// the shard with a sink already holding (member, 0), as a sibling shard
// would leave it, computes the probed leaf's bounds, pays no distance and
// touches no device block, nor does any leaf after it.
func TestColdLeafWithoutSurvivorsReadsNothing(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 43}
	coll := g.Collection(1000)
	cfg := core.Config{Segments: 4, LeafCapacity: 8}
	for _, blockSeries := range []int{1, 8, 64} {
		s := coldCounters(t, coll, cfg, 1, blockSeries) // one-block cache: nothing is served from RAM
		for _, member := range []int{0, 333, 999} {
			before := s.ColdStats().Device.ReadOps
			got, _, err := s.Search(coll.At(member), 0)
			if err != nil {
				t.Fatal(err)
			}
			if got.Pos != int32(member) || got.Dist != 0 {
				t.Fatalf("member %d answered (#%d, %v)", member, got.Pos, got.Dist)
			}
			if d := s.ColdStats().Device.ReadOps - before; d != 1 {
				t.Fatalf("BlockSeries %d, member %d: %d device reads, want 1", blockSeries, member, d)
			}

			q := messi.Query{Kind: messi.NN, Series: coll.At(member), Scope: messi.FullScope}
			sink := messi.NewSink(q)
			sink.Best.Update(0, int64(member))
			before = s.ColdStats().Device.ReadOps
			st, err := s.Shard(0).Run(q, &sink, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.ProbeLeaves != 1 || st.EntriesChecked == 0 || st.RawDistances != 0 {
				t.Fatalf("member %d: %+v — want one probed leaf whose bounds were computed and no distance", member, *st)
			}
			if d := s.ColdStats().Device.ReadOps - before; d != 0 {
				t.Fatalf("BlockSeries %d, member %d: %d device reads behind a sibling's zero, want 0", blockSeries, member, d)
			}
			if r := sink.Results()[0]; r.Pos != int32(member) || r.Dist != 0 {
				t.Fatalf("member %d: the sink now holds (#%d, %v)", member, r.Pos, r.Dist)
			}
		}
	}
}

// TestColdReadsMonotoneInCache: the same queries through a larger cache
// never read the device more: with one worker the access sequence is fixed,
// and LRU caches of growing size hold nested block sets over it.
func TestColdReadsMonotoneInCache(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 47}
	coll := g.Collection(2000)
	queries := g.PerturbedQueries(coll, 60, 0.05)
	payload := int64(coll.Len()) * testLen * 4
	prev := int64(-1)
	for _, share := range []int64{16, 8, 4, 1} {
		s := coldCounters(t, coll, testConfig(), payload/share, 0)
		for i := 0; i < queries.Len(); i++ {
			if _, _, err := s.Search(queries.At(i), 0); err != nil {
				t.Fatal(err)
			}
		}
		reads := s.ColdStats().Device.ReadOps
		if reads == 0 {
			t.Fatalf("cache 1/%d: no device reads", share)
		}
		if prev >= 0 && reads > prev {
			t.Fatalf("cache 1/%d read the device %d times, the smaller cache before it %d", share, reads, prev)
		}
		prev = reads
	}
}

// TestColdScatterSeedsBeforeTraversal pins the order of a scatter-gather
// query over a device: a sub-search that reports its approximate phase done
// is held until every sibling has reported too — or has returned without
// ever seeding — so no shard traverses against a threshold a sibling was
// about to tighten. Hot indexes get no gate at all.
func TestColdScatterSeedsBeforeTraversal(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 47}
	coll := g.Collection(400)
	cold, err := Build(coll, testConfig(), Options{Shards: 4, ColdStorage: coldOptions(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	cuts, _ := cold.view()
	var seeded atomic.Int32
	if err := cold.scatter(messi.FullScope, cuts, &messi.QueryStats{}, func(si int, scope messi.Scope) (*messi.QueryStats, error) {
		if si == 0 {
			return &messi.QueryStats{}, nil // fails or finds nothing before seeding
		}
		seeded.Add(1)
		scope.Seeded()
		if n := seeded.Load(); n != 3 {
			t.Errorf("shard %d passed the gate with %d of 3 siblings seeded", si, n)
		}
		return &messi.QueryStats{}, nil
	}); err != nil {
		t.Fatal(err)
	}

	hot := buildSharded(t, coll, 4, RoundRobin{})
	cuts, _ = hot.view()
	if err := hot.scatter(messi.FullScope, cuts, &messi.QueryStats{}, func(si int, scope messi.Scope) (*messi.QueryStats, error) {
		if scope.Seeded != nil {
			t.Errorf("hot shard %d was handed a seed gate", si)
		}
		return &messi.QueryStats{}, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// sameAnswers holds cold to hot, bit for bit, on every search flavor.
func sameAnswers(t *testing.T, stage string, hot, cold *Sharded, queries *series.Collection) {
	t.Helper()
	for i := 0; i < queries.Len(); i++ {
		q := queries.At(i)
		want, _, err := hot.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := cold.Search(q, 0)
		if err != nil {
			t.Fatalf("%s: query %d: %v", stage, i, err)
		}
		if got != want {
			t.Fatalf("%s: 1-NN query %d: cold %+v != hot %+v", stage, i, got, want)
		}
		wantK, _, _ := hot.Query(messi.Query{Kind: messi.KNN, Series: q, K: 5, Scope: messi.FullScope})
		gotK, _, err := cold.Query(messi.Query{Kind: messi.KNN, Series: q, K: 5, Scope: messi.FullScope})
		if err != nil || !slices.Equal(gotK, wantK) {
			t.Fatalf("%s: k-NN query %d: cold %+v (%v) != hot %+v", stage, i, gotK, err, wantK)
		}
		wantD, _, _ := messi.First(hot.Query(messi.Query{Kind: messi.DTW, Series: q, Warp: 4, Scope: messi.FullScope}))
		gotD, _, err := messi.First(cold.Query(messi.Query{Kind: messi.DTW, Series: q, Warp: 4, Scope: messi.FullScope}))
		if err != nil || gotD != wantD {
			t.Fatalf("%s: DTW query %d: cold %+v (%v) != hot %+v", stage, i, gotD, err, wantD)
		}
		wantW, _, _ := messi.First(hot.Query(messi.Query{Kind: messi.NN, Series: q, LastN: 300, Scope: messi.FullScope}))
		gotW, _, err := messi.First(cold.Query(messi.Query{Kind: messi.NN, Series: q, LastN: 300, Scope: messi.FullScope}))
		if err != nil || gotW != wantW {
			t.Fatalf("%s: window query %d: cold %+v (%v) != hot %+v", stage, i, gotW, err, wantW)
		}
		wantA, _, _ := messi.First(hot.Query(messi.Query{Kind: messi.Approx, Series: q, Scope: messi.FullScope}))
		gotA, _, err := messi.First(cold.Query(messi.Query{Kind: messi.Approx, Series: q, Scope: messi.FullScope}))
		if err != nil || gotA != wantA {
			t.Fatalf("%s: approximate query %d: cold %+v (%v) != hot %+v", stage, i, gotA, err, wantA)
		}
	}
	for pos := 0; pos < hot.Count(); pos += 7 {
		if !slices.Equal(cold.At(pos), hot.At(pos)) {
			t.Fatalf("%s: At(%d) differs between tiers", stage, pos)
		}
	}
}

// TestColdEquivalence walks a cold index through its whole life beside a
// hot twin — fresh, after appends have merged into the cold shards and split
// their leaves (the staged runs are then subdivided, never reordered), after
// Encode/Decode — at block sizes from one series to more than a leaf,
// all-cold and mixed.
func TestColdEquivalence(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 53}
	coll := g.Collection(900)
	queries := g.PerturbedQueries(coll, 6, 0.05)
	for _, blockSeries := range []int{1, 8, 64} {
		for name, placement := range map[string]func(int) bool{"all-cold": nil, "mixed": func(si int) bool { return si != 1 }} {
			t.Run(fmt.Sprintf("block=%d/%s", blockSeries, name), func(t *testing.T) {
				mo := messi.Options{MergeThreshold: 64}
				hot, err := Build(coll, testConfig(), Options{Shards: 3, Options: mo})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(hot.Close)
				cs := &ColdStorage{CacheBytes: 16 << 10, BlockSeries: blockSeries, Cold: placement}
				cold, err := Build(coll, testConfig(), Options{Shards: 3, ColdStorage: cs, Options: mo})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(cold.Close)
				sameAnswers(t, "fresh", hot, cold, queries)

				leaves := cold.Shard(0).Tree().Stats().Leaves
				for i := 0; i < 400; i++ {
					ser := g.Series(int64(5000 + i))
					if _, err := hot.Append(ser); err != nil {
						t.Fatal(err)
					}
					if _, err := cold.Append(ser); err != nil {
						t.Fatal(err)
					}
				}
				hot.Flush()
				cold.Flush()
				if after := cold.Shard(0).Tree().Stats().Leaves; after <= leaves {
					t.Fatalf("merged appends split no leaf of cold shard 0 (%d → %d leaves)", leaves, after)
				}
				sameAnswers(t, "after merges", hot, cold, queries)

				landed := landedCollection(hot).Slice(0, coll.Len())
				decoded, err := Decode(cold.Encode(), landed, Options{ColdStorage: cs, Options: mo})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(decoded.Close)
				sameAnswers(t, "after decode", hot, decoded, queries)
			})
		}
	}
}

// FuzzColdSlotTable: whatever the policy, shard count and cold subset — and
// whether the trees came from a build or from decoding a compacted index,
// whose trees no longer hold every base position — the slot table is a
// permutation of exactly the cold shards' base positions, each cold shard's
// a contiguous run in shard order, and every position reads back from the
// device bit for bit.
func FuzzColdSlotTable(f *testing.F) {
	f.Add(uint8(3), uint8(0), uint8(0xff), uint8(0), int64(1))
	f.Add(uint8(4), uint8(1), uint8(0b0101), uint8(9), int64(2))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(200), int64(3))
	f.Fuzz(func(t *testing.T, shardsRaw, policyRaw, coldMask, deletes uint8, seed int64) {
		const n = 300
		shards := 1 + int(shardsRaw)%5
		var policy Policy = RoundRobin{}
		if policyRaw%2 == 1 {
			policy = HashSeries{}
		}
		if coldMask&(1<<shards-1) == 0 {
			coldMask |= 1
		}
		isCold := func(si int) bool { return coldMask&(1<<si) != 0 }
		coll := gen.Generator{Kind: gen.Synthetic, Length: 32, Seed: seed}.Collection(n)
		opt := Options{Shards: shards, Policy: policy,
			ColdStorage: &ColdStorage{CacheBytes: 4 << 10, BlockSeries: 1 + int(deletes)%9, Cold: isCold},
			Options:     messi.Options{Workers: 1, MergeThreshold: 1 << 30}}
		s, err := Build(coll, core.Config{Segments: 8, LeafCapacity: 16}, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		checkSlotTable(t, s, coll)

		if deletes > 0 {
			if _, err := s.DeleteRange(0, int(deletes)); err != nil {
				t.Fatal(err)
			}
			s.Compact()
			d, err := Decode(s.Encode(), coll, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			checkSlotTable(t, d, coll)
		}
	})
}

func checkSlotTable(t *testing.T, s *Sharded, coll *series.Collection) {
	t.Helper()
	tier := s.cold
	seen := make([]bool, len(tier.slot))
	hi := int32(0) // the end of the previous cold shard's run
	for si := 0; si < s.n; si++ {
		if !s.coldShards[si] {
			for _, g := range s.baseMap[si] {
				if tier.slot[g] != -1 {
					t.Fatalf("hot position %d has slot %d", g, tier.slot[g])
				}
			}
			continue
		}
		lo := hi
		hi = lo + int32(len(s.baseMap[si]))
		for p, g := range s.baseMap[si] {
			sl := tier.slot[g]
			if sl < lo || sl >= hi || seen[sl] {
				t.Fatalf("cold shard %d: position %d has slot %d (region [%d, %d), taken=%v)",
					si, g, sl, lo, hi, sl >= lo && sl < hi && seen[sl])
			}
			seen[sl] = true
			if !slices.Equal(s.Shard(si).At(p), coll.At(int(g))) {
				t.Fatalf("cold shard %d: local %d (global %d) reads back different values", si, p, g)
			}
		}
	}
	for g := 0; g < coll.Len(); g++ {
		if !slices.Equal(s.At(g), coll.At(g)) {
			t.Fatalf("At(%d) differs from the collection", g)
		}
	}
}
