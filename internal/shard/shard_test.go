package shard

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/series"
	"dsidx/internal/ucr"
	"dsidx/internal/vector"
)

const testLen = 64

func testConfig() core.Config { return core.Config{LeafCapacity: 32} }

func buildSharded(t *testing.T, coll *series.Collection, shards int, policy Policy) *Sharded {
	t.Helper()
	s, err := Build(coll, testConfig(), Options{Shards: shards, Policy: policy,
		Options: messi.Options{MergeThreshold: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// landedCollection copies everything the sharded index serves, in global
// position order, for ground-truth scans.
func landedCollection(s *Sharded) *series.Collection {
	out := series.NewCollection(s.Count(), s.seriesLen)
	for i := 0; i < s.Count(); i++ {
		out.Set(i, s.At(i))
	}
	return out
}

func TestShardedMatchesSerialAcrossShardCountsAndPolicies(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 7}
	coll := g.Collection(1500)
	queries := g.PerturbedQueries(coll, 12, 0.05)
	for _, policy := range []Policy{RoundRobin{}, HashSeries{}} {
		for _, n := range []int{1, 2, 4, 7} {
			s := buildSharded(t, coll, n, policy)
			if s.Shards() != n {
				t.Fatalf("%s/%d: Shards() = %d", policy.Name(), n, s.Shards())
			}
			for i := 0; i < queries.Len(); i++ {
				q := queries.At(i)
				got, st, err := s.Search(q, 0)
				if err != nil {
					t.Fatal(err)
				}
				if st.Observed != coll.Len() {
					t.Fatalf("%s/%d: observed %d, want %d", policy.Name(), n, st.Observed, coll.Len())
				}
				want := ucr.Scan(coll, q)
				if got.Pos != want.Pos || got.Dist != want.Dist {
					t.Fatalf("%s/%d query %d: (#%d, %v) != serial (#%d, %v)",
						policy.Name(), n, i, got.Pos, got.Dist, want.Pos, want.Dist)
				}
				gotK, _, err := s.Query(messi.Query{Kind: messi.KNN, Series: q, K: 5, Scope: messi.FullScope})
				if err != nil {
					t.Fatal(err)
				}
				wantK := ucr.ScanKNN(coll, q, 5)
				if len(gotK) != len(wantK) {
					t.Fatalf("%s/%d query %d: %d k-NN results, want %d",
						policy.Name(), n, i, len(gotK), len(wantK))
				}
				for r := range wantK {
					if gotK[r].Pos != wantK[r].Pos || gotK[r].Dist != wantK[r].Dist {
						t.Fatalf("%s/%d query %d rank %d: (#%d, %v) != serial (#%d, %v)",
							policy.Name(), n, i, r, gotK[r].Pos, gotK[r].Dist, wantK[r].Pos, wantK[r].Dist)
					}
				}
				gotD, _, err := messi.First(s.Query(messi.Query{Kind: messi.DTW, Series: q, Warp: 4, Scope: messi.FullScope}))
				if err != nil {
					t.Fatal(err)
				}
				wantD := ucr.ScanDTW(coll, q, 4)
				if gotD.Pos != wantD.Pos || gotD.Dist != wantD.Dist {
					t.Fatalf("%s/%d DTW query %d: (#%d, %v) != serial (#%d, %v)",
						policy.Name(), n, i, gotD.Pos, gotD.Dist, wantD.Pos, wantD.Dist)
				}
			}
		}
	}
}

func TestShardedSharedPoolServesAllShards(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 11}
	coll := g.Collection(2000)
	queries := g.PerturbedQueries(coll, 8, 0.05)
	s, err := Build(coll, testConfig(), Options{Shards: 4, Policy: RoundRobin{},
		Options: messi.Options{Workers: 4, MergeThreshold: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	qs := make([]series.Series, queries.Len())
	for i := range qs {
		qs[i] = queries.At(i)
	}
	results, stats, err := s.BatchSearchStats(qs)
	if err != nil {
		t.Fatal(err)
	}
	st := s.EngineStats()
	if st.PeakInFlight > s.MaxInFlight() {
		t.Errorf("peak in-flight %d exceeds admission bound %d", st.PeakInFlight, s.MaxInFlight())
	}
	// The pool counts LOGICAL queries: one per scatter-gather, not one per
	// shard, so sampling Queries yields true QPS at any shard count.
	if st.Queries != uint64(len(qs)) {
		t.Errorf("engine counted %d queries for %d scatter-gather searches", st.Queries, len(qs))
	}
	// Easy queries like these run on their callers alone. A k-NN query for
	// every series refines every leaf, so at two workers each shard's caller
	// takes a helper, and it must come from the one pool (a worker books a
	// task just after releasing its group, so wait for the count).
	if _, _, err := s.Query(messi.Query{Kind: messi.KNN, Series: qs[0], K: coll.Len(), Workers: 2, Scope: messi.FullScope}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Second); s.EngineStats().Tasks == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if s.EngineStats().Tasks == 0 {
		t.Error("no tasks executed on the shared pool — shard queries did not use it")
	}
	for i := range qs {
		want := ucr.Scan(coll, qs[i])
		if results[i].Pos != want.Pos || results[i].Dist != want.Dist {
			t.Fatalf("batch query %d: (#%d, %v) != serial (#%d, %v)",
				i, results[i].Pos, results[i].Dist, want.Pos, want.Dist)
		}
		if stats[i].Observed != coll.Len() {
			t.Fatalf("batch query %d observed %d", i, stats[i].Observed)
		}
	}
	// Every shard should have answered (round-robin split leaves no shard
	// empty at this size).
	for si := 0; si < s.Shards(); si++ {
		if s.Shard(si).Count() == 0 {
			t.Fatalf("shard %d is empty", si)
		}
	}
}

func TestShardedAppendVisibleAndGloballyPositioned(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 21}
	coll := g.Collection(600)
	s := buildSharded(t, coll, 3, RoundRobin{})
	extra := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 22}.Collection(200)

	for i := 0; i < 100; i++ {
		pos, err := s.Append(extra.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if pos != 600+i {
			t.Fatalf("append %d landed at global %d", i, pos)
		}
	}
	batch := make([]series.Series, 100)
	for i := range batch {
		batch[i] = extra.At(100 + i)
	}
	start, err := s.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if start != 700 {
		t.Fatalf("batch landed at global %d", start)
	}
	if s.Count() != 800 {
		t.Fatalf("count %d", s.Count())
	}

	// Every appended series is findable as its own nearest neighbor at its
	// global position, and At resolves the same values.
	for i := 0; i < 200; i += 17 {
		got, st, err := s.Search(extra.At(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Pos != int32(600+i) || got.Dist != 0 {
			t.Fatalf("self-query of append %d: (#%d, %v)", i, got.Pos, got.Dist)
		}
		if st.Observed != 800 {
			t.Fatalf("observed %d", st.Observed)
		}
	}
	live := landedCollection(s)
	queries := g.PerturbedQueries(coll, 6, 0.05)
	for i := 0; i < queries.Len(); i++ {
		q := queries.At(i)
		got, _, err := s.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := ucr.Scan(live, q)
		if got.Pos != want.Pos || got.Dist != want.Dist {
			t.Fatalf("query %d: (#%d, %v) != serial (#%d, %v)", i, got.Pos, got.Dist, want.Pos, want.Dist)
		}
	}

	checkIngestStatsSum(t, s)

	// Flush folds every shard's delta; answers must not move.
	s.Flush()
	if p := s.Pending(); p != 0 {
		t.Fatalf("pending %d after Flush", p)
	}
	ist := s.IngestStats()
	if ist.Appended != 200 || ist.Merged != 200 || ist.Merges == 0 || ist.SnapshotSwaps == 0 {
		t.Fatalf("ingest stats after flush: %+v", ist)
	}
	checkIngestStatsSum(t, s)
	for i := 0; i < queries.Len(); i++ {
		q := queries.At(i)
		got, _, err := s.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := ucr.Scan(live, q)
		if got.Pos != want.Pos || got.Dist != want.Dist {
			t.Fatalf("post-flush query %d: (#%d, %v) != serial (#%d, %v)",
				i, got.Pos, got.Dist, want.Pos, want.Dist)
		}
	}
}

// checkIngestStatsSum walks every field of messi.IngestStats: each counter
// of the sharded snapshot must be the sum of the shards' own, and
// MergeThreshold every shard's value — so a counter added to the struct
// cannot be left out of the sharded sum.
func checkIngestStatsSum(t *testing.T, s *Sharded) {
	t.Helper()
	asInt := func(v reflect.Value) int64 {
		if v.CanUint() {
			return int64(v.Uint())
		}
		return v.Int()
	}
	got := reflect.ValueOf(s.IngestStats())
	for f := range got.NumField() {
		name, want := got.Type().Field(f).Name, asInt(got.Field(f))
		var sum int64
		for si := range s.Shards() {
			v := asInt(reflect.ValueOf(s.Shard(si).IngestStats()).Field(f))
			if name == "MergeThreshold" && v != want {
				t.Fatalf("shard %d MergeThreshold %d, sharded %d", si, v, want)
			}
			sum += v
		}
		if name != "MergeThreshold" && sum != want {
			t.Fatalf("sharded IngestStats.%s = %d, shards sum to %d", name, want, sum)
		}
	}
}

func TestShardedPersistRoundTrip(t *testing.T) {
	for _, policy := range []Policy{RoundRobin{}, HashSeries{}} {
		g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 31}
		coll := g.Collection(500)
		s := buildSharded(t, coll, 3, policy)
		extra := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 32}.Collection(120)
		for i := 0; i < 80; i++ {
			if _, err := s.Append(extra.At(i)); err != nil {
				t.Fatal(err)
			}
		}
		s.Flush()
		for i := 80; i < 120; i++ {
			if _, err := s.Append(extra.At(i)); err != nil {
				t.Fatal(err)
			}
		}

		enc := s.Encode()
		if string(enc[:4]) != "DSS1" {
			t.Fatalf("sharded encode magic %q", enc[:4])
		}
		s2, err := Decode(enc, coll, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if s2.Count() != s.Count() || s2.Shards() != s.Shards() || s2.PolicyName() != policy.Name() {
			t.Fatalf("%s: decoded count=%d shards=%d policy=%s", policy.Name(),
				s2.Count(), s2.Shards(), s2.PolicyName())
		}
		if s2.Pending() != s.Pending() {
			t.Fatalf("%s: decoded pending %d, want %d", policy.Name(), s2.Pending(), s.Pending())
		}
		if enc2 := s2.Encode(); string(enc2) != string(enc) {
			t.Fatalf("%s: re-encode differs from original", policy.Name())
		}
		live := landedCollection(s)
		queries := g.PerturbedQueries(coll, 6, 0.05)
		for i := 0; i < queries.Len(); i++ {
			q := queries.At(i)
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
				t.Fatalf("%s round-trip query %d: %+v vs %+v vs serial %+v", policy.Name(), i, a, b, want)
			}
		}
		// Appended series travel with the shards and keep their global
		// positions across the round trip.
		got, _, err := s2.Search(extra.At(100), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Pos != 600 || got.Dist != 0 {
			t.Fatalf("%s: decoded self-query: (#%d, %v)", policy.Name(), got.Pos, got.Dist)
		}
	}
}

func TestLegacySingleIndexLoadsAsOneShard(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 41}
	coll := g.Collection(400)
	ix, err := messi.Build(coll, testConfig(), messi.Options{MergeThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	extra := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 42}.Collection(50)
	for i := 0; i < extra.Len(); i++ {
		if _, err := ix.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Both the bare DSI1 form (no appends — encode before the appends
	// happened is equivalent to a fresh build) and the DSL1 live form must
	// load as a 1-shard instance with unchanged positions and answers.
	enc := ix.Encode()
	s, err := Decode(enc, coll, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Shards() != 1 || s.Count() != ix.Count() || s.Pending() != ix.Pending() {
		t.Fatalf("legacy load: shards=%d count=%d pending=%d, want 1/%d/%d",
			s.Shards(), s.Count(), s.Pending(), ix.Count(), ix.Pending())
	}
	queries := g.PerturbedQueries(coll, 8, 0.05)
	for i := 0; i < queries.Len(); i++ {
		q := queries.At(i)
		a, _, err := ix.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := s.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("legacy query %d: plain %+v != 1-shard %+v", i, a, b)
		}
	}
	// Appended positions are identity-mapped.
	got, _, err := s.Search(extra.At(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pos != 410 || got.Dist != 0 {
		t.Fatalf("legacy append self-query: (#%d, %v)", got.Pos, got.Dist)
	}

	// Requesting a conflicting topology is an error, not a silent ignore —
	// for the shard count and for the policy (a legacy file loads, and
	// re-encodes, as round-robin).
	if _, err := Decode(enc, coll, Options{Shards: 4}); err == nil {
		t.Fatal("legacy file decoded under Shards=4")
	}
	if _, err := Decode(enc, coll, Options{Policy: HashSeries{}}); err == nil {
		t.Fatal("legacy file decoded under an explicit hash policy")
	}
	if rr, err := Decode(enc, coll, Options{Policy: RoundRobin{}}); err != nil {
		t.Fatalf("legacy file rejected under an explicit round-robin policy: %v", err)
	} else {
		rr.Close()
	}
}

func TestShardedDecodeRejectsCorruptManifests(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 51}
	coll := g.Collection(200)
	s := buildSharded(t, coll, 2, RoundRobin{})
	enc := s.Encode()

	cases := map[string][]byte{
		"truncated header": enc[:10],
		"bad version":      append([]byte("DSS1\xff\xff\xff\xff"), enc[8:]...),
		"bad policy":       append([]byte("DSS1\x01\x00\x00\x00\x99\x00\x00\x00"), enc[12:]...),
		"zero shards":      append(append([]byte{}, enc[:12]...), append([]byte{0, 0, 0, 0}, enc[16:]...)...),
		"truncated blob":   enc[:len(enc)-8],
		"trailing bytes":   append(append([]byte{}, enc...), 1, 2, 3),
	}
	for name, data := range cases {
		if _, err := Decode(data, coll, Options{}); err == nil {
			t.Errorf("%s: corrupt manifest decoded without error", name)
		}
	}
	// Wrong base collection shape.
	if _, err := Decode(enc, g.Collection(100), Options{}); err == nil {
		t.Error("manifest decoded over a wrong-size base collection")
	}
}

func TestShardedEmptyAndErrorPaths(t *testing.T) {
	coll := series.NewCollection(0, testLen)
	s := buildSharded(t, coll, 2, RoundRobin{})
	q := make(series.Series, testLen)
	got, st, err := s.Search(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pos != -1 || st.Observed != 0 {
		t.Fatalf("empty index answered (#%d, observed %d)", got.Pos, st.Observed)
	}
	if _, _, err := s.Search(make(series.Series, 3), 0); err == nil {
		t.Fatal("wrong-length query accepted")
	}
	if _, err := s.Append(make(series.Series, 3)); err == nil {
		t.Fatal("wrong-length append accepted")
	}
	if _, err := s.AppendBatch([]series.Series{q, make(series.Series, 1)}); err == nil {
		t.Fatal("wrong-length batch accepted")
	}
	if k, _, err := s.Query(messi.Query{Kind: messi.KNN, Series: q, K: 0, Scope: messi.FullScope}); err != nil || k != nil {
		t.Fatalf("k=0 returned (%v, %v)", k, err)
	}

	// Appends into an empty sharded index still work and are searchable.
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 61}
	extra := g.Collection(40)
	for i := 0; i < extra.Len(); i++ {
		if _, err := s.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	r, st2, err := s.Search(extra.At(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pos != 5 || r.Dist != 0 || st2.Observed != 40 {
		t.Fatalf("append-only self-query: (#%d, %v) observed %d", r.Pos, r.Dist, st2.Observed)
	}

	// Too many shards is a construction error.
	if _, err := Build(extra, testConfig(), Options{Shards: MaxShards + 1}); err == nil {
		t.Fatal("Build accepted more than MaxShards shards")
	}
}

func TestShardedApproximateUpperBounds(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 71}
	coll := g.Collection(1200)
	queries := g.PerturbedQueries(coll, 10, 0.05)
	s := buildSharded(t, coll, 4, HashSeries{})
	for i := 0; i < queries.Len(); i++ {
		q := queries.At(i)
		approx, _, err := messi.First(s.Query(messi.Query{Kind: messi.Approx, Series: q, Scope: messi.FullScope}))
		if err != nil {
			t.Fatal(err)
		}
		exact := ucr.Scan(coll, q)
		if approx.Pos < 0 || approx.Pos >= int32(coll.Len()) {
			t.Fatalf("approx position %d out of range", approx.Pos)
		}
		if approx.Dist < exact.Dist {
			t.Fatalf("approximate distance %v below exact %v", approx.Dist, exact.Dist)
		}
		// The reported position's true distance must equal the reported one
		// (same vector kernel the index computes with).
		if d := vector.SquaredEDEarlyAbandon(q, coll.At(int(approx.Pos)), math.Inf(1)); d != approx.Dist {
			t.Fatalf("approx reports %v for #%d, true distance %v", approx.Dist, approx.Pos, d)
		}
	}
}

func TestShardedAdmissionAndBatchSearch(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 31}
	coll := g.Collection(300)
	s := buildSharded(t, coll, 3, RoundRobin{})
	if s.MaxInFlight() <= 0 {
		t.Fatalf("MaxInFlight() = %d", s.MaxInFlight())
	}
	for _, tenant := range []string{"", "a"} {
		release, err := s.AdmitTenantContext(context.Background(), tenant)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	qs := []series.Series{coll.At(0), coll.At(7), coll.At(123)}
	want := []int32{0, 7, 123}
	rs, _, err := s.BatchSearchStats(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Pos != want[i] || r.Dist != 0 {
			t.Errorf("query %d: got pos %d dist %v, want exact self-match at %d",
				i, r.Pos, r.Dist, want[i])
		}
	}
}

// TestDuplicateSeriesAnswerLowestPosition: two exact duplicates are
// equidistant from every query, under ED and DTW alike. Whichever shard,
// worker or leaf reaches its copy first, the 1-NN and DTW answer is the lower
// position — what the serial scan reports — and a k-NN answer ranks the pair
// by position and, when the k-th place falls between them, keeps the lower:
// on hot and cold placements, one shard or four (42 and 301 then sit on
// different shards), one worker or two. The DTW tie holds even when the
// higher copy is already the threshold before the lower one is refined.
func TestDuplicateSeriesAnswerLowestPosition(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 61}
	coll := g.Collection(400)
	coll.Set(301, coll.At(42)) // round-robin over 4 shards: 42 → shard 2, 301 → shard 1
	queries := g.PerturbedQueries(coll.Slice(42, 43), 20, 0.05)
	// The serial k-NN ranking: every distance, ordered by (distance, position).
	ranked := func(q series.Series) []core.Result {
		all := make([]core.Result, coll.Len())
		for i := range all {
			all[i] = core.Result{Pos: int32(i), Dist: vector.SquaredED(q, coll.At(i))}
		}
		slices.SortFunc(all, func(a, b core.Result) int {
			return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Pos, b.Pos))
		})
		return all
	}
	const window = 4
	for name, cs := range map[string]*ColdStorage{"hot": nil, "cold": coldOptions(nil)} {
		for _, shards := range []int{1, 4} {
			for _, workers := range []int{1, 2} {
				s, err := Build(coll, testConfig(), Options{Shards: shards, ColdStorage: cs,
					Options: messi.Options{Workers: workers, MergeThreshold: 1 << 30}})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Close)
				for i := 0; i < queries.Len(); i++ {
					q := queries.At(i)
					at := fmt.Sprintf("%s, %d shards, %d workers, query %d", name, shards, workers, i)
					want := ucr.Scan(coll, q)
					if want.Pos != 42 {
						t.Fatalf("query %d: serial scan answers #%d, the test wants a query nearest to #42", i, want.Pos)
					}
					if got, _, err := s.Search(q, 0); err != nil || got != want {
						t.Fatalf("%s: 1-NN %+v (%v) != serial %+v", at, got, err, want)
					}
					wantDTW := ucr.ScanDTW(coll, q, window)
					if wantDTW.Pos != 42 {
						t.Fatalf("query %d: serial DTW scan answers #%d, want #42", i, wantDTW.Pos)
					}
					if got, _, err := messi.First(s.Query(messi.Query{Kind: messi.DTW, Series: q, Warp: window, Scope: messi.FullScope})); err != nil || got != wantDTW {
						t.Fatalf("%s: DTW %+v (%v) != serial %+v", at, got, err, wantDTW)
					}
					// At warp 0 LB_Keogh equals DTW bit for bit. With the
					// higher copy already in the sink at the exact distance,
					// as a sibling shard would leave it, the lower copy's
					// bound ties the threshold: it must still pay its DTW and
					// win the tie.
					tie := messi.Query{Kind: messi.DTW, Series: q, Scope: messi.FullScope}
					sink := messi.NewSink(tie)
					d := series.DTW(q, coll.At(301), 0, math.Inf(1))
					sink.Best.Update(d, 301)
					si, _ := s.locate(42)
					if _, err := s.Shard(si).Run(tie, &sink, s.mappers[si]); err != nil {
						t.Fatal(err)
					}
					if r := sink.Results()[0]; r.Pos != 42 || r.Dist != d {
						t.Fatalf("%s: warp-0 DTW behind the higher copy answered (#%d, %v), want (#42, %v)", at, r.Pos, r.Dist, d)
					}
					order := ranked(q)
					for k := 1; k <= 3; k++ {
						if got, _, err := s.Query(messi.Query{Kind: messi.KNN, Series: q, K: k, Scope: messi.FullScope}); err != nil || !slices.Equal(got, order[:k]) {
							t.Fatalf("%s: %d-NN %+v (%v) != serial %+v", at, k, got, err, order[:k])
						}
					}
				}
			}
		}
	}
}

// goid is the calling goroutine's id, from its stack header ("goroutine N
// [running]:").
func goid() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestScatterRunsOneShardOnTheCaller: a scatter runs the last serving
// shard's sub-search on the calling goroutine and every other on a
// goroutine of its own, hot or cold, so a one-shard query starts no
// goroutine — a MESSI pays what its one tree does — and N shards start
// N−1. Over a device the caller's shard still waits at the seeding gate
// for its siblings.
func TestScatterRunsOneShardOnTheCaller(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 49}
	coll := g.Collection(400)
	for name, cs := range map[string]*ColdStorage{"hot": nil, "cold": coldOptions(nil)} {
		for _, shards := range []int{1, 4} {
			s, err := Build(coll, testConfig(), Options{Shards: shards, ColdStorage: cs})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			caller := goid()
			var mu sync.Mutex
			ran := map[string][]int{}
			cuts, _ := s.view()
			if err := s.scatter(messi.FullScope, cuts, &messi.QueryStats{}, func(si int, scope messi.Scope) (*messi.QueryStats, error) {
				if scope.Seeded != nil {
					scope.Seeded()
				}
				mu.Lock()
				ran[goid()] = append(ran[goid()], si)
				mu.Unlock()
				return &messi.QueryStats{}, nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(ran) != shards || !slices.Equal(ran[caller], []int{shards - 1}) {
				t.Errorf("%s, %d shards: sub-searches ran on goroutines %v, the caller %s running %v; want the last shard on the caller and one goroutine per other shard",
					name, shards, ran, caller, ran[caller])
			}
		}
	}
}

// TestDeleteRangePublishesOncePerShard: a shard's positions inside a global
// range are one run of its local positions, so DeleteRange publishes one
// copy-on-write tombstone set per shard, not one per position. A 64-position
// delete across the base and the appends of four shards allocates no more
// than four one-position deletes on one shard do, and tombstones exactly
// those 64 positions.
func TestDeleteRangePublishesOncePerShard(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 53}
	coll := g.Collection(1000)
	s := buildSharded(t, coll, 4, RoundRobin{})
	extra := g.Collection(40)
	for i := 0; i < extra.Len(); i++ {
		if _, err := s.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := coll.Len()-32, coll.Len()+32
	n, err := s.DeleteRange(lo, hi)
	if err != nil || n != hi-lo || s.Tombstoned() != hi-lo {
		t.Fatalf("DeleteRange(%d, %d) = %d (%v), %d tombstoned; want %d", lo, hi, n, err, s.Tombstoned(), hi-lo)
	}
	for pos := lo; pos < hi; pos++ {
		if newly, err := s.Delete(pos); err != nil || newly {
			t.Fatalf("position %d: not tombstoned by the range (%v)", pos, err)
		}
	}
	for _, pos := range []int{lo - 1, hi} {
		if newly, err := s.Delete(pos); err != nil || !newly {
			t.Fatalf("position %d, outside the range: tombstoned by it (%v)", pos, err)
		}
	}
	one := testing.AllocsPerRun(8, func() { s.shards[0].DeleteRange(0, 1) })
	got := testing.AllocsPerRun(8, func() { s.DeleteRange(lo, hi) })
	t.Logf("allocations: %v per one-position delete on one shard, %v per 64-position DeleteRange", one, got)
	if got > float64(s.Shards())*one {
		t.Errorf("a 64-position DeleteRange over %d shards allocates %v times, one shard's one-position delete %v", s.Shards(), got, one)
	}
}
