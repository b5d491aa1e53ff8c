package shard

import (
	"bytes"
	"testing"

	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/series"
)

// buildDiff builds a sharded index with one worker, so builds are fully
// deterministic and their encodings are comparable byte-for-byte. Without
// copyBase it is Build itself: every shard indexes a zero-copy view of the
// caller's collection. With copyBase it assembles the same index by hand
// over a flat copy of each shard's slice instead — the baseline a view
// build must equal.
func buildDiff(t *testing.T, coll *series.Collection, shards int, policy Policy, copyBase bool) *Sharded {
	t.Helper()
	opt := Options{Shards: shards, Policy: policy,
		Options: messi.Options{Workers: 1, MergeThreshold: 1 << 30}}
	if !copyBase {
		s, err := Build(coll, testConfig(), opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	opt, err := opt.normalize()
	if err != nil {
		t.Fatal(err)
	}
	s, views := newShell(coll, opt)
	for si, v := range views {
		flat := series.NewCollection(0, coll.SeriesLen())
		for i := 0; i < v.Len(); i++ {
			flat.Append(v.At(i))
		}
		if s.shards[si], err = messi.Build(flat, testConfig(), s.shardOptions(si)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.finish(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// assertSameAnswers runs the full query surface against both instances and
// fails on any non-bit-identical answer.
func assertSameAnswers(t *testing.T, view, copied *Sharded, queries *series.Collection) {
	t.Helper()
	for i := 0; i < queries.Len(); i++ {
		q := queries.At(i)
		vr, _, err := view.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		cr, _, err := copied.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if vr != cr {
			t.Fatalf("query %d: view 1-NN (#%d, %v) != copy 1-NN (#%d, %v)",
				i, vr.Pos, vr.Dist, cr.Pos, cr.Dist)
		}
		vk, _, err := view.Query(messi.Query{Kind: messi.KNN, Series: q, K: 5, Scope: messi.FullScope})
		if err != nil {
			t.Fatal(err)
		}
		ck, _, err := copied.Query(messi.Query{Kind: messi.KNN, Series: q, K: 5, Scope: messi.FullScope})
		if err != nil {
			t.Fatal(err)
		}
		if len(vk) != len(ck) {
			t.Fatalf("query %d: view %d k-NN results, copy %d", i, len(vk), len(ck))
		}
		for r := range vk {
			if vk[r] != ck[r] {
				t.Fatalf("query %d rank %d: view (#%d, %v) != copy (#%d, %v)",
					i, r, vk[r].Pos, vk[r].Dist, ck[r].Pos, ck[r].Dist)
			}
		}
		vd, _, err := messi.First(view.Query(messi.Query{Kind: messi.DTW, Series: q, Warp: 4, Scope: messi.FullScope}))
		if err != nil {
			t.Fatal(err)
		}
		cd, _, err := messi.First(copied.Query(messi.Query{Kind: messi.DTW, Series: q, Warp: 4, Scope: messi.FullScope}))
		if err != nil {
			t.Fatal(err)
		}
		if vd != cd {
			t.Fatalf("query %d: view DTW (#%d, %v) != copy DTW (#%d, %v)",
				i, vd.Pos, vd.Dist, cd.Pos, cd.Dist)
		}
		va, _, err := messi.First(view.Query(messi.Query{Kind: messi.Approx, Series: q, Scope: messi.FullScope}))
		if err != nil {
			t.Fatal(err)
		}
		ca, _, err := messi.First(copied.Query(messi.Query{Kind: messi.Approx, Series: q, Scope: messi.FullScope}))
		if err != nil {
			t.Fatal(err)
		}
		if va != ca {
			t.Fatalf("query %d: view approx (#%d, %v) != copy approx (#%d, %v)",
				i, va.Pos, va.Dist, ca.Pos, ca.Dist)
		}
	}
}

// TestViewBuildIdenticalToCopyBuild is the tentpole's differential test: a
// shard built over zero-copy position-remapping views must produce
// bit-identical answers AND byte-identical persistence output versus one
// built over materialized flat copies — through builds, appends, merges
// and save/load.
func TestViewBuildIdenticalToCopyBuild(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 41}
	coll := g.Collection(1200)
	queries := g.PerturbedQueries(coll, 10, 0.05)
	for _, policy := range []Policy{RoundRobin{}, HashSeries{}} {
		for _, n := range []int{1, 3, 4} {
			view := buildDiff(t, coll, n, policy, false)
			copied := buildDiff(t, coll, n, policy, true)
			if _, ok := copied.Shard(0).Raw().(*series.Collection); !ok {
				t.Fatalf("copy build shard 0 raw backing is %T, want *series.Collection", copied.Shard(0).Raw())
			}

			assertSameAnswers(t, view, copied, queries)
			if ve, ce := view.Encode(), copied.Encode(); !bytes.Equal(ve, ce) {
				t.Fatalf("%s/%d: view Encode (%d bytes) != copy Encode (%d bytes)",
					policy.Name(), n, len(ve), len(ce))
			}

			// Appends route and merge identically on both; re-check after
			// the write path has run.
			for i := 0; i < 300; i++ {
				s := g.Series(int64(coll.Len() + i))
				if _, err := view.Append(s); err != nil {
					t.Fatal(err)
				}
				if _, err := copied.Append(s); err != nil {
					t.Fatal(err)
				}
			}
			view.Flush()
			copied.Flush()
			assertSameAnswers(t, view, copied, queries)
			if ve, ce := view.Encode(), copied.Encode(); !bytes.Equal(ve, ce) {
				t.Fatalf("%s/%d post-append: view Encode != copy Encode", policy.Name(), n)
			}
		}
	}
}

// TestViewBuildHoldsBaseOnce pins the zero-copy wiring end to end: every
// shard of a default build indexes through a *series.View whose series
// alias the caller's collection — no shard holds its own copy of the base
// values.
func TestViewBuildHoldsBaseOnce(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 43}
	coll := g.Collection(600)
	s := buildSharded(t, coll, 4, RoundRobin{})
	for si := 0; si < s.Shards(); si++ {
		v, ok := s.Shard(si).Raw().(*series.View)
		if !ok {
			t.Fatalf("shard %d raw backing is %T, want *series.View", si, s.Shard(si).Raw())
		}
		if v.Base() != series.Reader(coll) {
			t.Fatalf("shard %d view base is not the caller's collection", si)
		}
		for i := 0; i < v.Len(); i++ {
			gp := v.Positions()[i]
			if &v.At(i)[0] != &coll.At(int(gp))[0] {
				t.Fatalf("shard %d series %d does not alias base series %d", si, i, gp)
			}
		}
	}
}

// TestDecodeRestoresViews verifies Decode replays the same zero-copy views
// a fresh build would use: loading never re-materializes per-shard copies.
func TestDecodeRestoresViews(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 47}
	coll := g.Collection(500)
	s := buildSharded(t, coll, 3, HashSeries{})
	for i := 0; i < 40; i++ {
		if _, err := s.Append(g.Series(int64(coll.Len() + i))); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := Decode(s.Encode(), coll, Options{Options: messi.Options{MergeThreshold: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Close()
	for si := 0; si < dec.Shards(); si++ {
		v, ok := dec.Shard(si).Raw().(*series.View)
		if !ok {
			t.Fatalf("decoded shard %d raw backing is %T, want *series.View", si, dec.Shard(si).Raw())
		}
		if v.Base() != series.Reader(coll) {
			t.Fatalf("decoded shard %d view base is not the caller's collection", si)
		}
	}
	queries := g.PerturbedQueries(coll, 6, 0.05)
	live := landedCollection(s)
	for i := 0; i < queries.Len(); i++ {
		q := queries.At(i)
		want, _, err := s.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := dec.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || int(got.Pos) >= live.Len() {
			t.Fatalf("query %d: decoded (#%d, %v) != original (#%d, %v)",
				i, got.Pos, got.Dist, want.Pos, want.Dist)
		}
	}
}
