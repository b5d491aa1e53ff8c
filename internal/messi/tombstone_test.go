package messi

// Unit coverage for the delete/TTL/window surface: range validation,
// idempotence, the at-or-before expiry boundary, and the sliding-window
// scope — each checked against serial live scans for bit-identical answers
// across compaction states.

import (
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/ucr"
)

// buildTombIndex returns a small index (large merge threshold, so appended
// series stay in the delta) plus its content mirror.
func buildTombIndex(t *testing.T, n, appends int) (*Index, *gen.Generator) {
	t.Helper()
	g := &gen.Generator{Kind: gen.Synthetic, Length: 32, Seed: 67}
	base := g.Collection(n)
	ix, err := Build(base, core.Config{Segments: 8, LeafCapacity: 16},
		Options{Workers: 1, MergeThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ix.Close)
	mirror := g.Collection(n + appends)
	for i := n; i < n+appends; i++ {
		if _, err := ix.Append(mirror.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	return ix, g
}

func TestDeleteValidationAndIdempotence(t *testing.T) {
	ix, _ := buildTombIndex(t, 40, 8)
	for _, bad := range [][2]int{{-1, 0}, {0, 49}, {5, 3}, {49, 50}} {
		if _, err := ix.DeleteRange(bad[0], bad[1]); err == nil {
			t.Errorf("DeleteRange(%d, %d) accepted an invalid range", bad[0], bad[1])
		}
	}
	if n, err := ix.DeleteRange(7, 7); err != nil || n != 0 {
		t.Errorf("empty range: %d, %v", n, err)
	}
	newly, err := ix.Delete(3)
	if err != nil || !newly {
		t.Fatalf("first delete: %v, %v", newly, err)
	}
	newly, err = ix.Delete(3)
	if err != nil || newly {
		t.Fatalf("second delete reported newly=%v, %v", newly, err)
	}
	// Range overlapping the existing tombstone and the base/append seam.
	n, err := ix.DeleteRange(2, 44)
	if err != nil || n != 41 {
		t.Fatalf("overlap range deleted %d, %v; want 41", n, err)
	}
	if ix.Tombstoned() != 42 || ix.Live() != 48-42 {
		t.Fatalf("tombstoned %d live %d, want 42/6", ix.Tombstoned(), ix.Live())
	}
}

func TestExpireBeforeBoundary(t *testing.T) {
	ix, g := buildTombIndex(t, 30, 0)
	s := g.Series(1000)
	pos, err := ix.AppendWithTTL(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Expiry is at-or-before: now=9 keeps the series, now=10 reaps it.
	if n := ix.ExpireBefore(9); n != 0 {
		t.Fatalf("expired %d at now=9, deadline 10", n)
	}
	if n := ix.ExpireBefore(10); n != 1 {
		t.Fatalf("expired %d at now=10, deadline 10", n)
	}
	if !ix.tombstones().has(int32(pos)) {
		t.Fatal("expired position not tombstoned")
	}
	// The entry is consumed: advancing the clock expires nothing new.
	if n := ix.ExpireBefore(1 << 40); n != 0 {
		t.Fatal("ttl entry survived its expiry")
	}

	// SetTTL replaces an existing deadline in place.
	pos2, err := ix.AppendWithTTL(g.Series(1001), 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SetTTL(pos2, 40); err != nil {
		t.Fatal(err)
	}
	if n := ix.ExpireBefore(30); n != 0 {
		t.Fatal("replaced deadline still expired at the old time")
	}
	if n := ix.ExpireBefore(40); n != 1 {
		t.Fatal("replaced deadline did not expire at the new time")
	}

	// A TTL on an already-deleted position expires silently (not newly).
	pos3, err := ix.AppendWithTTL(g.Series(1002), 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Delete(pos3); err != nil {
		t.Fatal(err)
	}
	if n := ix.ExpireBefore(50); n != 0 {
		t.Fatalf("deleted position counted as newly expired: %d", n)
	}

	// SetTTL range validation.
	if err := ix.SetTTL(-1, 5); err == nil {
		t.Error("SetTTL(-1) accepted")
	}
	if err := ix.SetTTL(ix.Count(), 5); err == nil {
		t.Error("SetTTL(Count()) accepted")
	}
}

func TestSearchWindowBasics(t *testing.T) {
	ix, g := buildTombIndex(t, 50, 20)
	mirror := g.Collection(70)
	q := g.PerturbedQueries(mirror, 1, 0.05).At(0)

	check := func(state string) {
		t.Helper()
		for _, n := range []int{1, 7, 20, 35, 70, 1000} {
			got, _, err := First(ix.Query(Query{Kind: NN, Series: q, LastN: n, Scope: FullScope}))
			if err != nil {
				t.Fatal(err)
			}
			want := ucr.ScanLive(mirror, q, 70-n, nil)
			if got != core.Result(want) {
				t.Fatalf("%s: window %d: got (#%d, %v), serial suffix scan says (#%d, %v)",
					state, n, got.Pos, got.Dist, want.Pos, want.Dist)
			}
		}
		// A window wider than everything landed degenerates to Search.
		wide, _, err := First(ix.Query(Query{Kind: NN, Series: q, LastN: 1000, Scope: FullScope}))
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := ix.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if wide != full {
			t.Fatalf("%s: wide window %+v != full search %+v", state, wide, full)
		}
	}
	check("pre-flush")
	ix.Flush()
	check("post-flush")
}

func TestSearchWindowWithDeletes(t *testing.T) {
	ix, g := buildTombIndex(t, 50, 10)
	mirror := g.Collection(60)
	q := g.PerturbedQueries(mirror, 1, 0.05).At(0)

	// Delete a band straddling the window edge.
	if _, err := ix.DeleteRange(40, 55); err != nil {
		t.Fatal(err)
	}
	dead := func(p int) bool { return p >= 40 && p < 55 }
	for _, n := range []int{5, 15, 25, 60} {
		got, _, err := First(ix.Query(Query{Kind: NN, Series: q, LastN: n, Scope: FullScope}))
		if err != nil {
			t.Fatal(err)
		}
		want := ucr.ScanLive(mirror, q, 60-n, dead)
		if got != core.Result(want) {
			t.Fatalf("window %d: got (#%d, %v), serial live suffix scan says (#%d, %v)",
				n, got.Pos, got.Dist, want.Pos, want.Dist)
		}
	}
	// An all-deleted window answers NoResult rather than leaking a
	// tombstoned or out-of-window series.
	got, _, err := First(ix.Query(Query{Kind: NN, Series: q, LastN: 5, Scope: FullScope}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Pos >= 0 && dead(int(got.Pos)) {
		t.Fatalf("window over deleted suffix answered deleted series %d", got.Pos)
	}
	ix.Compact()
	got2, _, err := First(ix.Query(Query{Kind: NN, Series: q, LastN: 5, Scope: FullScope}))
	if err != nil {
		t.Fatal(err)
	}
	if got2 != got {
		t.Fatalf("compaction changed the window answer: %+v != %+v", got2, got)
	}
}

func TestDeleteVisibleInAllFlavors(t *testing.T) {
	ix, g := buildTombIndex(t, 60, 12)
	mirror := g.Collection(72)
	q := g.PerturbedQueries(mirror, 1, 0.03).At(0)

	// Delete the true nearest neighbor and check every flavor skips it,
	// before and after flush and compaction.
	victim := int(ucr.Scan(mirror, q).Pos)
	if _, err := ix.Delete(victim); err != nil {
		t.Fatal(err)
	}
	dead := func(p int) bool { return p == victim }
	check := func(state string) {
		t.Helper()
		got, _, err := ix.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := ucr.ScanLive(mirror, q, 0, dead); got != core.Result(want) {
			t.Fatalf("%s: 1-NN %+v, want %+v", state, got, want)
		}
		knn, _, err := ix.Query(Query{Kind: KNN, Series: q, K: 4, Scope: FullScope})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range knn {
			if int(r.Pos) == victim {
				t.Fatalf("%s: k-NN returned deleted %d", state, victim)
			}
		}
		dtw, _, err := First(ix.Query(Query{Kind: DTW, Series: q, Warp: 4, Scope: FullScope}))
		if err != nil {
			t.Fatal(err)
		}
		if want := ucr.ScanLiveDTW(mirror, q, 4, 0, dead); dtw != core.Result(want) {
			t.Fatalf("%s: DTW %+v, want %+v", state, dtw, want)
		}
		approx, _, err := First(ix.Query(Query{Kind: Approx, Series: q, Scope: FullScope}))
		if err != nil {
			t.Fatal(err)
		}
		if int(approx.Pos) == victim {
			t.Fatalf("%s: approximate returned deleted %d", state, victim)
		}
	}
	check("pre-flush")
	ix.Flush()
	check("post-flush")
	ix.Compact()
	check("post-compact")
}
