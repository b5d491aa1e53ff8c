package ucr

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"dsidx/internal/gen"
	"dsidx/internal/series"
	"dsidx/internal/storage"
	"dsidx/internal/vector"
)

func testData(t *testing.T, n int) (*series.Collection, *series.Collection) {
	t.Helper()
	g := gen.Generator{Kind: gen.Synthetic, Length: 128, Seed: 31}
	return g.Collection(n), g.Queries(10)
}

func TestScanMatchesBruteForce(t *testing.T) {
	coll, queries := testData(t, 500)
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		wantPos, wantDist := coll.BruteForce1NN(q)
		got := Scan(coll, q)
		if int(got.Pos) != wantPos || math.Abs(got.Dist-wantDist) > 1e-9 {
			t.Fatalf("query %d: Scan = (%d,%v), brute force = (%d,%v)",
				qi, got.Pos, got.Dist, wantPos, wantDist)
		}
	}
}

func TestScanEmpty(t *testing.T) {
	coll := series.NewCollection(0, 8)
	got := Scan(coll, make(series.Series, 8))
	if got.Pos != -1 || !math.IsInf(got.Dist, 1) {
		t.Fatalf("empty scan = %+v", got)
	}
}

func TestParallelScanMatchesSerial(t *testing.T) {
	coll, queries := testData(t, 1000)
	for _, workers := range []int{1, 2, 4, 8, 0} {
		for qi := 0; qi < queries.Len(); qi++ {
			q := queries.At(qi)
			want := Scan(coll, q)
			got := ParallelScan(coll, q, workers)
			if math.Abs(got.Dist-want.Dist) > 1e-6*math.Max(1, want.Dist) {
				t.Fatalf("workers=%d query %d: parallel dist %v != serial %v",
					workers, qi, got.Dist, want.Dist)
			}
		}
	}
}

func TestScanKNN(t *testing.T) {
	coll, queries := testData(t, 400)
	q := queries.At(0)
	const k = 5
	got := ScanKNN(coll, q, k)
	if len(got) != k {
		t.Fatalf("returned %d results, want %d", len(got), k)
	}
	// Ascending order.
	for i := 1; i < k; i++ {
		if got[i].Dist < got[i-1].Dist {
			t.Fatalf("results not sorted: %v", got)
		}
	}
	// Matches an exhaustive k-NN.
	type pair struct {
		pos  int
		dist float64
	}
	all := make([]pair, coll.Len())
	for i := 0; i < coll.Len(); i++ {
		all[i] = pair{i, series.SquaredED(q, coll.At(i))}
	}
	for i := 0; i < k; i++ {
		minJ := i
		for j := i + 1; j < len(all); j++ {
			if all[j].dist < all[minJ].dist {
				minJ = j
			}
		}
		all[i], all[minJ] = all[minJ], all[i]
		if math.Abs(got[i].Dist-all[i].dist) > 1e-9 {
			t.Fatalf("k-NN %d: %v, want %v", i, got[i].Dist, all[i].dist)
		}
	}
	// First result agrees with 1-NN scan.
	if got[0].Pos != Scan(coll, q).Pos {
		t.Error("k-NN first result differs from 1-NN")
	}
}

func TestScanKNNDegenerate(t *testing.T) {
	coll, queries := testData(t, 3)
	if got := ScanKNN(coll, queries.At(0), 0); got != nil {
		t.Error("k=0 should return nil")
	}
	got := ScanKNN(coll, queries.At(0), 10)
	if len(got) != 3 {
		t.Fatalf("k beyond collection size: %d results, want 3", len(got))
	}
}

func TestScanDiskMatchesMemory(t *testing.T) {
	coll, queries := testData(t, 300)
	store := storage.NewMemStore()
	f, err := storage.WriteCollection(store, coll)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 3; qi++ {
		q := queries.At(qi)
		want := Scan(coll, q)
		for _, batch := range []int{0, 7, 100, 1000} {
			got, err := ScanDisk(f, q, batch)
			if err != nil {
				t.Fatal(err)
			}
			if got.Pos != want.Pos || math.Abs(got.Dist-want.Dist) > 1e-9 {
				t.Fatalf("batch=%d: disk scan (%d,%v) != memory (%d,%v)",
					batch, got.Pos, got.Dist, want.Pos, want.Dist)
			}
		}
	}
}

func TestScanDTWMatchesBruteForce(t *testing.T) {
	g := gen.Generator{Kind: gen.SALD, Length: 64, Seed: 8}
	coll := g.Collection(150)
	queries := g.Queries(5)
	window := 5
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		// Brute force DTW.
		wantPos, wantDist := -1, math.Inf(1)
		for i := 0; i < coll.Len(); i++ {
			if d := series.DTW(q, coll.At(i), window, math.Inf(1)); d < wantDist {
				wantPos, wantDist = i, d
			}
		}
		got := ScanDTW(coll, q, window)
		if int(got.Pos) != wantPos || math.Abs(got.Dist-wantDist) > 1e-6 {
			t.Fatalf("query %d: ScanDTW = (%d,%v), want (%d,%v)",
				qi, got.Pos, got.Dist, wantPos, wantDist)
		}
	}
}

func TestDTWTighterThanED(t *testing.T) {
	// DTW-NN distance never exceeds ED-NN distance for the same query.
	g := gen.Generator{Kind: gen.Seismic, Length: 64, Seed: 17}
	coll := g.Collection(100)
	q := g.Queries(1).At(0)
	ed := Scan(coll, q)
	dtw := ScanDTW(coll, q, 4)
	if dtw.Dist > ed.Dist+1e-9 {
		t.Fatalf("DTW NN %v exceeds ED NN %v", dtw.Dist, ed.Dist)
	}
}

// TestScanKNNTiesRankByPosition: exact duplicates are equidistant from every
// query, so the k-NN answer ranks them by position, and when the k-th slot
// falls inside a run of ties it keeps the lowest positions — at every k, for
// queries near the duplicated series, equal to one (distance 0), and far
// from all of them.
func TestScanKNNTiesRankByPosition(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: 64, Seed: 37}
	coll := g.Collection(300)
	// Three copies of #5 (one of them below it) and two of #80.
	for _, dup := range [][2]int{{5, 170}, {5, 3}, {5, 251}, {80, 20}, {80, 299}} {
		coll.Set(dup[1], coll.At(dup[0]))
	}
	queries := []series.Series{coll.At(5), coll.At(80)}
	for _, c := range []*series.Collection{g.PerturbedQueries(coll.Slice(5, 6), 3, 0.02), g.PerturbedQueries(coll.Slice(80, 81), 3, 0.02), g.Queries(2)} {
		for i := 0; i < c.Len(); i++ {
			queries = append(queries, c.At(i))
		}
	}
	dead := func(i int) bool { return i == 170 }
	for qi, q := range queries {
		var all, live []Result
		for i := 0; i < coll.Len(); i++ {
			r := Result{Pos: int32(i), Dist: vector.SquaredED(q, coll.At(i))}
			all = append(all, r)
			if i >= 4 && !dead(i) {
				live = append(live, r)
			}
		}
		byRank := func(a, b Result) int { return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Pos, b.Pos)) }
		slices.SortFunc(all, byRank)
		slices.SortFunc(live, byRank)
		for k := 1; k <= 8; k++ {
			if got := ScanKNN(coll, q, k); !slices.Equal(got, all[:k]) {
				t.Fatalf("query %d, k=%d: ScanKNN %v, want %v", qi, k, got, all[:k])
			}
			if got := ScanLiveKNN(coll, q, k, 4, dead); !slices.Equal(got, live[:k]) {
				t.Fatalf("query %d, k=%d: ScanLiveKNN %v, want %v", qi, k, got, live[:k])
			}
		}
	}
}
