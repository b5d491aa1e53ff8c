package paris

import (
	"math"
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/series"
	"dsidx/internal/ucr"
)

func TestSearchKNNMatchesSerial(t *testing.T) {
	coll, queries := dataset(t, gen.Synthetic, 900)
	for _, variant := range []string{"memory", "disk"} {
		t.Run(variant, func(t *testing.T) {
			var ix *Index
			if variant == "memory" {
				var err error
				ix, err = BuildInMemory(coll, core.Config{LeafCapacity: 32}, Options{Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
			} else {
				ix = buildDisk(t, coll, ModeParISPlus, 4)
			}
			const k = 7
			for qi := 0; qi < queries.Len(); qi++ {
				q := queries.At(qi)
				want := ucr.ScanKNN(coll, q, k)
				got, stats, err := ix.Run(Query{Kind: messi.KNN, Series: q, K: k, Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != k {
					t.Fatalf("query %d: %d results, want %d", qi, len(got), k)
				}
				for i := range got {
					if math.Abs(got[i].Dist-want[i].Dist) > 1e-6*math.Max(1, want[i].Dist) {
						t.Fatalf("query %d rank %d: %v, want %v", qi, i, got[i].Dist, want[i].Dist)
					}
				}
				if stats.Candidates+stats.PrunedByScan != coll.Len() {
					t.Fatalf("query %d: stats inconsistent %+v", qi, stats)
				}
			}
		})
	}
}

func TestSearchKNNDegenerate(t *testing.T) {
	coll, queries := dataset(t, gen.Synthetic, 100)
	ix, err := BuildInMemory(coll, core.Config{}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := ix.Run(Query{Kind: messi.KNN, Series: queries.At(0), K: 0, Workers: 2}); err != nil || got != nil {
		t.Errorf("k=0: %v %v", got, err)
	}
	got, _, err := ix.Run(Query{Kind: messi.KNN, Series: queries.At(0), K: 1, Workers: 2})
	if err != nil || len(got) != 1 {
		t.Fatalf("k=1: %v %v", got, err)
	}
	one, _, err := nn(ix, queries.At(0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0].Dist-one.Dist) > 1e-9 {
		t.Errorf("k=1 %v != 1-NN %v", got[0].Dist, one.Dist)
	}
	if _, _, err := ix.Run(Query{Kind: messi.KNN, Series: make(series.Series, 3), K: 2, Workers: 2}); err == nil {
		t.Error("bad query length accepted")
	}
}

func TestSearchDTWMatchesSerial(t *testing.T) {
	g := gen.Generator{Kind: gen.SALD, Length: 128, Seed: 62}
	coll := g.Collection(400)
	queries := g.Queries(4)
	window := 8
	for _, variant := range []string{"memory", "disk"} {
		t.Run(variant, func(t *testing.T) {
			var ix *Index
			if variant == "memory" {
				var err error
				ix, err = BuildInMemory(coll, core.Config{LeafCapacity: 32}, Options{Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
			} else {
				ix = buildDisk(t, coll, ModeParIS, 4)
			}
			for qi := 0; qi < queries.Len(); qi++ {
				q := queries.At(qi)
				want := ucr.ScanDTW(coll, q, window)
				got, _, err := messi.First(ix.Run(Query{Kind: messi.DTW, Series: q, Warp: window, Workers: 4}))
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got.Dist-want.Dist) > 1e-6*math.Max(1, want.Dist) {
					t.Fatalf("query %d: DTW %v, want %v", qi, got.Dist, want.Dist)
				}
			}
		})
	}
}

func TestSearchDTWZeroWindowEqualsED(t *testing.T) {
	coll, queries := dataset(t, gen.Synthetic, 300)
	ix, err := BuildInMemory(coll, core.Config{LeafCapacity: 32}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := queries.At(0)
	ed, _, err := nn(ix, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	dtw, _, err := messi.First(ix.Run(Query{Kind: messi.DTW, Series: q, Warp: 0, Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ed.Dist-dtw.Dist) > 1e-6 {
		t.Fatalf("zero-window DTW %v != ED %v", dtw.Dist, ed.Dist)
	}
}

func TestSearchApproximateParIS(t *testing.T) {
	coll, _ := dataset(t, gen.Seismic, 600)
	g := gen.Generator{Kind: gen.Seismic, Seed: 61}
	queries := g.PerturbedQueries(coll, 5, 0.05)
	for _, variant := range []string{"memory", "disk"} {
		t.Run(variant, func(t *testing.T) {
			var ix *Index
			if variant == "memory" {
				var err error
				ix, err = BuildInMemory(coll, core.Config{LeafCapacity: 32}, Options{Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
			} else {
				ix = buildDisk(t, coll, ModeParISPlus, 4)
			}
			for qi := 0; qi < queries.Len(); qi++ {
				q := queries.At(qi)
				approx, _, err := messi.First(ix.Run(Query{Kind: messi.Approx, Series: q}))
				if err != nil {
					t.Fatal(err)
				}
				exact, _, err := nn(ix, q, 4)
				if err != nil {
					t.Fatal(err)
				}
				if approx.Pos < 0 {
					t.Fatalf("query %d: no approximate answer", qi)
				}
				if approx.Dist < exact.Dist-1e-9 {
					t.Fatalf("query %d: approximate %v below exact %v", qi, approx.Dist, exact.Dist)
				}
			}
		})
	}
}
