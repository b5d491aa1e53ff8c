package messi

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/series"
	"dsidx/internal/ucr"
)

func dataset(t *testing.T, kind gen.Kind, n int) (*series.Collection, *series.Collection) {
	t.Helper()
	g := gen.Generator{Kind: kind, Seed: 71}
	return g.Collection(n), g.Queries(6)
}

func build(t *testing.T, coll *series.Collection, workers int) *Index {
	t.Helper()
	ix, err := Build(coll, core.Config{LeafCapacity: 32},
		Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ix.Close)
	return ix
}

func TestBuildIndexesEverything(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		// Two claim blocks, one of them partial.
		coll, _ := dataset(t, gen.Synthetic, 1100)
		ix := build(t, coll, workers)
		if ix.Count() != coll.Len() || ix.Tree().Count() != coll.Len() {
			t.Fatalf("workers=%d: indexed %d/%d", workers, ix.Tree().Count(), coll.Len())
		}
		if err := ix.Tree().CheckInvariants(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

func TestBuildDeterministicTreeContent(t *testing.T) {
	// Different worker counts must index the same set of positions, each
	// exactly once. Three claim blocks, so the workers split stage 1.
	coll, _ := dataset(t, gen.SALD, 2100)
	collect := func(ix *Index) map[int32]bool {
		seen := make(map[int32]bool)
		ix.Tree().VisitLeaves(func(n *core.Node) {
			for _, p := range n.Pos {
				if seen[p] {
					t.Fatalf("duplicate position %d", p)
				}
				seen[p] = true
			}
		})
		return seen
	}
	a := collect(build(t, coll, 1))
	b := collect(build(t, coll, 8))
	if len(a) != len(b) || len(a) != coll.Len() {
		t.Fatalf("different entry sets: %d vs %d (want %d)", len(a), len(b), coll.Len())
	}
}

// TestBuildEncodesIdenticallyAtEveryWorkerCount: stage 1 writes each
// series' root key at its own position and stage 2 inserts each key's
// positions in ascending order, so neither the tree nor its encoding may
// depend on which worker claimed which block or key. The workers share the
// root-key slice, so CI repeats this test under the race detector.
func TestBuildEncodesIdenticallyAtEveryWorkerCount(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Seed: 29}
	coll := g.Collection(20000)
	want := build(t, coll, 1).Encode()
	for _, workers := range []int{2, 4} {
		if got := build(t, coll, workers).Encode(); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: encoding (%d bytes) differs from the 1-worker build's (%d bytes)",
				workers, len(got), len(want))
		}
	}

	// Two bad series in blocks far apart: whichever worker meets which, the
	// error names the lower position.
	bad := g.Collection(20000)
	nan, inf := make(series.Series, bad.SeriesLen()), make(series.Series, bad.SeriesLen())
	for i := range nan {
		nan[i], inf[i] = float32(math.NaN()), float32(math.Inf(1))
	}
	bad.Set(17000, nan)
	bad.Set(4100, inf)
	_, err := Build(bad, core.Config{LeafCapacity: 32}, Options{Workers: 2})
	var nf *NonFiniteError
	if !errors.As(err, &nf) || nf.Pos != 4100 {
		t.Fatalf("Build over series 4100 (+Inf) and 17000 (NaN) at 2 workers: %v, want a NonFiniteError at 4100", err)
	}
}

// TestMergeEncodesIdenticallyAtEveryWorkerCount: a merge groups the
// pending positions with Build's counting sort and rewrites each touched
// key's subtree from ascending positions, so what a Flush publishes may not
// depend on which worker wrote which key either. CI repeats it under the
// race detector beside the build test.
func TestMergeEncodesIdenticallyAtEveryWorkerCount(t *testing.T) {
	coll := gen.Generator{Kind: gen.Synthetic, Seed: 29}.Collection(20000)
	extra := gen.Generator{Kind: gen.Synthetic, Seed: 31}.Collection(9000)
	batch := make([]series.Series, extra.Len())
	for i := range batch {
		batch[i] = extra.At(i)
	}
	merged := func(workers int) []byte {
		ix, err := Build(coll, core.Config{LeafCapacity: 32},
			Options{Workers: workers, MergeThreshold: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		if _, err := ix.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		ix.Flush()
		if st := ix.IngestStats(); st.Merges != 1 || st.Pending != 0 {
			t.Fatalf("workers=%d: %d merges, %d pending; want one Flush merging all", workers, st.Merges, st.Pending)
		}
		return ix.Encode()
	}
	want := merged(1)
	for _, workers := range []int{2, 4} {
		if got := merged(workers); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: merged encoding (%d bytes) differs from the 1-worker merge's (%d bytes)",
				workers, len(got), len(want))
		}
	}
}

// TestMergedTreeIsTheBuiltTree: building over a base, appending and
// merging leaves the core DSI1 image that one build over base ++ appends
// makes — with one merge and with one per 1,000 appends, background or
// flushed — and the same deletes and Compact on both histories keep them
// identical.
func TestMergedTreeIsTheBuiltTree(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Seed: 37}
	all := g.Collection(9000)
	base := series.NewCollection(5000, all.SeriesLen())
	for i := range base.Len() {
		base.Set(i, all.At(i))
	}
	// coreImage is the DSI1 blob of the index's tree over the summaries of
	// every position it covers, appended ones included.
	coreImage := func(ix *Index) []byte {
		n := ix.baseLen + ix.snap.Load().mergedA
		sax := core.NewSAXArray(n, ix.cfg.Segments)
		for p := range n {
			copy(sax.At(p), ix.summary(int32(p)))
		}
		return core.EncodeIndex(ix.Tree(), sax)
	}
	compact := func(ix *Index) {
		for _, r := range [][2]int{{100, 1400}, {4800, 5300}, {7000, 7001}, {8200, 9000}} {
			if _, err := ix.DeleteRange(r[0], r[1]); err != nil {
				t.Fatal(err)
			}
		}
		ix.Compact()
		if err := ix.Tree().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		built, err := Build(all, core.Config{LeafCapacity: 32}, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer built.Close()
		want := coreImage(built)
		compact(built)
		wantCompacted := coreImage(built)
		for _, threshold := range []int{1 << 30, 1000} {
			ix, err := Build(base, core.Config{LeafCapacity: 32},
				Options{Workers: workers, MergeThreshold: threshold})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			for i := base.Len(); i < all.Len(); i++ {
				if _, err := ix.Append(all.At(i)); err != nil {
					t.Fatal(err)
				}
				if (i+1-base.Len())%threshold == 0 {
					ix.Flush() // each threshold's worth merged before the next lands
				}
			}
			ix.Flush()
			merges := ix.IngestStats().Merges
			if threshold == 1<<30 && merges != 1 || threshold == 1000 && merges < 4 {
				t.Fatalf("workers=%d threshold=%d: %d merges", workers, threshold, merges)
			}
			if got := coreImage(ix); !bytes.Equal(got, want) {
				t.Errorf("workers=%d threshold=%d: tree after %d merges (%d bytes) differs from the built tree (%d bytes)",
					workers, threshold, merges, len(got), len(want))
			}
			compact(ix)
			if got := coreImage(ix); !bytes.Equal(got, wantCompacted) {
				t.Errorf("workers=%d threshold=%d: compacted tree after %d merges differs from the compacted built tree",
					workers, threshold, merges)
			}
		}
	}
}

func TestBuildStats(t *testing.T) {
	coll, _ := dataset(t, gen.Synthetic, 600)
	ix := build(t, coll, 4)
	bs := ix.BuildStats()
	if bs.Summarize <= 0 || bs.TreeBuild <= 0 || bs.Total <= 0 {
		t.Errorf("phases not recorded: %+v", bs)
	}
	if bs.Total < bs.Summarize {
		t.Errorf("Total %v < Summarize %v", bs.Total, bs.Summarize)
	}
}

func TestSearchExactness(t *testing.T) {
	for _, kind := range []gen.Kind{gen.Synthetic, gen.SALD, gen.Seismic} {
		t.Run(kind.String(), func(t *testing.T) {
			coll, queries := dataset(t, kind, 1000)
			ix := build(t, coll, 8)
			for _, workers := range []int{1, 4, 16} {
				for qi := 0; qi < queries.Len(); qi++ {
					q := queries.At(qi)
					_, wantDist := coll.BruteForce1NN(q)
					got, stats, err := ix.Search(q, workers)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(got.Dist-wantDist) > 1e-6*math.Max(1, wantDist) {
						t.Fatalf("workers=%d query %d: dist %v, want %v",
							workers, qi, got.Dist, wantDist)
					}
					if d := series.SquaredED(q, coll.At(int(got.Pos))); math.Abs(d-got.Dist) > 1e-9 {
						t.Fatalf("returned pos %d has dist %v, claimed %v", got.Pos, d, got.Dist)
					}
					if stats.LeavesPopped > stats.LeavesInserted {
						t.Fatalf("popped %d > inserted %d", stats.LeavesPopped, stats.LeavesInserted)
					}
				}
			}
		})
	}
}

func TestSearchPrunesAgainstFullScan(t *testing.T) {
	coll, queries := dataset(t, gen.Synthetic, 4000)
	ix := build(t, coll, 8)
	for qi := 0; qi < queries.Len(); qi++ {
		_, stats, err := ix.Search(queries.At(qi), 8)
		if err != nil {
			t.Fatal(err)
		}
		if stats.RawDistances >= coll.Len()/2 {
			t.Fatalf("query %d: %d raw distances on %d series — pruning broken",
				qi, stats.RawDistances, coll.Len())
		}
	}
}

func TestSearchEmptyAndValidation(t *testing.T) {
	empty, err := Build(series.NewCollection(0, 256), core.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	got, _, err := empty.Search(make(series.Series, 256), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pos != -1 || !math.IsInf(got.Dist, 1) {
		t.Fatalf("empty search = %+v", got)
	}
	if _, _, err := empty.Search(make(series.Series, 13), 2); err == nil {
		t.Error("mismatched query length accepted")
	}
}

func TestSearchKNNMatchesSerialKNN(t *testing.T) {
	coll, queries := dataset(t, gen.Synthetic, 800)
	ix := build(t, coll, 8)
	const k = 10
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		want := ucr.ScanKNN(coll, q, k)
		got, _, err := ix.Query(Query{Kind: KNN, Series: q, K: k, Workers: 8, Scope: FullScope})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), k)
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-6*math.Max(1, want[i].Dist) {
				t.Fatalf("query %d rank %d: dist %v, want %v", qi, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

func TestSearchKNNDegenerate(t *testing.T) {
	coll, queries := dataset(t, gen.Synthetic, 100)
	ix := build(t, coll, 4)
	if got, _, err := ix.Query(Query{Kind: KNN, Series: queries.At(0), K: 0, Workers: 2, Scope: FullScope}); err != nil || got != nil {
		t.Errorf("k=0: (%v,%v)", got, err)
	}
	got, _, err := ix.Query(Query{Kind: KNN, Series: queries.At(0), K: 1, Workers: 2, Scope: FullScope})
	if err != nil || len(got) != 1 {
		t.Fatalf("k=1: %v %v", got, err)
	}
	one, _, err := ix.Search(queries.At(0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0].Dist-one.Dist) > 1e-9 {
		t.Errorf("k=1 dist %v != 1-NN dist %v", got[0].Dist, one.Dist)
	}
}

func TestSearchDTWMatchesUCRDTW(t *testing.T) {
	g := gen.Generator{Kind: gen.SALD, Length: 128, Seed: 73}
	coll := g.Collection(400)
	queries := g.Queries(4)
	ix := build(t, coll, 8)
	window := 8
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		want := ucr.ScanDTW(coll, q, window)
		got, stats, err := First(ix.Query(Query{Kind: DTW, Series: q, Warp: window, Workers: 8, Scope: FullScope}))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Dist-want.Dist) > 1e-6*math.Max(1, want.Dist) {
			t.Fatalf("query %d: DTW dist %v, want %v", qi, got.Dist, want.Dist)
		}
		// The approximate-phase leaf may be re-examined by the queue phase,
		// so allow one leaf's worth of duplicates over a full scan.
		if stats.RawDistances > coll.Len()+32 {
			t.Fatalf("query %d: %d DTW computations on %d series", qi, stats.RawDistances, coll.Len())
		}
	}
}

func TestSearchDTWZeroWindowMatchesED(t *testing.T) {
	coll, queries := dataset(t, gen.Synthetic, 300)
	ix := build(t, coll, 4)
	q := queries.At(0)
	ed, _, err := ix.Search(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	dtw, _, err := First(ix.Query(Query{Kind: DTW, Series: q, Warp: 0, Workers: 4, Scope: FullScope}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ed.Dist-dtw.Dist) > 1e-6 {
		t.Fatalf("zero-window DTW %v != ED %v", dtw.Dist, ed.Dist)
	}
}

func TestIndexAdmissionProbeAndRaw(t *testing.T) {
	coll, _ := dataset(t, gen.Synthetic, 400)
	ix := build(t, coll, 2)
	defer ix.Close()
	if ix.Raw() != series.Reader(coll) {
		t.Fatal("Raw() does not return the collection the index was built over")
	}
	if ix.eng.MaxInFlight() <= 0 {
		t.Fatalf("MaxInFlight() = %d", ix.eng.MaxInFlight())
	}
	for _, tenant := range []string{"", "a"} {
		release, err := ix.eng.Admit(context.Background(), tenant)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
}
