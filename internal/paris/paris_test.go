package paris

import (
	"math"
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/series"
	"dsidx/internal/storage"
)

func dataset(t *testing.T, kind gen.Kind, n int) (*series.Collection, *series.Collection) {
	t.Helper()
	g := gen.Generator{Kind: kind, Seed: 61}
	return g.Collection(n), g.Queries(6)
}

func buildDisk(t *testing.T, coll *series.Collection, mode Mode, workers int) *Index {
	t.Helper()
	raw, err := storage.WriteCollection(storage.NewMemStore(), coll)
	if err != nil {
		t.Fatal(err)
	}
	leaves := storage.NewLeafStore(storage.NewMemStore())
	ix, err := Build(raw, leaves, core.Config{LeafCapacity: 32},
		Options{Mode: mode, Workers: workers, BatchSeries: 1500})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// nn answers an exact 1-NN query.
func nn(ix *Index, q series.Series, workers int) (core.Result, *QueryStats, error) {
	return messi.First(ix.Run(Query{Kind: messi.NN, Series: q, Workers: workers}))
}

func TestBuildBothModesIndexEverything(t *testing.T) {
	// Three batches, the first two of two read blocks each.
	coll, _ := dataset(t, gen.Synthetic, 3100)
	for _, mode := range []Mode{ModeParIS, ModeParISPlus} {
		t.Run(mode.String(), func(t *testing.T) {
			ix := buildDisk(t, coll, mode, 4)
			if ix.Count() != coll.Len() {
				t.Fatalf("Count = %d, want %d", ix.Count(), coll.Len())
			}
			if got := ix.Tree().Count(); got != coll.Len() {
				t.Fatalf("tree holds %d series, want %d", got, coll.Len())
			}
			if err := ix.Tree().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBuildMatchesSerialReference(t *testing.T) {
	// The parallel build must produce exactly the same SAX array as a
	// serial summarization pass, and a tree containing every position once.
	// Two batches of two read blocks each.
	coll, _ := dataset(t, gen.Seismic, 2600)
	ix := buildDisk(t, coll, ModeParISPlus, 8)

	tree, err := core.NewTree(core.Config{SeriesLen: coll.SeriesLen(), LeafCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	sm := core.NewSummarizer(tree.Config(), tree.Quantizer())
	want := make([]uint8, tree.Config().Segments)
	for i := 0; i < coll.Len(); i++ {
		sm.Summarize(coll.At(i), want)
		got := ix.sax.At(i)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("SAX[%d][%d] = %d, want %d", i, j, got[j], want[j])
			}
		}
	}
	seen := make(map[int32]bool, coll.Len())
	ix.Tree().VisitLeaves(func(n *core.Node) {
		_, pos, err := core.LoadLeaf(n, tree.Config().Segments, ix.leaves)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pos {
			if seen[p] {
				t.Fatalf("position %d in two leaves", p)
			}
			seen[p] = true
		}
	})
	if len(seen) != coll.Len() {
		t.Fatalf("tree leaves hold %d positions, want %d", len(seen), coll.Len())
	}
}

func TestBuildInMemoryBothModes(t *testing.T) {
	// Three claim blocks, one of them partial.
	coll, _ := dataset(t, gen.SALD, 2600)
	for _, mode := range []Mode{ModeParIS, ModeParISPlus} {
		t.Run(mode.String(), func(t *testing.T) {
			ix, err := BuildInMemory(coll, core.Config{LeafCapacity: 32},
				Options{Mode: mode, Workers: 6})
			if err != nil {
				t.Fatal(err)
			}
			if ix.Count() != coll.Len() || ix.Tree().Count() != coll.Len() {
				t.Fatalf("indexed %d/%d series", ix.Tree().Count(), coll.Len())
			}
			if err := ix.Tree().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSearchExactnessOnDisk(t *testing.T) {
	for _, kind := range []gen.Kind{gen.Synthetic, gen.SALD} {
		for _, mode := range []Mode{ModeParIS, ModeParISPlus} {
			t.Run(kind.String()+"/"+mode.String(), func(t *testing.T) {
				coll, queries := dataset(t, kind, 800)
				ix := buildDisk(t, coll, mode, 4)
				for qi := 0; qi < queries.Len(); qi++ {
					q := queries.At(qi)
					_, wantDist := coll.BruteForce1NN(q)
					got, stats, err := nn(ix, q, 4)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(got.Dist-wantDist) > 1e-6*math.Max(1, wantDist) {
						t.Fatalf("query %d: dist %v, want %v", qi, got.Dist, wantDist)
					}
					if stats.Candidates+stats.PrunedByScan != coll.Len() {
						t.Fatalf("query %d: stats don't add up: %+v", qi, stats)
					}
				}
			})
		}
	}
}

func TestSearchExactnessInMemory(t *testing.T) {
	coll, queries := dataset(t, gen.Synthetic, 1500)
	ix, err := BuildInMemory(coll, core.Config{LeafCapacity: 64}, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8, 0} {
		for qi := 0; qi < queries.Len(); qi++ {
			q := queries.At(qi)
			_, wantDist := coll.BruteForce1NN(q)
			got, _, err := nn(ix, q, workers)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Dist-wantDist) > 1e-6*math.Max(1, wantDist) {
				t.Fatalf("workers=%d query %d: dist %v, want %v", workers, qi, got.Dist, wantDist)
			}
			// The winning position must actually be at the winning distance.
			if d := series.SquaredED(q, coll.At(int(got.Pos))); math.Abs(d-got.Dist) > 1e-9 {
				t.Fatalf("returned pos %d has dist %v, claimed %v", got.Pos, d, got.Dist)
			}
		}
	}
}

func TestSearchEmptyIndex(t *testing.T) {
	coll := series.NewCollection(0, 256)
	ix, err := BuildInMemory(coll, core.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := nn(ix, make(series.Series, 256), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pos != -1 || !math.IsInf(got.Dist, 1) {
		t.Fatalf("empty index search = %+v", got)
	}
}

func TestSearchValidatesQueryLength(t *testing.T) {
	coll, _ := dataset(t, gen.Synthetic, 50)
	ix, err := BuildInMemory(coll, core.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := nn(ix, make(series.Series, 100), 2); err == nil {
		t.Error("mismatched query length accepted")
	}
}

func TestBuildStatsRecorded(t *testing.T) {
	coll, _ := dataset(t, gen.Synthetic, 400)
	ix := buildDisk(t, coll, ModeParIS, 2)
	bs := ix.BuildStats()
	if bs.Total <= 0 {
		t.Error("Total not recorded")
	}
	if bs.TreeWall <= 0 {
		t.Error("ParIS should record dedicated tree-construction time")
	}
	ixPlus := buildDisk(t, coll, ModeParISPlus, 2)
	if ixPlus.BuildStats().TreeWall != 0 {
		t.Error("ParIS+ should have no dedicated tree-construction wall time")
	}
}

func TestModeString(t *testing.T) {
	if ModeParIS.String() != "ParIS" || ModeParISPlus.String() != "ParIS+" {
		t.Error("mode names wrong")
	}
}
