package messi

import (
	"math"
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/series"
	"dsidx/internal/vector"
)

// verifyLeafRaw asserts every leaf of the index's current tree is
// materialized and that each entry's raw block is bit-identical to the
// series its position resolves to — the alignment the refinement hot path
// depends on.
func verifyLeafRaw(t *testing.T, ix *Index) {
	t.Helper()
	n := ix.cfg.SeriesLen
	leaves, entries := 0, 0
	ix.Tree().VisitLeaves(func(leaf *core.Node) {
		leaves++
		if leaf.Raw == nil {
			t.Fatalf("leaf %v not materialized", leaf.Word)
		}
		if len(leaf.Raw) != leaf.Count*n {
			t.Fatalf("leaf %v: %d raw values for %d entries", leaf.Word, len(leaf.Raw), leaf.Count)
		}
		for i, p := range leaf.Pos {
			entries++
			want := ix.At(int(p))
			got := leaf.Raw[i*n : (i+1)*n]
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("leaf %v entry %d (pos %d) raw[%d] = %v, want %v",
						leaf.Word, i, p, j, got[j], want[j])
				}
			}
		}
	})
	if leaves == 0 {
		t.Fatal("tree has no leaves")
	}
	_ = entries
}

func TestLeafRawAlignedAfterBuild(t *testing.T) {
	coll, _ := dataset(t, gen.Synthetic, 1500)
	ix := build(t, coll, 8)
	defer ix.Close()
	verifyLeafRaw(t, ix)
	if err := ix.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLeafRawSurvivesMergeCycle(t *testing.T) {
	// A live-ingest merge must preserve leaf-ordered storage for the
	// merged-in series: after the delta folds into the tree, every leaf —
	// including leaves that were split or newly created by the merge —
	// holds its entries' raw values contiguously.
	g := gen.Generator{Kind: gen.Synthetic, Seed: 77}
	coll := g.Collection(800)
	extra := g.Queries(300)
	ix, err := Build(coll, core.Config{LeafCapacity: 16}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for i := 0; i < extra.Len(); i++ {
		if _, err := ix.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	ix.Flush()
	if got := ix.IngestStats().Merged; got != extra.Len() {
		t.Fatalf("merged %d of %d appends", got, extra.Len())
	}
	verifyLeafRaw(t, ix)
	merged := 0
	ix.Tree().VisitLeaves(func(leaf *core.Node) {
		for _, p := range leaf.Pos {
			if int(p) >= coll.Len() {
				merged++
			}
		}
	})
	if merged != extra.Len() {
		t.Fatalf("tree holds %d merged-in positions, want %d", merged, extra.Len())
	}
	if err := ix.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLeafRawRebuiltAfterDecode(t *testing.T) {
	// The serialized formats (DSI1/DSL1) carry no raw blocks; Decode must
	// rebuild the layout from the collection and the restored append
	// store, for merged and pending appends alike.
	g := gen.Generator{Kind: gen.Synthetic, Seed: 78}
	coll := g.Collection(600)
	extra := g.Queries(120)
	ix, err := Build(coll, core.Config{LeafCapacity: 16},
		Options{Workers: 2, MergeThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for i := 0; i < extra.Len(); i++ {
		if _, err := ix.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
		if i == extra.Len()/2 {
			ix.Flush() // half merged, half pending
		}
	}
	ix2, err := Decode(ix.Encode(), coll, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	verifyLeafRaw(t, ix2)

	// And with materialization disabled, Decode leaves the tree bare.
	ix3, err := Decode(ix.Encode(), coll, Options{Workers: 2, DisableLeafRaw: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix3.Close()
	ix3.Tree().VisitLeaves(func(leaf *core.Node) {
		if leaf.Raw != nil {
			t.Fatalf("leaf %v materialized despite DisableLeafRaw", leaf.Word)
		}
	})
}

func TestLeafMaterializationAnswerEquivalence(t *testing.T) {
	// The layout is a pure memory-access optimization: materialized and
	// positional indexes must return bit-identical answers for every
	// search flavor, with live appends in the mix.
	g := gen.Generator{Kind: gen.SALD, Seed: 79}
	coll := g.Collection(1200)
	queries := g.Queries(6)
	extra := g.PerturbedQueries(coll, 64, 0.1)
	variants := make([]*Index, 2)
	for i, disable := range []bool{false, true} {
		ix, err := Build(coll, core.Config{LeafCapacity: 32},
			Options{Workers: 4, MergeThreshold: 48, DisableLeafRaw: disable})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		for j := 0; j < extra.Len(); j++ {
			if _, err := ix.Append(extra.At(j)); err != nil {
				t.Fatal(err)
			}
		}
		ix.Flush()
		variants[i] = ix
	}
	mat, pos := variants[0], variants[1]
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		a, _, err := mat.Search(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := pos.Search(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("query %d: ED answers diverge: %+v vs %+v", qi, a, b)
		}
		ka, _, err := mat.Query(Query{Kind: KNN, Series: q, K: 5, Workers: 4, Scope: FullScope})
		if err != nil {
			t.Fatal(err)
		}
		kb, _, err := pos.Query(Query{Kind: KNN, Series: q, K: 5, Workers: 4, Scope: FullScope})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ka {
			if math.Abs(ka[i].Dist-kb[i].Dist) > 0 {
				t.Fatalf("query %d rank %d: kNN dists diverge: %v vs %v", qi, i, ka[i].Dist, kb[i].Dist)
			}
		}
		da, _, err := First(mat.Query(Query{Kind: DTW, Series: q, Warp: 8, Workers: 4, Scope: FullScope}))
		if err != nil {
			t.Fatal(err)
		}
		db, _, err := First(pos.Query(Query{Kind: DTW, Series: q, Warp: 8, Workers: 4, Scope: FullScope}))
		if err != nil {
			t.Fatal(err)
		}
		if da != db {
			t.Fatalf("query %d: DTW answers diverge: %+v vs %+v", qi, da, db)
		}
	}
}

// TestProbedLeafNeverListed: every exact search refines the one leaf
// BestLeafApprox finds before its bound pass, and never lists that leaf,
// where it would be refined twice. With one worker and no delta the
// threshold does not move between the probe and the fold, so the list is
// exactly the other leaves whose envelope bound is below the threshold the
// probe left.
func TestProbedLeafNeverListed(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Seed: 71}
	coll := g.Collection(20_000)
	ix, err := Build(coll, core.Config{}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	dir, rowLen := ix.snap.Load().dir, 2*ix.cfg.Segments
	probeBelow := 0
	for _, qs := range []*series.Collection{g.Queries(12), g.PerturbedQueries(coll, 12, 0.05)} {
		for i := 0; i < qs.Len(); i++ {
			q := qs.At(i)
			got, st, err := ix.Search(q, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, want := coll.BruteForce1NN(q); math.Abs(got.Dist-want) > 1e-6*math.Max(1, want) {
				t.Fatalf("query %d: dist %v, want %v", i, got.Dist, want)
			}
			if st.ProbeLeaves != 1 {
				t.Fatalf("query %d: %d probed leaves, want 1", i, st.ProbeLeaves)
			}

			// Replay the probe to read the threshold it leaves.
			sc := ix.getScratch()
			sc.summarizeQuery(q)
			v, mp, f := ix.sharedCut(nil, FullScope)
			nn := Query{Kind: NN, Series: q}
			sink := NewSink(nn)
			r := ix.newRefiner(nn, &sink, sc, v.snap.tree.Quantizer(), mp, f)
			ix.probeLeaf(sc, v.snap.tree, &QueryStats{}, r, nil)
			lim := r.limit()
			below, above := r.table.Sides()
			want := 0
			for j, leaf := range dir.Leaves {
				if vector.EnvelopeDist(below, above, dir.Env[j*rowLen:(j+1)*rowLen], r.table.Card()) >= lim {
					continue
				}
				if leaf == sc.probed {
					probeBelow++
				} else {
					want++
				}
			}
			ix.putScratch(sc)
			if st.LeavesInserted != want {
				t.Fatalf("query %d: %d leaves listed, want the %d other than the probed one below %v", i, st.LeavesInserted, want, lim)
			}
		}
	}
	if probeBelow == 0 {
		t.Fatal("no probed leaf was below its own threshold: the exclusion went untested")
	}
}
