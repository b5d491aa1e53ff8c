package messi

import (
	"math"
	"sync"
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/series"
)

func TestSearchApproximateUpperBoundsExact(t *testing.T) {
	coll, queries := dataset(t, gen.Synthetic, 1000)
	ix := build(t, coll, 8)
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		approx, _, err := First(ix.Query(Query{Kind: Approx, Series: q, Scope: FullScope}))
		if err != nil {
			t.Fatal(err)
		}
		exact, _, err := ix.Search(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if approx.Pos < 0 {
			t.Fatalf("query %d: approximate returned no answer", qi)
		}
		if approx.Dist < exact.Dist-1e-9 {
			t.Fatalf("query %d: approximate %v below exact %v", qi, approx.Dist, exact.Dist)
		}
		// The reported distance must be real.
		if d := series.SquaredED(q, coll.At(int(approx.Pos))); math.Abs(d-approx.Dist) > 1e-9 {
			t.Fatalf("query %d: approximate pos %d has dist %v, claimed %v",
				qi, approx.Pos, d, approx.Dist)
		}
	}
}

func TestSearchApproximateQualityOnPerturbedQueries(t *testing.T) {
	// For a query that is a perturbed dataset member, the approximate
	// answer should usually BE the exact answer (the regime the paper's
	// approximate searches live in).
	g := gen.Generator{Kind: gen.Synthetic, Seed: 71}
	coll := g.Collection(2000)
	queries := g.PerturbedQueries(coll, 20, 0.05)
	ix := build(t, coll, 8)
	hits := 0
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		approx, _, err := First(ix.Query(Query{Kind: Approx, Series: q, Scope: FullScope}))
		if err != nil {
			t.Fatal(err)
		}
		exact, _, err := ix.Search(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(approx.Dist-exact.Dist) < 1e-9 {
			hits++
		}
	}
	if hits < queries.Len()/2 {
		t.Errorf("approximate matched exact on only %d/%d perturbed queries", hits, queries.Len())
	}
}

func TestSearchApproximateValidation(t *testing.T) {
	coll, _ := dataset(t, gen.Synthetic, 50)
	ix := build(t, coll, 2)
	if _, _, err := First(ix.Query(Query{Kind: Approx, Series: make(series.Series, 5), Scope: FullScope})); err == nil {
		t.Error("mismatched query length accepted")
	}
	empty, err := Build(series.NewCollection(0, 256), core.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	r, _, err := First(empty.Query(Query{Kind: Approx, Series: make(series.Series, 256), Scope: FullScope}))
	if err != nil {
		t.Fatal(err)
	}
	if r.Pos != -1 {
		t.Error("empty index should return no result")
	}
}

func TestConcurrentMixedSearches(t *testing.T) {
	// Exact, approximate, kNN and DTW searches share the index read-only;
	// they must coexist under the race detector.
	coll, queries := dataset(t, gen.Synthetic, 600)
	ix := build(t, coll, 4)
	var wg sync.WaitGroup
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		wg.Add(4)
		go func() { defer wg.Done(); _, _, _ = ix.Search(q, 2) }()
		go func() { defer wg.Done(); _, _, _ = First(ix.Query(Query{Kind: Approx, Series: q, Scope: FullScope})) }()
		go func() {
			defer wg.Done()
			_, _, _ = ix.Query(Query{Kind: KNN, Series: q, K: 3, Workers: 2, Scope: FullScope})
		}()
		go func() {
			defer wg.Done()
			_, _, _ = First(ix.Query(Query{Kind: DTW, Series: q, Warp: 8, Workers: 2, Scope: FullScope}))
		}()
	}
	wg.Wait()
}

// TestScopeSeededRunsOnceAfterTheApproximatePhase: every exact kind calls
// the scope's Seeded hook exactly once, after the probed leaf has fed the
// shared answer (the threshold is already finite); an Approx query, whose
// probe is all it does, never calls it.
func TestScopeSeededRunsOnceAfterTheApproximatePhase(t *testing.T) {
	coll, queries := dataset(t, gen.Synthetic, 1100)
	ix := build(t, coll, 2)
	defer ix.Close()
	for _, kind := range []Kind{NN, KNN, DTW, Approx} {
		q := Query{Kind: kind, Series: queries.At(0), K: 3, Warp: 4, Scope: FullScope}
		sink := NewSink(q)
		limit := func() float64 { return sink.Best.Distance() }
		if kind == KNN {
			limit = sink.KBest.Threshold
		}
		calls := 0
		q.Scope.Seeded = func() {
			calls++
			if math.IsInf(limit(), 1) {
				t.Errorf("kind %d: Seeded ran before the approximate phase seeded the threshold", kind)
			}
		}
		st, err := ix.Run(q, &sink, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		if kind == Approx {
			want = 0
		}
		if calls != want || st.ProbeLeaves != 1 {
			t.Errorf("kind %d: Seeded ran %d times over %d probed leaves, want %d", kind, calls, st.ProbeLeaves, want)
		}
	}
}
