package messi

import (
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/series"
)

// counterCeilings are per-flavor work totals on counterWorkload, Workers: 1,
// so the next regression in the bound cascade is caught where it happens.
// Refined and EntriesChecked are the cascade's own. Refined counts every
// leaf refined, wherever: ProbeLeaves + LeavesPopped. It is held as one sum
// because a leaf the approximate phase does not probe is popped from the
// list instead. The ceilings are the readings with two probed leaves per
// query; the one probe the paper uses reads 1,112 (1-NN), 3,577 (k-NN),
// 2,242 (DTW) and 1,572 (window), with LeavesPopped alone 4–6 higher than
// at two. EntriesChecked is the one-probe reading. With the one word bound
// per leaf that the envelope replaced, popped and entries read 5,507 /
// 53,130 (1-NN), 21,228 / 129,524 (k-NN), 9,882 / 77,179 (DTW) and 8,048 /
// 66,452 (window). RawDistances is not the cascade's to lower — which
// entries pay a distance is decided by the per-entry bound against the
// threshold of the moment, and the cascade only changes the order leaves
// drain in: by envelope bound, which ranks a full leaf (wide envelope, low
// bound) ahead of a sparse one at the same distance, where the word bound
// ranked by position in the tree alone. On these queries that order finds
// the answer a little later for the ED flavors and sooner under DTW, so the
// RawDistances entries stay the word-bound drain's totals and are held with
// rawTolerance on top, not re-recorded.
var counterCeilings = map[string]struct{ RawDistances, EntriesChecked, Refined int }{
	"1nn":    {RawDistances: 1455, EntriesChecked: 42507, Refined: 1114},
	"knn":    {RawDistances: 4508, EntriesChecked: 90073, Refined: 3577},
	"dtw":    {RawDistances: 3686, EntriesChecked: 59647, Refined: 2242},
	"window": {RawDistances: 1174, EntriesChecked: 51521, Refined: 1574},
}

// rawTolerance is how far a change of drain order alone may move a
// RawDistances total (see counterCeilings); measured +1.6% (1-NN), +5.0%
// (k-NN), −1.8% (DTW), +3.5% (window).
const rawTolerance = 0.06

// warmSearchAllocs is testing.AllocsPerRun of a warm Search on the same
// workload: the per-query closures and answer, with every table and
// candidate list in the pooled scratch.
const warmSearchAllocs = 11

func counterWorkload(t *testing.T) (*Index, []series.Series) {
	t.Helper()
	g := gen.Generator{Kind: gen.Synthetic, Seed: 71}
	coll := g.Collection(20_000)
	ix, err := Build(coll, core.Config{}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ix.Close)
	// Appends on both sides of a merge, so the tree, a merged suffix and a
	// live delta all contribute.
	extra := gen.Generator{Kind: gen.Synthetic, Seed: 72}.Collection(1500)
	for i := 0; i < extra.Len(); i++ {
		if _, err := ix.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
		if i == 999 {
			ix.Flush()
		}
	}
	var qs []series.Series
	for _, c := range []*series.Collection{g.Queries(8), g.PerturbedQueries(coll, 8, 0.05)} {
		for i := 0; i < c.Len(); i++ {
			qs = append(qs, c.At(i))
		}
	}
	return ix, qs
}

func TestCountersStayUnderCascadeCeilings(t *testing.T) {
	ix, qs := counterWorkload(t)
	flavors := map[string]func(q series.Series) (*QueryStats, error){
		"1nn": func(q series.Series) (*QueryStats, error) { _, st, err := ix.Search(q, 1); return st, err },
		"knn": func(q series.Series) (*QueryStats, error) {
			_, st, err := ix.Query(Query{Kind: KNN, Series: q, K: 5, Workers: 1, Scope: FullScope})
			return st, err
		},
		"dtw": func(q series.Series) (*QueryStats, error) {
			_, st, err := First(ix.Query(Query{Kind: DTW, Series: q, Warp: 8, Workers: 1, Scope: FullScope}))
			return st, err
		},
		"window": func(q series.Series) (*QueryStats, error) {
			_, st, err := First(ix.Query(Query{Kind: NN, Series: q, LastN: 12_000, Workers: 1, Scope: FullScope}))
			return st, err
		},
	}
	for name, search := range flavors {
		var sum QueryStats
		for qi, q := range qs {
			st, err := search(q)
			if err != nil {
				t.Fatal(err)
			}
			if st.LeavesPopped > st.LeavesInserted {
				t.Errorf("%s query %d: popped %d leaves of %d listed", name, qi, st.LeavesPopped, st.LeavesInserted)
			}
			sum.RawDistances += st.RawDistances
			sum.EntriesChecked += st.EntriesChecked
			sum.LeavesPopped += st.LeavesPopped
			sum.LeavesInserted += st.LeavesInserted
			sum.ProbeLeaves += st.ProbeLeaves
		}
		refined := sum.ProbeLeaves + sum.LeavesPopped
		t.Logf("%s: raw %d, entries %d, refined %d (probed %d, popped %d), listed %d", name,
			sum.RawDistances, sum.EntriesChecked, refined, sum.ProbeLeaves, sum.LeavesPopped, sum.LeavesInserted)
		top := counterCeilings[name]
		rawTop := int(float64(top.RawDistances) * (1 + rawTolerance))
		if sum.RawDistances > rawTop || sum.EntriesChecked > top.EntriesChecked || refined > top.Refined {
			t.Errorf("%s: raw %d, entries %d, refined %d exceed the ceilings %d, %d, %d", name,
				sum.RawDistances, sum.EntriesChecked, refined,
				rawTop, top.EntriesChecked, top.Refined)
		}
	}
}

func TestWarmSearchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch, which is then reallocated")
	}
	ix, qs := counterWorkload(t)
	for _, q := range qs { // fill the scratch pools
		if _, _, err := ix.Search(q, 1); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	got := testing.AllocsPerRun(64, func() {
		if _, _, err := ix.Search(qs[i%len(qs)], 1); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("allocations per warm Search: %v", got)
	if got > warmSearchAllocs {
		t.Errorf("a warm Search allocates %v times, want at most %d", got, warmSearchAllocs)
	}
}
