package messi

import (
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/series"
)

// counterCeilings are this commit's per-flavor work totals on counterWorkload,
// Workers: 1, so the next regression in the bound cascade is caught where it
// happens. LeavesPopped and EntriesChecked are the cascade's own: with the
// one word bound per leaf that the envelope replaced they read 5,507 /
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
var counterCeilings = map[string]QueryStats{
	"1nn":    {RawDistances: 1455, EntriesChecked: 42902, LeavesPopped: 1092},
	"knn":    {RawDistances: 4508, EntriesChecked: 90073, LeavesPopped: 3555},
	"dtw":    {RawDistances: 3686, EntriesChecked: 59647, LeavesPopped: 2220},
	"window": {RawDistances: 1174, EntriesChecked: 51916, LeavesPopped: 1552},
}

// rawTolerance is how far a change of drain order alone may move a
// RawDistances total (see counterCeilings); measured +1.6% (1-NN), +5.0%
// (k-NN), −1.8% (DTW), +3.5% (window).
const rawTolerance = 0.06

// warmSearchAllocs is testing.AllocsPerRun of a warm Search on the same
// workload at the commit before the cascade; the one-sided and root-key
// tables live in the pooled scratch, so it did not move.
const warmSearchAllocs = 20

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
		"knn": func(q series.Series) (*QueryStats, error) { _, st, err := ix.SearchKNN(q, 5, 1); return st, err },
		"dtw": func(q series.Series) (*QueryStats, error) { _, st, err := ix.SearchDTW(q, 8, 1); return st, err },
		"window": func(q series.Series) (*QueryStats, error) {
			_, st, err := ix.SearchWindow(q, 12_000, 1)
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
		}
		t.Logf("%s: raw %d, entries %d, popped %d, listed %d", name,
			sum.RawDistances, sum.EntriesChecked, sum.LeavesPopped, sum.LeavesInserted)
		top := counterCeilings[name]
		rawTop := int(float64(top.RawDistances) * (1 + rawTolerance))
		if sum.RawDistances > rawTop || sum.EntriesChecked > top.EntriesChecked || sum.LeavesPopped > top.LeavesPopped {
			t.Errorf("%s: raw %d, entries %d, popped %d exceed the ceilings %d, %d, %d", name,
				sum.RawDistances, sum.EntriesChecked, sum.LeavesPopped,
				rawTop, top.EntriesChecked, top.LeavesPopped)
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
		t.Errorf("a warm Search allocates %v times, %d before the cascade", got, warmSearchAllocs)
	}
}
