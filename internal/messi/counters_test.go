package messi

import (
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/series"
)

// counterCeilings are the per-flavor work totals of the locked-queue drain
// (commit 9620075, the one before the candidate list) on counterWorkload,
// Workers: 1 — one queue there, so that drain was globally best-first too.
// The sorted list refines the same leaves in the same order wherever bounds
// differ, so the ED flavors land exactly on these; it may lower them and must
// never raise them. Under DTW every leaf the envelope overlaps ties at zero,
// and the list drains ties outward from the query's own leaf where the heap
// drained them in sift order: fewer distances, same leaves.
var counterCeilings = map[string]QueryStats{
	"1nn":    {RawDistances: 1455, EntriesChecked: 53130, LeavesPopped: 5507},
	"knn":    {RawDistances: 4508, EntriesChecked: 129524, LeavesPopped: 21228},
	"dtw":    {RawDistances: 3825, EntriesChecked: 77179, LeavesPopped: 9882},
	"window": {RawDistances: 1174, EntriesChecked: 66452, LeavesPopped: 8048},
}

// warmSearchAllocs is testing.AllocsPerRun of a warm Search on the same
// workload at the same commit.
const warmSearchAllocs = 25

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

func TestCountersStayUnderLockedQueueCeilings(t *testing.T) {
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
		if sum.RawDistances > top.RawDistances || sum.EntriesChecked > top.EntriesChecked || sum.LeavesPopped > top.LeavesPopped {
			t.Errorf("%s: raw %d, entries %d, popped %d exceed the ceilings %d, %d, %d", name,
				sum.RawDistances, sum.EntriesChecked, sum.LeavesPopped,
				top.RawDistances, top.EntriesChecked, top.LeavesPopped)
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
		t.Errorf("a warm Search allocates %v times, the locked-queue drain allocated %d", got, warmSearchAllocs)
	}
}
