package dsidx_test

import (
	"testing"

	"dsidx"
)

// warmQueryAllocs are the ceilings of TestWarmPublicQueryAllocations: warm
// allocations per query through the public API, read on the change that
// added the test (DTW's since its dynamic program's rows became per-worker
// scratch). A change that adds an allocation to the public query path fails
// here; one that removes some lowers the ceiling.
var warmQueryAllocs = map[string]float64{
	"MESSI.Search":            18,
	"MESSI.SearchKNN":         25,
	"MESSI.SearchDTW":         23,
	"MESSI.SearchApproximate": 17,
	"MESSI.SearchWindow":      18,
	"Sharded4.Search":         47,
}

// TestWarmPublicQueryAllocations counts the allocations of one warm query of
// each kind through a MESSI, and of a 1-NN query through a 4-shard Sharded,
// at WithWorkers(1) on 20,000 × 256: every query runs on the caller (and
// on one goroutine per further shard), so the count is the path's own.
func TestWarmPublicQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch, which is then reallocated")
	}
	coll := dsidx.Generate(dsidx.Synthetic, 20000, 256, 61)
	queries := dsidx.GeneratePerturbedQueries(coll, 16, 0.05, 62)
	ix, err := dsidx.NewMESSI(coll, dsidx.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	sharded, err := dsidx.NewSharded(coll, dsidx.WithShards(4), dsidx.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	one := func(_ dsidx.Match, err error) error { return err }
	kinds := []struct {
		name string
		run  func(q dsidx.Series) error
	}{
		{"MESSI.Search", func(q dsidx.Series) error { return one(ix.Search(q)) }},
		{"MESSI.SearchKNN", func(q dsidx.Series) error { _, err := ix.SearchKNN(q, 10); return err }},
		{"MESSI.SearchDTW", func(q dsidx.Series) error { return one(ix.SearchDTW(q, 8)) }},
		{"MESSI.SearchApproximate", func(q dsidx.Series) error { return one(ix.SearchApproximate(q)) }},
		{"MESSI.SearchWindow", func(q dsidx.Series) error { return one(ix.SearchWindow(q, 5000)) }},
		{"Sharded4.Search", func(q dsidx.Series) error { return one(sharded.Search(q)) }},
	}
	for _, k := range kinds {
		for i := 0; i < queries.Len(); i++ { // fill the scratch pools
			if err := k.run(queries.At(i)); err != nil {
				t.Fatalf("%s: %v", k.name, err)
			}
		}
		i := 0
		got := testing.AllocsPerRun(64, func() {
			if err := k.run(queries.At(i % queries.Len())); err != nil {
				t.Fatalf("%s: %v", k.name, err)
			}
			i++
		})
		t.Logf("%s: %v allocations per warm query", k.name, got)
		if top := warmQueryAllocs[k.name]; got > top {
			t.Errorf("%s: a warm query allocates %v times, want at most %v", k.name, got, top)
		}
	}
}
