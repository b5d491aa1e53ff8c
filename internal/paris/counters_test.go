package paris_test

import (
	"testing"

	"dsidx/internal/adsplus"
	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/paris"
	"dsidx/internal/series"
	"dsidx/internal/storage"
)

// work is one row of counterReadings: QueryStats summed over the workload's
// queries and, for an index on a disk, the device reads they cost.
type work struct {
	Candidates, PrunedByScan, RawDistances int
	ReadOps, BytesRead                     int64
}

// counterReadings are the work totals on counterWorkload at one worker,
// where every counter is deterministic, so any change in the work a kind
// does shows here. The exact kinds' rows and every device reading are
// those of the hand-written query per kind that Run replaced, and the ADS+
// row is that of ADS+'s own serial copy of the 1-NN query — identical to
// ParIS's on-disk 1-NN row, since on one worker both build the same tree.
// The Approx RawDistances are Run's own: the query it replaced kept no
// stats. PrunedByScan is held beside Candidates because their sum must stay
// the collection size times the query count.
var counterReadings = map[string]work{
	"disk/nn":     {Candidates: 429, PrunedByScan: 95571, RawDistances: 502, ReadOps: 518, BytesRead: 519800},
	"disk/knn":    {Candidates: 3424, PrunedByScan: 92576, RawDistances: 2279, ReadOps: 2279, BytesRead: 2333696},
	"disk/dtw":    {Candidates: 2926, PrunedByScan: 93074, RawDistances: 2920, ReadOps: 2920, BytesRead: 2990080},
	"disk/approx": {RawDistances: 16, ReadOps: 32, BytesRead: 22136},
	"mem/nn":      {Candidates: 1948, PrunedByScan: 94052, RawDistances: 883},
	"mem/knn":     {Candidates: 3424, PrunedByScan: 92576, RawDistances: 2279},
	"mem/dtw":     {Candidates: 2926, PrunedByScan: 93074, RawDistances: 2920},
	"mem/approx":  {RawDistances: 278},
	"adsplus/nn":  {Candidates: 429, PrunedByScan: 95571, RawDistances: 502, ReadOps: 518, BytesRead: 519800},
}

// TestWorkCountersHoldTheirReadings runs every kind over 6,000 Synthetic
// series with 8 random and 8 perturbed queries, on one worker, against
// three indexes: ParIS on a disk (raw file and leaves on one device), ParIS
// in memory, and ADS+ on a disk of its own.
func TestWorkCountersHoldTheirReadings(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Seed: 71}
	coll := g.Collection(6000)
	var qs []series.Series
	for _, c := range []*series.Collection{g.Queries(8), g.PerturbedQueries(coll, 8, 0.05)} {
		for i := 0; i < c.Len(); i++ {
			qs = append(qs, c.At(i))
		}
	}
	cfg := core.Config{LeafCapacity: 64}
	newDisk := func() (*storage.Disk, *storage.SeriesFile, *storage.LeafStore) {
		d := storage.NewDisk(storage.NewMemStore(), storage.Unthrottled)
		raw, err := storage.WriteCollection(d, coll)
		if err != nil {
			t.Fatal(err)
		}
		return d, raw, storage.NewLeafStore(d)
	}
	dd, raw, leaves := newDisk()
	disk, err := paris.Build(raw, leaves, cfg, paris.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := paris.BuildInMemory(coll, cfg, paris.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ad, raw, leaves := newDisk()
	ads, err := adsplus.Build(raw, leaves, cfg)
	if err != nil {
		t.Fatal(err)
	}

	type row struct {
		disk *storage.Disk // nil in memory
		run  func(q series.Series) (*paris.QueryStats, error)
	}
	rows := map[string]row{"adsplus/nn": {ad, func(q series.Series) (*paris.QueryStats, error) {
		_, st, err := ads.Search(q)
		return st, err
	}}}
	kinds := map[string]paris.Query{
		"nn":     {Kind: messi.NN},
		"knn":    {Kind: messi.KNN, K: 5},
		"dtw":    {Kind: messi.DTW, Warp: 8},
		"approx": {Kind: messi.Approx},
	}
	for name, v := range map[string]struct {
		ix   *paris.Index
		disk *storage.Disk
	}{"disk": {disk, dd}, "mem": {mem, nil}} {
		for kname, kq := range kinds {
			rows[name+"/"+kname] = row{v.disk, func(q series.Series) (*paris.QueryStats, error) {
				kq.Series, kq.Workers = q, 1
				_, st, err := v.ix.Run(kq)
				return st, err
			}}
		}
	}
	for name, r := range rows {
		if r.disk != nil {
			r.disk.ResetMetrics()
		}
		var got work
		for _, q := range qs {
			st, err := r.run(q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got.Candidates += st.Candidates
			got.PrunedByScan += st.PrunedByScan
			got.RawDistances += st.RawDistances
		}
		if r.disk != nil {
			m := r.disk.Metrics()
			got.ReadOps, got.BytesRead = m.ReadOps, m.BytesRead
		}
		t.Logf("%s: %+v", name, got)
		if want := counterReadings[name]; got != want {
			t.Errorf("%s: work %+v, want the recorded %+v", name, got, want)
		}
	}
}
