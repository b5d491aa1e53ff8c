package shard

import (
	"testing"

	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/series"
)

// batchWorkload is a sharded index at every shard count the batch tests
// run, with its query series.
func batchWorkload(t *testing.T, shards int) (*Sharded, []series.Series, int) {
	t.Helper()
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 91}
	coll := g.Collection(1000)
	s, err := Build(coll, testConfig(), Options{Shards: shards, Options: messi.Options{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	var qs []series.Series
	for _, c := range []*series.Collection{g.Queries(6), g.PerturbedQueries(coll, 6, 0.05)} {
		for i := 0; i < c.Len(); i++ {
			qs = append(qs, c.At(i))
		}
	}
	return s, qs, coll.Len()
}

func TestBatchSearchMatchesSerial(t *testing.T) {
	for _, shards := range []int{1, 3} {
		s, qs, _ := batchWorkload(t, shards)
		got, _, err := s.BatchSearchStats(qs)
		if err != nil {
			t.Fatal(err)
		}
		st := s.EngineStats() // snapshot before the serial re-runs below
		for i, q := range qs {
			want, _, err := s.Search(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("%d shards, batch result %d: %+v != serial %+v", shards, i, got[i], want)
			}
		}
		if st.Queries != uint64(len(qs)) {
			t.Errorf("%d shards: engine counted %d queries, want %d", shards, st.Queries, len(qs))
		}
		if st.PeakInFlight > s.MaxInFlight() {
			t.Errorf("%d shards: peak in-flight %d exceeds admission bound %d", shards, st.PeakInFlight, s.MaxInFlight())
		}
	}
}

func TestBatchSearchReportsQueryError(t *testing.T) {
	s, qs, _ := batchWorkload(t, 1)
	bad := make(series.Series, 3) // wrong length
	if _, _, err := s.BatchSearchStats([]series.Series{qs[0], bad}); err == nil {
		t.Fatal("batch with a wrong-length query returned no error")
	}
}

func TestBatchSearchStatsMatchesSearch(t *testing.T) {
	for _, shards := range []int{1, 3} {
		s, qs, n := batchWorkload(t, shards)
		results, stats, err := s.BatchSearchStats(qs)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(qs) || len(stats) != len(qs) {
			t.Fatalf("%d results, %d stats for %d queries", len(results), len(stats), len(qs))
		}
		for i, q := range qs {
			want, wantSt, err := s.Search(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if results[i] != want {
				t.Fatalf("%d shards, query %d: batch %+v vs direct %+v", shards, i, results[i], want)
			}
			if stats[i].Observed != wantSt.Observed || stats[i].Observed != n {
				t.Fatalf("%d shards, query %d: Observed %d, want %d", shards, i, stats[i].Observed, n)
			}
			if stats[i].RawDistances <= 0 || stats[i].EntriesChecked <= 0 {
				t.Fatalf("%d shards, query %d: empty stats %+v", shards, i, stats[i])
			}
			if stats[i].ProbeLeaves != shards {
				t.Fatalf("%d shards, query %d: ProbeLeaves %d, want one per shard", shards, i, stats[i].ProbeLeaves)
			}
		}
	}
}
