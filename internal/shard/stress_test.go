package shard

// Cross-shard race-stress suite: the acceptance gate for the shared
// best-so-far. 16 concurrent mixed queries (1-NN / k-NN / DTW) scatter over
// 4 shards — every one threading a single xsync.Best or KBest through all
// four shards' traversals — while writer goroutines stream appends through
// the routing layer and background merges fire per shard. Every recorded
// answer is verified post-hoc against a serial internal/ucr scan over
// exactly the global prefix the query observed (QueryStats.Observed), the
// cross-shard analogue of the messi ingest stress test: the consistent-cut
// vector guarantees each query saw a true prefix of the landed order even
// though its pieces live on four different shards.

import (
	"sync"
	"testing"
	"time"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/series"
	"dsidx/internal/ucr"
	"dsidx/internal/xsync"
)

const (
	stressShards  = 4
	stressReaders = 16
	stressWriters = 3
	stressKNNK    = 5
	stressWindow  = 4
	stressBase    = 900
	stressAppends = 1100
)

// stressRecord is one answer a reader observed mid-stream.
type stressRecord struct {
	kind     int // 0 = 1-NN, 1 = k-NN, 2 = DTW
	qi       int
	observed int
	nn       ucr.Result
	knn      []ucr.Result
}

func TestShardedIngestRaceStress(t *testing.T) {
	queriesPerReader := 8
	if testing.Short() {
		queriesPerReader = 3
	}
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 808}
	base := g.Collection(stressBase)
	queries := g.PerturbedQueries(base, 48, 0.05)
	pool := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 809}.Collection(stressAppends)
	s, err := Build(base, core.Config{LeafCapacity: 64},
		Options{Shards: stressShards, Options: messi.Options{MergeThreshold: 64}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	var appendCursor xsync.Counter
	var wg sync.WaitGroup

	// Writers: claim pool series with Fetch&Inc and append them in small
	// paced bursts (a mix of Append and AppendBatch) so the routing layer,
	// the cut vector and per-shard merges all churn under the readers.
	for w := 0; w < stressWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]series.Series, 0, 16)
			for {
				batch = batch[:0]
				for len(batch) < 16 {
					i := int(appendCursor.Next())
					if i >= pool.Len() {
						break
					}
					batch = append(batch, pool.At(i))
				}
				if len(batch) == 0 {
					return
				}
				var err error
				if w == 0 {
					for _, ser := range batch {
						if _, err = s.Append(ser); err != nil {
							break
						}
					}
				} else {
					_, err = s.AppendBatch(batch)
				}
				if err != nil {
					t.Error(err)
					return
				}
				time.Sleep(500 * time.Microsecond)
			}
		}(w)
	}

	// Readers: 16 concurrent mixed queries, every one sharing its BSF
	// across all 4 shards, recording what each call observed.
	records := make([][]stressRecord, stressReaders)
	for r := 0; r < stressReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			recs := make([]stressRecord, 0, queriesPerReader)
			for n := 0; n < queriesPerReader; n++ {
				qi := (r*queriesPerReader + n) % queries.Len()
				q := queries.At(qi)
				switch kind := qi % 3; kind {
				case 0:
					got, st, err := s.Search(q, 0)
					if err != nil {
						t.Error(err)
						return
					}
					recs = append(recs, stressRecord{kind: 0, qi: qi, observed: st.Observed, nn: got})
				case 1:
					got, st, err := s.Query(messi.Query{Kind: messi.KNN, Series: q, K: stressKNNK, Scope: messi.FullScope})
					if err != nil {
						t.Error(err)
						return
					}
					recs = append(recs, stressRecord{kind: 1, qi: qi, observed: st.Observed, knn: got})
				case 2:
					got, st, err := messi.First(s.Query(messi.Query{Kind: messi.DTW, Series: q, Warp: stressWindow, Scope: messi.FullScope}))
					if err != nil {
						t.Error(err)
						return
					}
					recs = append(recs, stressRecord{kind: 2, qi: qi, observed: st.Observed, nn: got})
				}
			}
			records[r] = recs
		}(r)
	}
	wg.Wait()

	if s.Count() != stressBase+stressAppends {
		t.Fatalf("count %d, want %d", s.Count(), stressBase+stressAppends)
	}
	if st := s.IngestStats(); st.Merges == 0 {
		t.Error("no background merge ran on any shard — lower the threshold or raise the append count")
	}

	// Post-hoc verification: the routing layer's global position order is
	// the landed order; every recorded answer must equal a serial scan over
	// the global prefix it observed, bit for bit.
	landed := landedCollection(s)
	verified := 0
	for r := range records {
		for _, rec := range records[r] {
			if rec.observed < stressBase || rec.observed > landed.Len() {
				t.Fatalf("record observed %d outside [%d, %d]", rec.observed, stressBase, landed.Len())
			}
			prefix := landed.Slice(0, rec.observed)
			q := queries.At(rec.qi)
			switch rec.kind {
			case 0:
				want := ucr.Scan(prefix, q)
				if rec.nn.Pos != want.Pos || rec.nn.Dist != want.Dist {
					t.Errorf("query %d over %d series: (#%d, %v), serial scan says (#%d, %v)",
						rec.qi, rec.observed, rec.nn.Pos, rec.nn.Dist, want.Pos, want.Dist)
				}
			case 1:
				want := ucr.ScanKNN(prefix, q, stressKNNK)
				if len(rec.knn) != len(want) {
					t.Errorf("query %d over %d series: %d results, want %d",
						rec.qi, rec.observed, len(rec.knn), len(want))
					continue
				}
				for k := range want {
					if rec.knn[k].Pos != want[k].Pos || rec.knn[k].Dist != want[k].Dist {
						t.Errorf("query %d over %d series rank %d: (#%d, %v) != (#%d, %v)",
							rec.qi, rec.observed, k, rec.knn[k].Pos, rec.knn[k].Dist, want[k].Pos, want[k].Dist)
					}
				}
			case 2:
				want := ucr.ScanDTW(prefix, q, stressWindow)
				if rec.nn.Pos != want.Pos || rec.nn.Dist != want.Dist {
					t.Errorf("DTW query %d over %d series: (#%d, %v), serial scan says (#%d, %v)",
						rec.qi, rec.observed, rec.nn.Pos, rec.nn.Dist, want.Pos, want.Dist)
				}
			}
			verified++
		}
	}
	if verified != stressReaders*queriesPerReader {
		t.Fatalf("verified %d records, want %d", verified, stressReaders*queriesPerReader)
	}

	// Settle: flush every shard, re-check exactness and tree invariants.
	s.Flush()
	if p := s.Pending(); p != 0 {
		t.Fatalf("pending %d after final Flush", p)
	}
	for si := 0; si < s.Shards(); si++ {
		if err := s.Shard(si).Tree().CheckInvariants(); err != nil {
			t.Fatalf("shard %d tree invariants after stress: %v", si, err)
		}
	}
	for qi := 0; qi < 6; qi++ {
		q := queries.At(qi)
		got, _, err := s.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := ucr.Scan(landed, q)
		if got.Pos != want.Pos || got.Dist != want.Dist {
			t.Fatalf("settled query %d: (#%d, %v) != serial (#%d, %v)",
				qi, got.Pos, got.Dist, want.Pos, want.Dist)
		}
	}
}

func TestShardedCloseDuringMergesAndQueries(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 818}
	base := g.Collection(600)
	queries := g.PerturbedQueries(base, 6, 0.05)
	pool := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 819}.Collection(800)
	s, err := Build(base, core.Config{LeafCapacity: 64},
		Options{Shards: stressShards, Options: messi.Options{MergeThreshold: 48}})
	if err != nil {
		t.Fatal(err)
	}

	ss := make([]series.Series, 400)
	for i := range ss {
		ss[i] = pool.At(i)
	}
	if _, err := s.AppendBatch(ss); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 400; i < 600; i++ {
			if _, err := s.Append(pool.At(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < queries.Len(); i++ {
			if _, _, err := s.Search(queries.At(i), 0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	s.Close() // idempotent on top of the concurrent pair

	// After Close: appends still land, Flush merges inline, answers stay
	// exact over the shared-pool-less (serial) execution path.
	if _, err := s.Append(pool.At(600)); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if p := s.Pending(); p != 0 {
		t.Fatalf("pending %d after post-Close Flush", p)
	}
	live := landedCollection(s)
	for i := 0; i < queries.Len(); i++ {
		q := queries.At(i)
		got, _, err := s.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := ucr.Scan(live, q)
		if got.Pos != want.Pos || got.Dist != want.Dist {
			t.Fatalf("post-close query %d: (#%d, %v) != serial (#%d, %v)",
				i, got.Pos, got.Dist, want.Pos, want.Dist)
		}
	}
}
