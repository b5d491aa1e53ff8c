package messi

// Live-ingestion suite. Run with -race: the stress test is the acceptance
// gate for concurrent append+query serving — writer goroutines stream new
// series into the index while readers run mixed Search/SearchKNN/SearchDTW,
// and every answer is compared bit-for-bit against a serial internal/ucr
// scan over exactly the collection snapshot the query observed (the
// QueryStats.Observed prefix). Equality can be exact because the index and
// the serial scans share one distance kernel (see ucr.Scan), and because
// appends publish in prefix order: a query that observed T series saw
// precisely positions [0, T) of the final landed order.

import (
	"sync"
	"testing"
	"time"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/series"
	"dsidx/internal/ucr"
	"dsidx/internal/xsync"
)

const (
	ingestLen     = 64
	ingestKNNK    = 5
	ingestWindow  = 4
	ingestBase    = 1000
	ingestAppends = 1200
)

// newIngestIndex builds a small index with a low merge threshold so
// background merges actually happen mid-test.
func newIngestIndex(t *testing.T, base *series.Collection, threshold int) *Index {
	t.Helper()
	ix, err := Build(base, core.Config{LeafCapacity: 64}, Options{MergeThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ix.Close)
	return ix
}

// liveCollection copies everything the index currently serves — base
// collection plus landed appends, in position order — into a flat
// collection for ground-truth scans.
func liveCollection(ix *Index) *series.Collection {
	n := ix.Count()
	out := series.NewCollection(n, ix.cfg.SeriesLen)
	for i := 0; i < n; i++ {
		out.Set(i, ix.At(i))
	}
	return out
}

func TestAppendVisibleImmediatelyAndExact(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: ingestLen, Seed: 31}
	base := g.Collection(400)
	queries := g.PerturbedQueries(base, 8, 0.05)
	ix := newIngestIndex(t, base, 1<<30) // never auto-merge: pure delta path
	extra := gen.Generator{Kind: gen.Synthetic, Length: ingestLen, Seed: 32}.Collection(150)

	for i := 0; i < extra.Len(); i++ {
		pos, err := ix.Append(extra.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if pos != 400+i {
			t.Fatalf("append %d landed at %d", i, pos)
		}
	}
	if ix.Count() != 550 || ix.Pending() != 150 {
		t.Fatalf("count=%d pending=%d", ix.Count(), ix.Pending())
	}
	live := liveCollection(ix)
	for i := 0; i < queries.Len(); i++ {
		q := queries.At(i)
		got, st, err := ix.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.Observed != 550 {
			t.Fatalf("observed %d, want 550", st.Observed)
		}
		want := ucr.Scan(live, q)
		if got.Pos != want.Pos || got.Dist != want.Dist {
			t.Fatalf("query %d: (#%d, %v) != serial (#%d, %v)", i, got.Pos, got.Dist, want.Pos, want.Dist)
		}
	}
	// An appended series must be findable as its own exact nearest neighbor.
	got, _, err := ix.Search(extra.At(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pos != 407 || got.Dist != 0 {
		t.Fatalf("self-query of appended series: (#%d, %v)", got.Pos, got.Dist)
	}
}

func TestFlushMergesEverythingAndKeepsAnswers(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: ingestLen, Seed: 41}
	base := g.Collection(600)
	queries := g.PerturbedQueries(base, 10, 0.05)
	ix := newIngestIndex(t, base, 1<<30)
	extra := gen.Generator{Kind: gen.Synthetic, Length: ingestLen, Seed: 42}.Collection(500)
	ss := make([]series.Series, extra.Len())
	for i := range ss {
		ss[i] = extra.At(i)
	}
	if _, err := ix.AppendBatch(ss); err != nil {
		t.Fatal(err)
	}

	live := liveCollection(ix)
	before := make([]ucr.Result, queries.Len())
	for i := range before {
		r, _, err := ix.Search(queries.At(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = r
	}
	oldTree := ix.Tree()
	oldCount := oldTree.Count()

	ix.Flush()

	if p := ix.Pending(); p != 0 {
		t.Fatalf("pending %d after Flush", p)
	}
	st := ix.IngestStats()
	if st.Merged != 500 || st.Appended != 500 || st.Merges == 0 {
		t.Fatalf("ingest stats after flush: %+v", st)
	}
	newTree := ix.Tree()
	if newTree.Count() != 1100 {
		t.Fatalf("tree covers %d series after flush, want 1100", newTree.Count())
	}
	if err := newTree.CheckInvariants(); err != nil {
		t.Fatalf("merged tree invariants: %v", err)
	}
	// The pre-merge snapshot must be untouched: readers that loaded it
	// mid-merge keep answering from a consistent structure.
	if oldTree.Count() != oldCount {
		t.Fatalf("old snapshot mutated by merge: %d != %d", oldTree.Count(), oldCount)
	}
	// Answers are identical before and after the merge, and identical to a
	// serial scan: merging moves series between structures, never results.
	for i := range before {
		r, _, err := ix.Search(queries.At(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.Pos != before[i].Pos || r.Dist != before[i].Dist {
			t.Fatalf("query %d changed across merge: (#%d,%v) != (#%d,%v)",
				i, r.Pos, r.Dist, before[i].Pos, before[i].Dist)
		}
		want := ucr.Scan(live, queries.At(i))
		if r.Pos != want.Pos || r.Dist != want.Dist {
			t.Fatalf("query %d after merge: (#%d,%v) != serial (#%d,%v)",
				i, r.Pos, r.Dist, want.Pos, want.Dist)
		}
	}
}

func TestAppendLengthMismatch(t *testing.T) {
	base := gen.Generator{Kind: gen.Synthetic, Length: ingestLen, Seed: 5}.Collection(100)
	ix := newIngestIndex(t, base, 1<<30)
	if _, err := ix.Append(make(series.Series, ingestLen+1)); err == nil {
		t.Fatal("wrong-length append accepted")
	}
	if _, err := ix.AppendBatch([]series.Series{make(series.Series, ingestLen), make(series.Series, 3)}); err == nil {
		t.Fatal("wrong-length batch accepted")
	}
	if ix.Count() != 100 || ix.Pending() != 0 {
		t.Fatalf("failed appends changed state: count=%d pending=%d", ix.Count(), ix.Pending())
	}
}

// ingestRecord is one answer a reader observed mid-stream, verified
// post-hoc against a serial scan over the observed prefix.
type ingestRecord struct {
	kind     int // 0 = 1-NN, 1 = k-NN, 2 = DTW
	qi       int
	observed int
	nn       ucr.Result
	knn      []ucr.Result
}

func TestIngestRaceStress(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: ingestLen, Seed: 404}
	base := g.Collection(ingestBase)
	queries := g.PerturbedQueries(base, 48, 0.05)
	pool := gen.Generator{Kind: gen.Synthetic, Length: ingestLen, Seed: 405}.Collection(ingestAppends)
	ix := newIngestIndex(t, base, 200) // several background merges mid-test

	const writers, readers, queriesPerReader = 3, 6, 8
	var appendCursor xsync.Counter
	var wg sync.WaitGroup

	// Writers: claim pool series with Fetch&Inc and append them in small
	// paced bursts (a mix of Append and AppendBatch), yielding so readers
	// interleave on few cores.
	for w := 0; w < writers; w++ {
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
					for _, s := range batch {
						if _, err = ix.Append(s); err != nil {
							break
						}
					}
				} else {
					_, err = ix.AppendBatch(batch)
				}
				if err != nil {
					t.Error(err)
					return
				}
				time.Sleep(500 * time.Microsecond)
			}
		}(w)
	}

	// Readers: mixed query kinds, recording what each call observed.
	records := make([][]ingestRecord, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			recs := make([]ingestRecord, 0, queriesPerReader)
			for n := 0; n < queriesPerReader; n++ {
				qi := (r*queriesPerReader + n) % queries.Len()
				q := queries.At(qi)
				switch kind := qi % 3; kind {
				case 0:
					got, st, err := ix.Search(q, 0)
					if err != nil {
						t.Error(err)
						return
					}
					recs = append(recs, ingestRecord{kind: 0, qi: qi, observed: st.Observed, nn: got})
				case 1:
					got, st, err := ix.Query(Query{Kind: KNN, Series: q, K: ingestKNNK, Scope: FullScope})
					if err != nil {
						t.Error(err)
						return
					}
					recs = append(recs, ingestRecord{kind: 1, qi: qi, observed: st.Observed, knn: got})
				case 2:
					got, st, err := First(ix.Query(Query{Kind: DTW, Series: q, Warp: ingestWindow, Scope: FullScope}))
					if err != nil {
						t.Error(err)
						return
					}
					recs = append(recs, ingestRecord{kind: 2, qi: qi, observed: st.Observed, nn: got})
				}
			}
			records[r] = recs
		}(r)
	}
	wg.Wait()

	if ix.Count() != ingestBase+ingestAppends {
		t.Fatalf("count %d, want %d", ix.Count(), ingestBase+ingestAppends)
	}
	if st := ix.IngestStats(); st.Merges == 0 {
		t.Error("no background merge ran — lower the threshold or raise the append count")
	}

	// Post-hoc verification: the landed order is the index's own position
	// order; every recorded answer must equal a serial scan over the prefix
	// it observed.
	landed := liveCollection(ix)
	verified := 0
	for r := range records {
		for _, rec := range records[r] {
			if rec.observed < ingestBase || rec.observed > landed.Len() {
				t.Fatalf("record observed %d outside [%d, %d]", rec.observed, ingestBase, landed.Len())
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
				want := ucr.ScanKNN(prefix, q, ingestKNNK)
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
				want := ucr.ScanDTW(prefix, q, ingestWindow)
				if rec.nn.Pos != want.Pos || rec.nn.Dist != want.Dist {
					t.Errorf("DTW query %d over %d series: (#%d, %v), serial scan says (#%d, %v)",
						rec.qi, rec.observed, rec.nn.Pos, rec.nn.Dist, want.Pos, want.Dist)
				}
			}
			verified++
		}
	}
	if verified != readers*queriesPerReader {
		t.Fatalf("verified %d records, want %d", verified, readers*queriesPerReader)
	}

	// Settle: merge everything and re-check exactness and tree invariants.
	ix.Flush()
	if p := ix.Pending(); p != 0 {
		t.Fatalf("pending %d after final Flush", p)
	}
	if err := ix.Tree().CheckInvariants(); err != nil {
		t.Fatalf("tree invariants after stress: %v", err)
	}
	for qi := 0; qi < 6; qi++ {
		q := queries.At(qi)
		got, _, err := ix.Search(q, 0)
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

func TestCloseDuringBackgroundMergeIsSafeAndIdempotent(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: ingestLen, Seed: 51}
	base := g.Collection(800)
	queries := g.PerturbedQueries(base, 6, 0.05)
	pool := gen.Generator{Kind: gen.Synthetic, Length: ingestLen, Seed: 52}.Collection(2000)
	ix := newIngestIndex(t, base, 128)

	// Cross the merge threshold so a background merge is in flight, then
	// race Close against it (and against more appends and queries).
	ss := make([]series.Series, 600)
	for i := range ss {
		ss[i] = pool.At(i)
	}
	if _, err := ix.AppendBatch(ss); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ix.Close()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 600; i < 1000; i++ {
			if _, err := ix.Append(pool.At(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < queries.Len(); i++ {
			if _, _, err := ix.Search(queries.At(i), 0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	ix.Close() // double-call on top of the concurrent pair

	// After Close: appends still land, Flush merges inline, queries stay
	// exact (executing serially), and the tree is structurally sound.
	if _, err := ix.Append(pool.At(1000)); err != nil {
		t.Fatal(err)
	}
	ix.Flush()
	if p := ix.Pending(); p != 0 {
		t.Fatalf("pending %d after post-Close Flush", p)
	}
	if err := ix.Tree().CheckInvariants(); err != nil {
		t.Fatalf("tree invariants after shutdown race: %v", err)
	}
	live := liveCollection(ix)
	for i := 0; i < queries.Len(); i++ {
		q := queries.At(i)
		got, _, err := ix.Search(q, 0)
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

func TestCloseReturnsUnderSustainedAppends(t *testing.T) {
	// A producer that keeps the delta above the merge threshold must not
	// wedge Close: the background merge job polls the engine's closing
	// signal and exits, leaving the remainder pending (still exactly
	// searchable, mergeable via Flush).
	base := gen.Generator{Kind: gen.Synthetic, Length: ingestLen, Seed: 81}.Collection(400)
	pool := gen.Generator{Kind: gen.Synthetic, Length: ingestLen, Seed: 82}.Collection(4000)
	ix := newIngestIndex(t, base, 16) // tiny threshold: merges can never catch up

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ix.Append(pool.At(i % pool.Len())); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Let the merge job spin up against the append stream, then close.
	for ix.IngestStats().Merges == 0 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		ix.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return while appends continued")
	}
	close(stop)
	wg.Wait()
	ix.Flush()
	if p := ix.Pending(); p != 0 {
		t.Fatalf("pending %d after post-Close Flush", p)
	}
	if err := ix.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPersistRoundTripWithPendingDelta(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: ingestLen, Seed: 61}
	base := g.Collection(500)
	queries := g.PerturbedQueries(base, 6, 0.05)
	ix := newIngestIndex(t, base, 1<<30)
	extra := gen.Generator{Kind: gen.Synthetic, Length: ingestLen, Seed: 62}.Collection(300)

	// Merge some appends, keep others pending, so the encoded index carries
	// a split delta buffer.
	for i := 0; i < 200; i++ {
		if _, err := ix.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	ix.Flush()
	for i := 200; i < 300; i++ {
		if _, err := ix.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
	}

	enc := ix.Encode()
	ix2, err := Decode(enc, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if ix2.Count() != ix.Count() || ix2.Pending() != 100 {
		t.Fatalf("decoded count=%d pending=%d, want %d/100", ix2.Count(), ix2.Pending(), ix.Count())
	}
	st := ix2.IngestStats()
	if st.Merged != 200 {
		t.Fatalf("decoded merged = %d, want 200", st.Merged)
	}
	// Re-encoding the decoded index reproduces the bytes exactly.
	if enc2 := ix2.Encode(); string(enc2) != string(enc) {
		t.Fatal("re-encode differs from original encode")
	}
	// Answers are identical across the round trip and match serial scans.
	live := liveCollection(ix)
	for i := 0; i < queries.Len(); i++ {
		q := queries.At(i)
		a, _, err := ix.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := ix2.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := ucr.Scan(live, q)
		if a != b || a.Pos != want.Pos || a.Dist != want.Dist {
			t.Fatalf("round-trip query %d: %+v vs %+v vs serial %+v", i, a, b, want)
		}
	}
	// The appended store travels with the index: appended series resolve
	// from the decoded index without the caller re-supplying them.
	got, _, err := ix2.Search(extra.At(250), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pos != 750 || got.Dist != 0 {
		t.Fatalf("decoded self-query: (#%d, %v)", got.Pos, got.Dist)
	}
}

func TestLegacyFormatStillDecodes(t *testing.T) {
	// An index with no appends encodes to the bare DSI1 blob, so files
	// written before live ingestion existed keep loading.
	base := gen.Generator{Kind: gen.Synthetic, Length: ingestLen, Seed: 71}.Collection(300)
	ix := newIngestIndex(t, base, 1<<30)
	enc := ix.Encode()
	if string(enc[:4]) != "DSI1" {
		t.Fatalf("no-append encode magic %q, want legacy DSI1", enc[:4])
	}
	ix2, err := Decode(enc, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix2.Close()
}
