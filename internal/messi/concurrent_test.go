package messi

// Concurrency suite for the shared-worker-pool query engine. Run with
// -race; the stress tests are the acceptance gate for multi-query serving:
// ≥64 simultaneous Search/SearchKNN/SearchDTW calls against one index, with
// every answer compared bit-for-bit against the serial internal/ucr
// brute-force ground truth. Equality can be exact (not tolerance-based)
// because the index and the serial scans share one distance kernel: a
// winner is never early-abandoned, so every system computes the identical
// floating-point sum for it (see ucr.Scan).

import (
	"sync"
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/series"
	"dsidx/internal/ucr"
)

const (
	stressQueries = 64
	stressKNNK    = 5
	stressWindow  = 8
)

// stressWorkload builds one index plus serial ground truth for a mixed
// ED/kNN/DTW query set. Queries are perturbed collection members so the
// pruning regime matches dense collections (see gen.PerturbedQueries).
type stressWorkload struct {
	coll    *series.Collection
	queries *series.Collection
	ix      *Index
	nn      []ucr.Result   // ground truth for kind 0 (1-NN ED)
	knn     [][]ucr.Result // ground truth for kind 1 (k-NN ED)
	dtw     []ucr.Result   // ground truth for kind 2 (1-NN DTW)
}

func newStressWorkload(t *testing.T, n int) *stressWorkload {
	t.Helper()
	g := gen.Generator{Kind: gen.Synthetic, Length: 128, Seed: 404}
	coll := g.Collection(n)
	queries := g.PerturbedQueries(coll, stressQueries, 0.05)
	ix, err := Build(coll, core.Config{LeafCapacity: 64}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ix.Close)
	w := &stressWorkload{coll: coll, queries: queries, ix: ix,
		nn:  make([]ucr.Result, queries.Len()),
		knn: make([][]ucr.Result, queries.Len()),
		dtw: make([]ucr.Result, queries.Len()),
	}
	for i := 0; i < queries.Len(); i++ {
		q := queries.At(i)
		switch i % 3 {
		case 0:
			w.nn[i] = ucr.Scan(coll, q)
		case 1:
			w.knn[i] = ucr.ScanKNN(coll, q, stressKNNK)
		case 2:
			w.dtw[i] = ucr.ScanDTW(coll, q, stressWindow)
		}
	}
	return w
}

// checkQuery runs query i through the index (concurrently with others) and
// compares against ground truth bit-for-bit.
func (w *stressWorkload) checkQuery(t *testing.T, i int) {
	q := w.queries.At(i)
	switch i % 3 {
	case 0:
		got, _, err := w.ix.Search(q, 0)
		if err != nil {
			t.Errorf("query %d: %v", i, err)
			return
		}
		want := w.nn[i]
		if got.Pos != want.Pos || got.Dist != want.Dist {
			t.Errorf("query %d (1-NN): got (#%d, %v), serial scan says (#%d, %v)",
				i, got.Pos, got.Dist, want.Pos, want.Dist)
		}
	case 1:
		got, _, err := w.ix.Query(Query{Kind: KNN, Series: q, K: stressKNNK, Scope: FullScope})
		if err != nil {
			t.Errorf("query %d: %v", i, err)
			return
		}
		want := w.knn[i]
		if len(got) != len(want) {
			t.Errorf("query %d (k-NN): %d results, want %d", i, len(got), len(want))
			return
		}
		for r := range want {
			if got[r].Pos != want[r].Pos || got[r].Dist != want[r].Dist {
				t.Errorf("query %d (k-NN) rank %d: got (#%d, %v), serial scan says (#%d, %v)",
					i, r, got[r].Pos, got[r].Dist, want[r].Pos, want[r].Dist)
			}
		}
	case 2:
		got, _, err := First(w.ix.Query(Query{Kind: DTW, Series: q, Warp: stressWindow, Scope: FullScope}))
		if err != nil {
			t.Errorf("query %d: %v", i, err)
			return
		}
		want := w.dtw[i]
		if got.Pos != want.Pos || got.Dist != want.Dist {
			t.Errorf("query %d (DTW): got (#%d, %v), serial scan says (#%d, %v)",
				i, got.Pos, got.Dist, want.Pos, want.Dist)
		}
	}
}

func TestConcurrentStress64(t *testing.T) {
	// 64 goroutines firing mixed Search/SearchKNN/SearchDTW at one index at
	// once — all query phases from all queries interleave on the shared
	// pool. Every answer must equal the serial brute-force answer exactly.
	w := newStressWorkload(t, 4000)
	var wg sync.WaitGroup
	for i := 0; i < w.queries.Len(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w.checkQuery(t, i)
		}(i)
	}
	wg.Wait()
	if st := w.ix.EngineStats(); st.Tasks == 0 {
		t.Error("no tasks executed on the shared pool — queries did not use it")
	}
}

func TestConcurrentStressRepeated(t *testing.T) {
	// Several waves over the same index: scratch buffers recycle between
	// waves, so reuse bugs (stale tables, unreset queues) surface as wrong
	// answers in later waves.
	w := newStressWorkload(t, 2000)
	for wave := 0; wave < 3; wave++ {
		var wg sync.WaitGroup
		for i := 0; i < w.queries.Len(); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				w.checkQuery(t, i)
			}(i)
		}
		wg.Wait()
	}
}

func TestSearchAfterCloseStillExact(t *testing.T) {
	// Close degrades the pool to inline execution; answers must not change.
	w := newStressWorkload(t, 1500)
	w.ix.Close()
	w.ix.Close() // idempotent
	for i := 0; i < 6; i++ {
		w.checkQuery(t, i)
	}
}

func TestConcurrentWorkerCountsAgree(t *testing.T) {
	// The per-call worker knob (the paper's scaling axis) must not change
	// answers, concurrent or not.
	w := newStressWorkload(t, 2000)
	var wg sync.WaitGroup
	for _, workers := range []int{1, 2, 4, 99} {
		for i := 0; i < 12; i += 3 {
			wg.Add(1)
			go func(i, workers int) {
				defer wg.Done()
				got, _, err := w.ix.Search(w.queries.At(i), workers)
				if err != nil {
					t.Errorf("workers=%d: %v", workers, err)
					return
				}
				want := w.nn[i]
				if got.Pos != want.Pos || got.Dist != want.Dist {
					t.Errorf("workers=%d query %d: (#%d, %v) != (#%d, %v)",
						workers, i, got.Pos, got.Dist, want.Pos, want.Dist)
				}
			}(i, workers)
		}
	}
	wg.Wait()
}
