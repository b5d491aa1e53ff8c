package paris

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/storage"
)

// faultStore wraps a Store, counts its reads, and fails every read from
// the failAt-th on (none while failAt is negative).
type faultStore struct {
	storage.Store
	reads, failAt atomic.Int64
}

func newFaultStore() *faultStore {
	fs := &faultStore{Store: storage.NewMemStore()}
	fs.failAt.Store(-1)
	return fs
}

var errInjected = errors.New("injected fault")

func (f *faultStore) ReadAt(p []byte, off int64) (int, error) {
	if n, at := f.reads.Add(1), f.failAt.Load(); at >= 0 && n > at {
		return 0, errInjected
	}
	return f.Store.ReadAt(p, off)
}

// TestSearchPropagatesReadErrors fails the raw file's reads of each kind's
// query from its first read (a seed), its middle one and its last one (a
// refinement read, for the exact kinds): the query must return the fault.
// One worker keeps the read count of a query the same on every run.
func TestSearchPropagatesReadErrors(t *testing.T) {
	coll, queries := dataset(t, gen.Synthetic, 300)
	fs := newFaultStore()
	raw, err := storage.WriteCollection(fs, coll)
	if err != nil {
		t.Fatal(err)
	}
	leaves := storage.NewLeafStore(storage.NewMemStore())
	ix, err := Build(raw, leaves, core.Config{LeafCapacity: 16}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{{Kind: messi.NN}, {Kind: messi.KNN, K: 3}, {Kind: messi.DTW, Warp: 4}, {Kind: messi.Approx}} {
		q.Series, q.Workers = queries.At(0), 1
		fs.failAt.Store(-1)
		fs.reads.Store(0)
		if _, _, err := ix.Run(q); err != nil {
			t.Fatal(err)
		}
		reads := fs.reads.Load()
		for _, at := range []int64{0, reads / 2, reads - 1} {
			fs.reads.Store(0)
			fs.failAt.Store(at)
			if _, _, err := ix.Run(q); !errors.Is(err, errInjected) {
				t.Fatalf("kind %d, reads failing from %d of %d: error = %v, want the injected fault", q.Kind, at, reads, err)
			}
		}
	}
}

func TestBuildPropagatesReadErrors(t *testing.T) {
	coll, _ := dataset(t, gen.Synthetic, 300)
	fs := newFaultStore()
	raw, err := storage.WriteCollection(fs, coll)
	if err != nil {
		t.Fatal(err)
	}
	fs.failAt.Store(0)
	_, err = Build(raw, storage.NewLeafStore(storage.NewMemStore()),
		core.Config{LeafCapacity: 16}, Options{Workers: 2})
	if !errors.Is(err, errInjected) {
		t.Fatalf("Build error = %v, want injected fault", err)
	}
}

func TestQueryStatsConsistency(t *testing.T) {
	coll, queries := dataset(t, gen.Synthetic, 1200)
	ix, err := BuildInMemory(coll, core.Config{LeafCapacity: 32}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < queries.Len(); qi++ {
		_, stats, err := nn(ix, queries.At(qi), 4)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Candidates+stats.PrunedByScan != coll.Len() {
			t.Fatalf("candidates %d + pruned %d != %d", stats.Candidates, stats.PrunedByScan, coll.Len())
		}
		// Real distances never exceed candidates plus the approximate
		// phase (which refines up to one full leaf in-memory).
		if stats.RawDistances > stats.Candidates+32 {
			t.Fatalf("raw distances %d exceed candidates %d + leaf", stats.RawDistances, stats.Candidates)
		}
	}
}

func TestConcurrentSearches(t *testing.T) {
	// Queries are read-only; many must be able to run concurrently on one
	// index without interference.
	coll, queries := dataset(t, gen.Synthetic, 800)
	ix, err := BuildInMemory(coll, core.Config{LeafCapacity: 32}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, queries.Len())
	for qi := range want {
		_, want[qi] = coll.BruteForce1NN(queries.At(qi))
	}
	var wg sync.WaitGroup
	for rep := 0; rep < 4; rep++ {
		for qi := 0; qi < queries.Len(); qi++ {
			wg.Add(1)
			go func(qi int) {
				defer wg.Done()
				got, _, err := nn(ix, queries.At(qi), 2)
				if err != nil {
					t.Error(err)
					return
				}
				if math.Abs(got.Dist-want[qi]) > 1e-6*math.Max(1, want[qi]) {
					t.Errorf("query %d: %v != %v", qi, got.Dist, want[qi])
				}
			}(qi)
		}
	}
	wg.Wait()
}

func TestDiskMetricsChargedDuringQuery(t *testing.T) {
	coll, queries := dataset(t, gen.Synthetic, 500)
	disk := storage.NewDisk(storage.NewMemStore(), storage.Unthrottled)
	raw, err := storage.WriteCollection(disk, coll)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(raw, storage.NewLeafStore(disk), core.Config{LeafCapacity: 16}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	disk.ResetMetrics()
	if _, _, err := nn(ix, queries.At(0), 2); err != nil {
		t.Fatal(err)
	}
	m := disk.Metrics()
	if m.ReadOps == 0 || m.BytesRead == 0 {
		t.Fatalf("no device reads charged during on-disk query: %+v", m)
	}
}
