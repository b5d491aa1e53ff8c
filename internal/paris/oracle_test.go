package paris_test

import (
	"math"
	"slices"
	"testing"

	"dsidx/internal/adsplus"
	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/paris"
	"dsidx/internal/series"
	"dsidx/internal/storage"
	"dsidx/internal/ucr"
	"dsidx/internal/vector"
)

// onDisk builds a ParIS index over coll written to an in-memory store.
func onDisk(t testing.TB, coll *series.Collection) *paris.Index {
	t.Helper()
	raw, err := storage.WriteCollection(storage.NewMemStore(), coll)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := paris.Build(raw, storage.NewLeafStore(storage.NewMemStore()), core.Config{LeafCapacity: 32}, paris.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// scan is the serial oracle's answer to q.
func scan(coll *series.Collection, q paris.Query) []core.Result {
	switch q.Kind {
	case messi.KNN:
		return ucr.ScanKNN(coll, q.Series, q.K)
	case messi.DTW:
		return []core.Result{ucr.ScanDTW(coll, q.Series, q.Warp)}
	}
	return []core.Result{ucr.Scan(coll, q.Series)}
}

// TestRunMatchesScanBitForBit holds every exact kind to the serial scans of
// internal/ucr, position and distance bit for bit: ParIS on disk and in
// memory at workers 1 and 4, and ADS+. The 20 series at positions 100–119
// reappear bit for bit at 1,300–1,319, and the queries are perturbed copies
// of them, so each 1-NN answer is an exact tie between a lower and a higher
// copy and each k-NN set holds both: the lower position must win, as in a
// serial scan.
func TestRunMatchesScanBitForBit(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: 128, Seed: 63}
	coll := g.Collection(1500)
	for i := 0; i < 20; i++ {
		coll.Set(1300+i, coll.At(100+i))
	}
	queries := g.PerturbedQueries(coll.Slice(100, 120), 12, 0.05)
	raw, err := storage.WriteCollection(storage.NewMemStore(), coll)
	if err != nil {
		t.Fatal(err)
	}
	ads, err := adsplus.Build(raw, storage.NewLeafStore(storage.NewMemStore()), core.Config{LeafCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := paris.BuildInMemory(coll, core.Config{LeafCapacity: 32}, paris.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	indexes := map[string]*paris.Index{"disk": onDisk(t, coll), "memory": mem}
	kinds := []paris.Query{
		{Kind: messi.NN}, {Kind: messi.KNN, K: 1}, {Kind: messi.KNN, K: 2}, {Kind: messi.KNN, K: 7},
		{Kind: messi.DTW, Warp: 0}, {Kind: messi.DTW, Warp: 4},
	}
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		if want := ucr.Scan(coll, q); want.Pos < 100 || want.Pos >= 120 {
			t.Fatalf("query %d: the serial scan answers #%d, the test wants a duplicated series", qi, want.Pos)
		}
		for _, kq := range kinds {
			kq.Series = q
			want := scan(coll, kq)
			for name, ix := range indexes {
				for _, workers := range []int{1, 4} {
					kq.Workers = workers
					got, _, err := ix.Run(kq)
					if err != nil || !slices.Equal(got, want) {
						t.Fatalf("%s, %d workers, query %d, kind %d (K %d, warp %d): %+v (%v), serial scan %+v",
							name, workers, qi, kq.Kind, kq.K, kq.Warp, got, err, want)
					}
				}
			}
		}
		if got, _, err := ads.Search(q); err != nil || got != ucr.Scan(coll, q) {
			t.Fatalf("ADS+ query %d: %+v (%v), serial scan %+v", qi, got, err, ucr.Scan(coll, q))
		}
	}
}

// FuzzRunMatchesScan runs one query of a fuzzed kind, k, warp and worker
// count, on disk or in memory, over a seeded collection, and holds its
// answer to the serial scans of internal/ucr bit for bit. The query is a
// collection member perturbed by relative noise perturb/64 — 0 makes it a
// copy. An Approx answer has no oracle; it must be a real series at the
// distance the shared kernel gives it, no nearer than the exact answer.
func FuzzRunMatchesScan(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(messi.NN), uint8(0), uint8(0), uint8(0), false)
	f.Add(int64(2), uint8(3), uint8(messi.NN), uint8(0), uint8(0), uint8(3), true)
	f.Add(int64(3), uint8(0), uint8(messi.KNN), uint8(4), uint8(0), uint8(1), true)
	f.Add(int64(4), uint8(40), uint8(messi.KNN), uint8(0), uint8(0), uint8(2), false)
	f.Add(int64(5), uint8(3), uint8(messi.DTW), uint8(0), uint8(0), uint8(0), true)
	f.Add(int64(6), uint8(8), uint8(messi.DTW), uint8(0), uint8(6), uint8(3), false)
	f.Add(int64(7), uint8(3), uint8(messi.Approx), uint8(0), uint8(0), uint8(1), true)
	f.Add(int64(8), uint8(200), uint8(messi.Approx), uint8(0), uint8(0), uint8(0), false)

	f.Fuzz(func(t *testing.T, seed int64, perturb, kind, k, warp, workers uint8, disk bool) {
		family := []gen.Kind{gen.Synthetic, gen.SALD, gen.Seismic}[uint64(seed)%3]
		g := gen.Generator{Kind: family, Length: 64, Seed: seed}
		coll := g.Collection(400)
		q := paris.Query{
			Kind:    messi.Kind(kind % 4),
			Series:  g.PerturbedQueries(coll, 1, float64(perturb)/64).At(0),
			K:       1 + int(k%8),
			Warp:    int(warp % 9),
			Workers: 1 + int(workers%4),
		}
		var ix *paris.Index
		if disk {
			ix = onDisk(t, coll)
		} else {
			var err error
			if ix, err = paris.BuildInMemory(coll, core.Config{LeafCapacity: 32}, paris.Options{Workers: 2}); err != nil {
				t.Fatal(err)
			}
		}
		got, _, err := ix.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if q.Kind != messi.Approx {
			if want := scan(coll, q); !slices.Equal(got, want) {
				t.Fatalf("kind %d (K %d, warp %d, %d workers): %+v, serial scan %+v", q.Kind, q.K, q.Warp, q.Workers, got, want)
			}
			return
		}
		exact := ucr.Scan(coll, q.Series)
		if a := got[0]; a.Pos < 0 || math.Float64bits(a.Dist) != math.Float64bits(vector.SquaredED(q.Series, coll.At(int(a.Pos)))) || a.Dist < exact.Dist {
			t.Fatalf("approximate answer %+v: not a series at its kernel distance no nearer than the exact %+v", a, exact)
		}
	})
}
