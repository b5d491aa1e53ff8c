package dsidx_test

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"dsidx"
)

func TestGenerateDeterministic(t *testing.T) {
	a := dsidx.Generate(dsidx.Synthetic, 50, 256, 7)
	b := dsidx.Generate(dsidx.Synthetic, 50, 256, 7)
	if a.Len() != 50 || a.SeriesLen() != 256 {
		t.Fatalf("shape (%d,%d)", a.Len(), a.SeriesLen())
	}
	for i := 0; i < a.Len(); i++ {
		av, bv := a.At(i), b.At(i)
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("series %d differs at %d", i, j)
			}
		}
	}
}

func TestGenerateDefaultLengths(t *testing.T) {
	if got := dsidx.Generate(dsidx.SALD, 2, 0, 1).SeriesLen(); got != 128 {
		t.Errorf("SALD default length = %d, want 128", got)
	}
	if got := dsidx.Generate(dsidx.Seismic, 2, 0, 1).SeriesLen(); got != 256 {
		t.Errorf("Seismic default length = %d, want 256", got)
	}
}

func TestMESSIPublicAPI(t *testing.T) {
	coll := dsidx.Generate(dsidx.Synthetic, 2000, 256, 9)
	idx, err := dsidx.NewMESSI(coll, dsidx.WithLeafCapacity(64), dsidx.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 2000 {
		t.Fatalf("Len = %d", idx.Len())
	}
	st := idx.Stats()
	if st.Series != 2000 || st.Leaves == 0 {
		t.Fatalf("stats %+v", st)
	}

	queries := dsidx.GenerateQueries(dsidx.Synthetic, 5, 256, 9)
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		want := dsidx.ScanNearest(coll, q)
		got, err := idx.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Distance-want.Distance) > 1e-6*math.Max(1, want.Distance) {
			t.Fatalf("query %d: MESSI %v != scan %v", qi, got.Distance, want.Distance)
		}
		// Distances through the public API are true distances (not squared).
		if got.Distance < 0 {
			t.Fatal("negative distance")
		}

		knn, err := idx.SearchKNN(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(knn) != 3 || math.Abs(knn[0].Distance-got.Distance) > 1e-9 {
			t.Fatalf("query %d: kNN[0] %v != 1NN %v", qi, knn[0].Distance, got.Distance)
		}

		dtw, err := idx.SearchDTW(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		wantDTW := dsidx.ScanNearestDTW(coll, q, 10)
		if math.Abs(dtw.Distance-wantDTW.Distance) > 1e-6*math.Max(1, wantDTW.Distance) {
			t.Fatalf("query %d: DTW %v != scan %v", qi, dtw.Distance, wantDTW.Distance)
		}
		if dtw.Distance > got.Distance+1e-9 {
			t.Fatalf("query %d: DTW NN %v above ED NN %v", qi, dtw.Distance, got.Distance)
		}
	}
}

func TestMESSIBatchSearchPublicAPI(t *testing.T) {
	coll := dsidx.Generate(dsidx.Synthetic, 2000, 256, 11)
	idx, err := dsidx.NewMESSI(coll, dsidx.WithLeafCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	queries := dsidx.GeneratePerturbedQueries(coll, 12, 0.05, 11)
	qs := make([]dsidx.Series, queries.Len())
	for i := range qs {
		qs[i] = queries.At(i)
	}
	batch, err := idx.BatchSearch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(qs) {
		t.Fatalf("%d results for %d queries", len(batch), len(qs))
	}
	for i := range qs {
		want, err := idx.Search(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != want {
			t.Fatalf("batch[%d] = %+v, serial = %+v", i, batch[i], want)
		}
	}
	if st := idx.EngineStats(); st.Queries < uint64(len(qs)) || st.Workers <= 0 {
		t.Fatalf("engine stats %+v after batch", st)
	}
}

func TestMESSIServePublicAPI(t *testing.T) {
	coll := dsidx.Generate(dsidx.Synthetic, 1500, 256, 13)
	idx, err := dsidx.NewMESSI(coll, dsidx.WithLeafCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	queries := dsidx.GeneratePerturbedQueries(coll, 9, 0.05, 13)
	in := make(chan dsidx.QueryRequest)
	out := idx.Serve(context.Background(), in)
	go func() {
		for i := 0; i < queries.Len(); i++ {
			req := dsidx.QueryRequest{ID: int64(i), Query: queries.At(i)}
			switch i % 3 {
			case 1:
				req.Kind, req.K = dsidx.QueryKNN, 3
			case 2:
				req.Kind, req.Window = dsidx.QueryDTW, 10
			}
			in <- req
		}
		close(in)
	}()

	got := make(map[int64]dsidx.QueryResponse)
	for resp := range out {
		got[resp.ID] = resp
	}
	if len(got) != queries.Len() {
		t.Fatalf("%d responses for %d requests", len(got), queries.Len())
	}
	for i := 0; i < queries.Len(); i++ {
		resp := got[int64(i)]
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		q := queries.At(i)
		switch i % 3 {
		case 0:
			want, _ := idx.Search(q)
			if len(resp.Matches) != 1 || resp.Matches[0] != want {
				t.Fatalf("request %d (NN): %+v, want %+v", i, resp.Matches, want)
			}
		case 1:
			want, _ := idx.SearchKNN(q, 3)
			if len(resp.Matches) != len(want) {
				t.Fatalf("request %d (kNN): %d matches, want %d", i, len(resp.Matches), len(want))
			}
			for r := range want {
				if resp.Matches[r] != want[r] {
					t.Fatalf("request %d (kNN) rank %d: %+v, want %+v", i, r, resp.Matches[r], want[r])
				}
			}
		case 2:
			want, _ := idx.SearchDTW(q, 10)
			if len(resp.Matches) != 1 || resp.Matches[0] != want {
				t.Fatalf("request %d (DTW): %+v, want %+v", i, resp.Matches, want)
			}
		}
	}
}

func TestMESSIServeRejectsKNNWithoutK(t *testing.T) {
	// KNN without K must surface a per-response error, not a silent empty
	// answer (SearchKNN treats k<=0 as a no-op by contract).
	coll := dsidx.Generate(dsidx.Synthetic, 500, 64, 19)
	idx, err := dsidx.NewMESSI(coll)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	in := make(chan dsidx.QueryRequest, 1)
	out := idx.Serve(context.Background(), in)
	in <- dsidx.QueryRequest{ID: 1, Query: coll.At(0), Kind: dsidx.QueryKNN}
	close(in)
	resp := <-out
	if resp.Err == nil {
		t.Fatalf("KNN request without K answered without error: %+v", resp)
	}
}

func TestMESSIServeContextCancel(t *testing.T) {
	coll := dsidx.Generate(dsidx.Synthetic, 500, 64, 17)
	idx, err := dsidx.NewMESSI(coll)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan dsidx.QueryRequest) // never closed: cancellation must end Serve
	out := idx.Serve(ctx, in)
	cancel()
	for range out {
	} // must terminate
}

func TestParISOnSimulatedDiskPublicAPI(t *testing.T) {
	coll := dsidx.Generate(dsidx.Seismic, 800, 256, 10)
	for _, build := range []struct {
		name string
		fn   func(*dsidx.DiskCollection, ...dsidx.Option) (*dsidx.ParIS, error)
	}{
		{"ParIS", dsidx.NewParIS},
		{"ParIS+", dsidx.NewParISPlus},
	} {
		t.Run(build.name, func(t *testing.T) {
			dc, err := dsidx.NewSimulatedDisk(coll, dsidx.Unthrottled)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := build.fn(dc, dsidx.WithLeafCapacity(32), dsidx.WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			if idx.Len() != coll.Len() {
				t.Fatalf("Len = %d", idx.Len())
			}
			queries := dsidx.GenerateQueries(dsidx.Seismic, 3, 256, 10)
			for qi := 0; qi < queries.Len(); qi++ {
				q := queries.At(qi)
				want := dsidx.ScanNearest(coll, q)
				got, err := idx.Search(q)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got.Distance-want.Distance) > 1e-6*math.Max(1, want.Distance) {
					t.Fatalf("query %d: %v != %v", qi, got.Distance, want.Distance)
				}
			}
			m := dc.Metrics()
			if m.BytesRead == 0 {
				t.Error("no device reads recorded during build+search")
			}
		})
	}
}

func TestADSPlusPublicAPI(t *testing.T) {
	coll := dsidx.Generate(dsidx.SALD, 600, 0, 11)
	dc, err := dsidx.NewSimulatedDisk(coll, dsidx.Unthrottled)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := dsidx.NewADSPlus(dc, dsidx.WithLeafCapacity(32))
	if err != nil {
		t.Fatal(err)
	}
	queries := dsidx.GenerateQueries(dsidx.SALD, 3, 0, 11)
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		want := dsidx.ScanNearest(coll, q)
		got, err := idx.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Distance-want.Distance) > 1e-6*math.Max(1, want.Distance) {
			t.Fatalf("query %d: %v != %v", qi, got.Distance, want.Distance)
		}
	}
}

func TestSaveAndOpenDiskCollection(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.dsf")
	coll := dsidx.Generate(dsidx.Synthetic, 100, 64, 12)

	dc, err := dsidx.SaveCollection(path, coll, dsidx.Unthrottled)
	if err != nil {
		t.Fatal(err)
	}
	if dc.Len() != 100 || dc.SeriesLen() != 64 {
		t.Fatalf("saved shape (%d,%d)", dc.Len(), dc.SeriesLen())
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := dsidx.OpenDiskCollection(path, dsidx.Unthrottled)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	buf := make(dsidx.Series, 64)
	if err := reopened.ReadSeries(42, buf); err != nil {
		t.Fatal(err)
	}
	want := coll.At(42)
	for j := range want {
		if buf[j] != want[j] {
			t.Fatalf("series 42 differs at %d after reopen", j)
		}
	}
}

func TestParISInMemoryPublicAPI(t *testing.T) {
	coll := dsidx.Generate(dsidx.Synthetic, 700, 256, 13)
	idx, err := dsidx.NewParISInMemory(coll, dsidx.WithLeafCapacity(32))
	if err != nil {
		t.Fatal(err)
	}
	q := dsidx.GenerateQueries(dsidx.Synthetic, 1, 256, 13).At(0)
	want := dsidx.ScanNearestParallel(coll, q, 4)
	got, err := idx.SearchWithWorkers(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Distance-want.Distance) > 1e-6*math.Max(1, want.Distance) {
		t.Fatalf("%v != %v", got.Distance, want.Distance)
	}
}

func TestScanDiskSerialPublicAPI(t *testing.T) {
	coll := dsidx.Generate(dsidx.Synthetic, 300, 128, 14)
	dc, err := dsidx.NewSimulatedDisk(coll, dsidx.Unthrottled)
	if err != nil {
		t.Fatal(err)
	}
	q := dsidx.GenerateQueries(dsidx.Synthetic, 1, 128, 14).At(0)
	want := dsidx.ScanNearest(coll, q)
	got, err := dsidx.ScanNearestDiskSerial(dc, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pos != want.Pos || math.Abs(got.Distance-want.Distance) > 1e-9 {
		t.Fatalf("disk scan %+v != memory %+v", got, want)
	}
}

func TestSearchApproximatePublicAPI(t *testing.T) {
	coll := dsidx.Generate(dsidx.Synthetic, 1000, 256, 15)
	idx, err := dsidx.NewMESSI(coll, dsidx.WithLeafCapacity(32))
	if err != nil {
		t.Fatal(err)
	}
	queries := dsidx.GeneratePerturbedQueries(coll, 5, 0.05, 15)
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		approx, err := idx.SearchApproximate(q)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := idx.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if approx.Distance < exact.Distance-1e-9 {
			t.Fatalf("query %d: approximate %v below exact %v", qi, approx.Distance, exact.Distance)
		}
	}
}

func TestGeneratePerturbedQueriesClose(t *testing.T) {
	coll := dsidx.Generate(dsidx.SALD, 500, 0, 16)
	queries := dsidx.GeneratePerturbedQueries(coll, 5, 0.05, 16)
	for qi := 0; qi < queries.Len(); qi++ {
		m := dsidx.ScanNearest(coll, queries.At(qi))
		// NN of a 5%-perturbed member must be far closer than a random
		// query's NN (which is ~sqrt(2n) for z-normalized series).
		if m.Distance > 3 {
			t.Fatalf("perturbed query %d has NN at %v — not close", qi, m.Distance)
		}
	}
}

func TestCollectionFromValuesPublicAPI(t *testing.T) {
	coll, err := dsidx.CollectionFromValues([]float32{1, 2, 3, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if coll.Len() != 2 {
		t.Fatalf("Len = %d", coll.Len())
	}
	if _, err := dsidx.CollectionFromValues([]float32{1, 2, 3}, 2); err == nil {
		t.Error("invalid values accepted")
	}
}

func TestWindowsPublicAPI(t *testing.T) {
	long := dsidx.Generate(dsidx.Synthetic, 1, 2048, 33).At(0)
	windows, offsets, err := dsidx.Windows(long, 256, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	if windows.Len() != len(offsets) || windows.Len() == 0 {
		t.Fatalf("windows=%d offsets=%d", windows.Len(), len(offsets))
	}
	idx, err := dsidx.NewMESSI(windows)
	if err != nil {
		t.Fatal(err)
	}
	// Query with one of the windows: it must find itself at distance 0.
	q := windows.At(7).Clone()
	m, err := idx.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if m.Pos != 7 || m.Distance > 1e-6 {
		t.Fatalf("self-query answered %+v", m)
	}
}
