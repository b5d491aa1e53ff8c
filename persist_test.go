package dsidx_test

import (
	"math"
	"path/filepath"
	"testing"

	"dsidx"
)

func TestMESSISaveLoadRoundTrip(t *testing.T) {
	coll := dsidx.Generate(dsidx.Synthetic, 1500, 256, 21)
	idx, err := dsidx.NewMESSI(coll, dsidx.WithLeafCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "messi.dsi")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	// A loaded index takes the options a built one does, WithMergeThreshold
	// included.
	loaded, err := dsidx.LoadMESSI(path, coll, dsidx.WithMergeThreshold(64))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != idx.Len() {
		t.Fatalf("loaded Len %d != %d", loaded.Len(), idx.Len())
	}
	if got := loaded.Metrics().Ingest.MergeThreshold; got != 64 {
		t.Errorf("LoadMESSI dropped WithMergeThreshold: threshold %d, want 64", got)
	}

	queries := dsidx.GenerateQueries(dsidx.Synthetic, 5, 256, 21)
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		a, err := idx.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Distance-b.Distance) > 1e-9 {
			t.Fatalf("query %d: loaded index answers %v, original %v", qi, b.Distance, a.Distance)
		}
		// k-NN and DTW work on the loaded index too.
		if _, err := loaded.SearchKNN(q, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := loaded.SearchDTW(q, 8); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMESSILoadValidatesCollection(t *testing.T) {
	coll := dsidx.Generate(dsidx.Synthetic, 500, 256, 22)
	idx, err := dsidx.NewMESSI(coll)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "messi.dsi")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	// Wrong count.
	if _, err := dsidx.LoadMESSI(path, dsidx.Generate(dsidx.Synthetic, 400, 256, 22)); err == nil {
		t.Error("mismatched collection size accepted")
	}
	// Wrong length.
	if _, err := dsidx.LoadMESSI(path, dsidx.Generate(dsidx.Synthetic, 500, 128, 22)); err == nil {
		t.Error("mismatched series length accepted")
	}
	// Missing file.
	if _, err := dsidx.LoadMESSI(filepath.Join(t.TempDir(), "nope.dsi"), coll); err == nil {
		t.Error("missing file accepted")
	}
}

func TestParISSaveLoadOnDisk(t *testing.T) {
	coll := dsidx.Generate(dsidx.Seismic, 700, 256, 23)
	dc, err := dsidx.NewSimulatedDisk(coll, dsidx.Unthrottled)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := dsidx.NewParISPlus(dc, dsidx.WithLeafCapacity(32))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "paris.dsi")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := dsidx.LoadParIS(path, dc)
	if err != nil {
		t.Fatal(err)
	}
	queries := dsidx.GeneratePerturbedQueries(coll, 4, 0.05, 23)
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		a, err := idx.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Distance-b.Distance) > 1e-9 {
			t.Fatalf("query %d: loaded %v != original %v", qi, b.Distance, a.Distance)
		}
		// Approximate search exercises flushed-leaf loading via saved refs.
		if _, err := loaded.SearchApproximate(q); err != nil {
			t.Fatal(err)
		}
	}
}

func TestParISSaveLoadInMemory(t *testing.T) {
	coll := dsidx.Generate(dsidx.SALD, 600, 0, 24)
	idx, err := dsidx.NewParISInMemory(coll, dsidx.WithLeafCapacity(32))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "paris-mem.dsi")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := dsidx.LoadParISInMemory(path, coll)
	if err != nil {
		t.Fatal(err)
	}
	q := dsidx.GenerateQueries(dsidx.SALD, 1, 0, 24).At(0)
	a, err := idx.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Distance-b.Distance) > 1e-9 {
		t.Fatalf("loaded %v != original %v", b.Distance, a.Distance)
	}
}

func TestParISPublicKNNAndDTW(t *testing.T) {
	coll := dsidx.Generate(dsidx.Synthetic, 800, 256, 25)
	idx, err := dsidx.NewParISInMemory(coll, dsidx.WithLeafCapacity(32))
	if err != nil {
		t.Fatal(err)
	}
	q := dsidx.GenerateQueries(dsidx.Synthetic, 1, 256, 25).At(0)
	knn, err := idx.SearchKNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := dsidx.ScanKNN(coll, q, 5)
	for i := range want {
		if math.Abs(knn[i].Distance-want[i].Distance) > 1e-6 {
			t.Fatalf("rank %d: %v != %v", i, knn[i].Distance, want[i].Distance)
		}
	}
	dtw, err := idx.SearchDTW(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantDTW := dsidx.ScanNearestDTW(coll, q, 10)
	if math.Abs(dtw.Distance-wantDTW.Distance) > 1e-6 {
		t.Fatalf("DTW %v != %v", dtw.Distance, wantDTW.Distance)
	}
	approx, err := idx.SearchApproximate(q)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := idx.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if approx.Distance < exact.Distance-1e-9 {
		t.Fatalf("approximate %v below exact %v", approx.Distance, exact.Distance)
	}
}

func TestMESSISaveLoadWithLiveAppends(t *testing.T) {
	// The delta buffer — merged and pending appends alike — must survive
	// Save/Load: appended series exist nowhere but inside the index.
	coll := dsidx.Generate(dsidx.Synthetic, 800, 128, 26)
	idx, err := dsidx.NewMESSI(coll, dsidx.WithLeafCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	extra := dsidx.Generate(dsidx.Synthetic, 300, 128, 27)
	for i := 0; i < 200; i++ {
		if _, err := idx.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	idx.Flush() // first 200 merged into the tree
	batch := make([]dsidx.Series, 100)
	for i := range batch {
		batch[i] = extra.At(200 + i)
	}
	if start, err := idx.AppendBatch(batch); err != nil || start != 1000 {
		t.Fatalf("batch start %d err %v", start, err)
	}
	st := idx.IngestStats()
	if st.Appended != 300 || st.Merged != 200 || st.Pending != 100 {
		t.Fatalf("ingest stats before save: %+v", st)
	}

	path := filepath.Join(t.TempDir(), "messi-live.dsi")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := dsidx.LoadMESSI(path, coll)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != 1100 {
		t.Fatalf("loaded Len %d, want 1100", loaded.Len())
	}
	if lst := loaded.IngestStats(); lst.Pending != 100 || lst.Merged != 200 {
		t.Fatalf("loaded ingest stats: %+v", lst)
	}
	// An appended-and-pending series is its own nearest neighbor in the
	// loaded index, at the position Append reported.
	m, err := loaded.Search(extra.At(250))
	if err != nil {
		t.Fatal(err)
	}
	if m.Pos != 1050 || m.Distance != 0 {
		t.Fatalf("loaded self-query: (#%d, %v)", m.Pos, m.Distance)
	}
	queries := dsidx.GeneratePerturbedQueries(coll, 5, 0.05, 26)
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		a, err := idx.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if a.Pos != b.Pos || a.Distance != b.Distance {
			t.Fatalf("query %d: loaded (#%d, %v) != original (#%d, %v)",
				qi, b.Pos, b.Distance, a.Pos, a.Distance)
		}
	}
}
