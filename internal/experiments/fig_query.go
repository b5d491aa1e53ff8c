package experiments

import (
	"fmt"

	"dsidx/internal/adsplus"
	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/paris"
	"dsidx/internal/series"
	"dsidx/internal/storage"
	"dsidx/internal/ucr"
)

// buildParISOnDisk stages the workload on a device (unthrottled during the
// untimed build) and returns the index with the device ready for timed
// queries.
func buildParISOnDisk(w workload, profile storage.Profile, mode paris.Mode, cores int) (*paris.Index, *storage.Disk, error) {
	disk, raw, err := w.onDisk(profile)
	if err != nil {
		return nil, nil, err
	}
	disk.SetScale(0) // index creation is not the measured phase here
	ix, err := paris.Build(raw, storage.NewLeafStore(disk), core.Config{LeafCapacity: leafCapacity},
		paris.Options{Mode: mode, Workers: cores})
	if err != nil {
		return nil, nil, err
	}
	disk.SetScale(1)
	disk.ResetMetrics()
	return ix, disk, nil
}

// Fig8 reproduces ParIS+ exact query answering vs cores on HDD and SSD.
// Paper: performance improves with cores on both devices; SSD is more than
// an order of magnitude faster.
func Fig8(cfg Config) (*Table, error) {
	cfg = cfg.Normalize()
	if cfg.QueryCount > 3 {
		cfg.QueryCount = 3 // disk queries are the slow part of the suite
	}
	w := newWorkload(cfg, gen.Synthetic)
	t := &Table{
		ID:    "fig8",
		Title: "ParIS+ exact query answering vs cores (Synthetic)",
		Unit:  "seconds per query",
	}
	coreCounts := cfg.coreAxis(1, 2, 4, 8, 16, 24)
	for _, n := range coreCounts {
		t.Columns = append(t.Columns, fmt.Sprintf("%dc", n))
	}
	for _, profile := range []storage.Profile{queryHDD, querySSD} {
		ix, _, err := buildParISOnDisk(w, profile, paris.ModeParISPlus, cfg.MaxCores)
		if err != nil {
			return nil, fmt.Errorf("fig8 %s: %w", profile.Name, err)
		}
		row := make([]float64, 0, len(coreCounts))
		for _, cores := range coreCounts {
			mean, err := timeQueries(w.queries, func(q series.Series) error {
				_, _, err := ix.Run(paris.Query{Kind: messi.NN, Series: q, Workers: cores})
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("fig8 %s@%d: %w", profile.Name, cores, err)
			}
			row = append(row, seconds(mean))
		}
		t.AddRow("ParIS+ on "+profile.Name, row...)
	}
	t.Note("paper: both curves fall with cores; SSD >1 order of magnitude below HDD")
	return t, nil
}

// inMemoryScale multiplies the collection size for the in-memory query
// figures (9 and 12): they are CPU-bound and fast, and the separation the
// paper reports between MESSI's tree pruning and ParIS's full SAX-array
// scan is asymptotic — it needs enough series to emerge from fixed
// per-query overheads.
const inMemoryScale = 5

// Fig9 reproduces in-memory query answering vs cores: MESSI vs in-memory
// ParIS vs the parallel UCR Suite scan.
func Fig9(cfg Config) (*Table, error) {
	cfg = cfg.Normalize()
	cfg.SeriesCount *= inMemoryScale
	w := newWorkload(cfg, gen.Synthetic)
	t := &Table{
		ID:    "fig9",
		Title: "In-memory exact query answering vs cores (Synthetic)",
		Unit:  "milliseconds per query",
	}
	coreCounts := cfg.coreAxis(2, 4, 6, 8, 12, 18, 24)
	for _, n := range coreCounts {
		t.Columns = append(t.Columns, fmt.Sprintf("%dc", n))
	}

	parisIx, err := paris.BuildInMemory(w.coll, core.Config{LeafCapacity: leafCapacity},
		paris.Options{Workers: cfg.MaxCores})
	if err != nil {
		return nil, fmt.Errorf("fig9 ParIS build: %w", err)
	}
	messiIx, err := messi.Build(w.coll, core.Config{LeafCapacity: leafCapacity},
		messi.Options{Workers: cfg.MaxCores})
	if err != nil {
		return nil, fmt.Errorf("fig9 MESSI build: %w", err)
	}
	defer messiIx.Close()

	systems := []struct {
		name string
		run  func(q series.Series, cores int) error
	}{
		{"UCR Suite-p", func(q series.Series, cores int) error {
			ucr.ParallelScan(w.coll, q, cores)
			return nil
		}},
		{"ParIS", func(q series.Series, cores int) error {
			_, _, err := parisIx.Run(paris.Query{Kind: messi.NN, Series: q, Workers: cores})
			return err
		}},
		{"MESSI", func(q series.Series, cores int) error {
			_, _, err := messiIx.Search(q, cores)
			return err
		}},
	}
	for _, sys := range systems {
		row := make([]float64, 0, len(coreCounts))
		for _, cores := range coreCounts {
			mean, err := timeQueries(w.queries, func(q series.Series) error {
				return sys.run(q, cores)
			})
			if err != nil {
				return nil, fmt.Errorf("fig9 %s@%d: %w", sys.name, cores, err)
			}
			row = append(row, millis(mean))
		}
		t.AddRow(sys.name, row...)
	}
	t.Note("paper: MESSI below ParIS below UCR-p at every core count (log-scale plot)")
	return t, nil
}

// diskQueryRow measures the three on-disk systems of Figures 10/11 on one
// dataset and device.
func diskQueryRow(cfg Config, kind gen.Kind, profile storage.Profile) (ucrS, adsS, parisS float64, err error) {
	w := newWorkload(cfg, kind)

	// UCR Suite: serial scan of the raw file.
	disk, raw, err := w.onDisk(profile)
	if err != nil {
		return 0, 0, 0, err
	}
	_ = disk
	mean, err := timeQueries(w.queries, func(q series.Series) error {
		_, err := ucr.ScanDisk(raw, q, 0)
		return err
	})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("UCR: %w", err)
	}
	ucrS = seconds(mean)

	// ADS+ (serial index).
	disk2, raw2, err := w.onDisk(profile)
	if err != nil {
		return 0, 0, 0, err
	}
	disk2.SetScale(0)
	adsIx, err := adsplus.Build(raw2, storage.NewLeafStore(disk2), core.Config{LeafCapacity: leafCapacity})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("ADS+ build: %w", err)
	}
	disk2.SetScale(1)
	mean, err = timeQueries(w.queries, func(q series.Series) error {
		_, _, err := adsIx.Search(q)
		return err
	})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("ADS+: %w", err)
	}
	adsS = seconds(mean)

	// ParIS+.
	parisIx, _, err := buildParISOnDisk(w, profile, paris.ModeParISPlus, cfg.MaxCores)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("ParIS+ build: %w", err)
	}
	mean, err = timeQueries(w.queries, func(q series.Series) error {
		_, _, err := parisIx.Run(paris.Query{Kind: messi.NN, Series: q, Workers: cfg.MaxCores})
		return err
	})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("ParIS+: %w", err)
	}
	parisS = seconds(mean)
	return ucrS, adsS, parisS, nil
}

func diskQueryFigure(cfg Config, id string, profile storage.Profile, paperNote string) (*Table, error) {
	cfg = cfg.Normalize()
	if cfg.QueryCount > 3 {
		cfg.QueryCount = 3
	}
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("Exact query answering across datasets (%s)", profile.Name),
		Unit:    "seconds per query",
		Columns: []string{"UCR Suite", "ADS+", "ParIS+"},
	}
	for _, kind := range datasets {
		u, a, p, err := diskQueryRow(cfg, kind, profile)
		if err != nil {
			return nil, fmt.Errorf("%s %v: %w", id, kind, err)
		}
		t.AddRow(kind.String(), u, a, p)
	}
	t.Note("%s", paperNote)
	return t, nil
}

// Fig10 reproduces on-HDD query answering across datasets.
func Fig10(cfg Config) (*Table, error) {
	return diskQueryFigure(cfg, "fig10", queryHDD,
		"paper: ParIS+ up to 1 order of magnitude over ADS+, >2 orders over UCR Suite (HDD)")
}

// Fig11 reproduces on-SSD query answering across datasets.
func Fig11(cfg Config) (*Table, error) {
	return diskQueryFigure(cfg, "fig11", querySSD,
		"paper: ParIS+ 15x over ADS+, 2000x over UCR Suite (SSD)")
}

// Fig12 reproduces in-memory query answering across datasets.
func Fig12(cfg Config) (*Table, error) {
	cfg = cfg.Normalize()
	cfg.SeriesCount *= inMemoryScale
	t := &Table{
		ID:      "fig12",
		Title:   "In-memory exact query answering across datasets",
		Unit:    "milliseconds per query",
		Columns: []string{"UCR Suite-p", "ParIS", "MESSI"},
	}
	cores := cfg.MaxCores
	for _, kind := range datasets {
		w := newWorkload(cfg, kind)
		parisIx, err := paris.BuildInMemory(w.coll, core.Config{LeafCapacity: leafCapacity},
			paris.Options{Workers: cores})
		if err != nil {
			return nil, fmt.Errorf("fig12 ParIS %v: %w", kind, err)
		}
		messiIx, err := messi.Build(w.coll, core.Config{LeafCapacity: leafCapacity},
			messi.Options{Workers: cores})
		if err != nil {
			return nil, fmt.Errorf("fig12 MESSI %v: %w", kind, err)
		}
		var row [3]float64
		mean, err := timeQueries(w.queries, func(q series.Series) error {
			ucr.ParallelScan(w.coll, q, cores)
			return nil
		})
		if err != nil {
			return nil, err
		}
		row[0] = millis(mean)
		mean, err = timeQueries(w.queries, func(q series.Series) error {
			_, _, err := parisIx.Run(paris.Query{Kind: messi.NN, Series: q, Workers: cores})
			return err
		})
		if err != nil {
			return nil, err
		}
		row[1] = millis(mean)
		mean, err = timeQueries(w.queries, func(q series.Series) error {
			_, _, err := messiIx.Search(q, cores)
			return err
		})
		messiIx.Close()
		if err != nil {
			return nil, err
		}
		row[2] = millis(mean)
		t.AddRow(kind.String(), row[0], row[1], row[2])
	}
	t.Note("paper: MESSI 55-80x faster than UCR-p, 6.4-11x faster than ParIS")
	return t, nil
}
