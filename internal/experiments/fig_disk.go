package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/series"
	"dsidx/internal/shard"
	"dsidx/internal/storage"
)

// Out-of-core tiering benchmark: the same collection served fully hot
// (MESSI's in-memory premise) versus cold (base values on a simulated SSD
// behind shard.Options.ColdStorage's block cache), across cache budgets.
//
// Two claims are pinned. Correctness: every exact answer over the cold
// tier is bit-identical to the hot build's — the float32 → LE bytes →
// float32 round trip through the device is exact, so tiering is invisible
// to results (cold_matches_hot, asserted by scripts/disk_smoke.sh).
// Residency: an all-cold build over a real temp file must keep resident
// bytes/series well below the hot build — the base payload (the dominant
// term) lives on the device, RAM holds the tree, SAX summaries and the
// bounded cache (cold_over_flat).
//
// The latency points show the price: mean exact-query time against cache
// budget, with the block cache's hit rate and the device's I/O accounting
// (read ops, bytes, seeks, modeled busy time) for the query phase only —
// construction is staged at latency scale 0 and metrics are reset before
// the first query. Refinement follows the ParIS+ discipline: a leaf's lower
// bounds are computed from its resident summaries first and only the
// surviving candidates are read, in device order, from a file laid out in
// leaf order (see messi's coldEntries and shard/cold.go) — which is what
// device_reads_per_query and read_amplification hold a ceiling on.

// diskPoint is one cache budget's measurement over the cold tier.
type diskPoint struct {
	CacheBytes    int64   `json:"cache_bytes"`
	CacheOverData float64 `json:"cache_over_data"`
	NsPerQuery    float64 `json:"ns_per_query"`
	// Cache counters for the query phase (build-time loads excluded).
	HitRate   float64 `json:"hit_rate"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	// Device accounting for the query phase.
	DeviceReadOps         int64   `json:"device_read_ops"`
	DeviceBytesRead       int64   `json:"device_bytes_read"`
	DeviceSeeks           int64   `json:"device_seeks"`
	DeviceReadBusySeconds float64 `json:"device_read_busy_seconds"`
	// DeviceReadsPerQuery is DeviceReadOps over the query count;
	// ReadAmplification is DeviceBytesRead over the bytes of the series
	// whose real distance was computed (QueryStats.RawDistances).
	DeviceReadsPerQuery float64 `json:"device_reads_per_query"`
	ReadAmplification   float64 `json:"read_amplification"`
}

// DiskBenchResult is the machine-readable out-of-core record dsbench
// -diskjson writes (BENCH_disk.json).
type DiskBenchResult struct {
	BenchHeader
	Shards      int    `json:"shards"`
	BlockSeries int    `json:"block_series"`
	Device      string `json:"device"`
	// RawBytesPerSeries is the payload floor: 4 bytes per float32 point.
	RawBytesPerSeries int `json:"raw_bytes_per_series"`
	// FlatBytesPerSeries is the hot (all-in-RAM) build's residency;
	// ColdBytesPerSeries the all-cold build's over a real temp file.
	FlatBytesPerSeries float64 `json:"flat_bytes_per_series"`
	ColdBytesPerSeries float64 `json:"cold_bytes_per_series"`
	ColdOverFlat       float64 `json:"cold_over_flat"`
	// ColdMatchesHot records that every query answered bit-identically on
	// the cold tier and the hot build — the smoke-test invariant.
	ColdMatchesHot bool        `json:"cold_matches_hot"`
	Points         []diskPoint `json:"points"`
	Note           string      `json:"note,omitempty"`
}

// WriteJSON writes the record to path.
func (r *DiskBenchResult) WriteJSON(path string) error { return WriteBenchJSON(path, r) }

// diskCacheAxis is the swept cache budget as a fraction of the dataset.
var diskCacheAxis = []int64{32, 8, 2} // dataBytes / N

// RunDiskBench measures the out-of-core tier: residency and correctness
// against a hot build, and query latency across cache budgets on the
// query-scaled SSD profile. It is the programmatic form of the dsbench
// -diskjson flag and the CI disk-smoke step.
func RunDiskBench(cfg Config) (*DiskBenchResult, error) {
	cfg = cfg.Normalize()
	shards := maxInt(cfg.ShardAxis)
	w := newWorkload(cfg, gen.Synthetic)
	dataBytes := int64(w.coll.Len()) * int64(w.coll.SeriesLen()) * 4
	mo := messi.Options{Workers: cfg.MaxCores, MaxInFlight: maxInt(cfg.InFlightAxis)}

	res := &DiskBenchResult{
		BenchHeader:       header("dsidx-bench-disk/v1", cfg, w),
		Shards:            shards,
		BlockSeries:       storage.DefaultBlockSeries,
		Device:            querySSD.Name,
		RawBytesPerSeries: 4 * w.coll.SeriesLen(),
		ColdMatchesHot:    true,
		Note: "query-phase device accounting (construction staged unthrottled); " +
			machineBoundNote,
	}

	// Hot baseline: answers every point must reproduce exactly.
	hot, err := shard.Build(w.coll, core.Config{LeafCapacity: leafCapacity},
		shard.Options{Shards: shards, Options: mo})
	if err != nil {
		return nil, fmt.Errorf("diskbench: hot: %w", err)
	}
	hotAnswers := make([]core.Result, w.queries.Len())
	for i := range hotAnswers {
		r, _, err := hot.Search(w.queries.At(i), 0)
		if err != nil {
			hot.Close()
			return nil, fmt.Errorf("diskbench: hot query %d: %w", i, err)
		}
		hotAnswers[i] = r
	}
	hot.Close()

	for _, frac := range diskCacheAxis {
		budget := dataBytes / frac
		pt, matches, err := measureCold(cfg, w, shards, budget, dataBytes, mo, hotAnswers)
		if err != nil {
			return nil, err
		}
		res.ColdMatchesHot = res.ColdMatchesHot && matches
		res.Points = append(res.Points, pt)
	}

	if err := measureDiskResidency(cfg, res, shards, dataBytes, mo); err != nil {
		return nil, err
	}
	return res, nil
}

// measureCold builds an all-cold sharded index at one cache budget and
// runs the query set once, timing it and checking every answer against the
// hot baseline. The single pass is deliberate: first-touch misses are part
// of cold-tier latency.
func measureCold(cfg Config, w workload, shards int, budget, dataBytes int64,
	mo messi.Options, hotAnswers []core.Result) (diskPoint, bool, error) {
	pt := diskPoint{CacheBytes: budget, CacheOverData: float64(budget) / float64(dataBytes)}
	s, err := shard.Build(w.coll, core.Config{LeafCapacity: leafCapacity}, shard.Options{
		Shards: shards,
		ColdStorage: &shard.ColdStorage{
			Profile:    querySSD,
			CacheBytes: budget,
		},
		Options: mo,
	})
	if err != nil {
		return pt, false, fmt.Errorf("diskbench: cold@%d: %w", budget, err)
	}
	defer s.Close()
	s.ColdDisk().ResetMetrics()
	before := s.ColdStats().Cache

	matches := true
	qi, raws := 0, 0
	mean, err := timeQueries(w.queries, func(q series.Series) error {
		r, st, err := s.Search(q, 0)
		if err != nil {
			return err
		}
		raws += st.RawDistances
		if r != hotAnswers[qi] {
			matches = false
		}
		qi++
		return nil
	})
	if err != nil {
		return pt, false, fmt.Errorf("diskbench: cold@%d: %w", budget, err)
	}
	pt.NsPerQuery = float64(mean.Nanoseconds())

	after := s.ColdStats()
	pt.Hits = after.Cache.Hits - before.Hits
	pt.Misses = after.Cache.Misses - before.Misses
	pt.Evictions = after.Cache.Evictions - before.Evictions
	if total := pt.Hits + pt.Misses; total > 0 {
		pt.HitRate = float64(pt.Hits) / float64(total)
	}
	pt.DeviceReadOps = after.Device.ReadOps
	pt.DeviceBytesRead = after.Device.BytesRead
	pt.DeviceSeeks = after.Device.Seeks
	pt.DeviceReadBusySeconds = after.Device.ReadBusy.Seconds()
	pt.DeviceReadsPerQuery = float64(pt.DeviceReadOps) / float64(w.queries.Len())
	if raws > 0 {
		pt.ReadAmplification = float64(pt.DeviceBytesRead) / float64(raws*w.coll.SeriesLen()*4)
	}
	return pt, matches, nil
}

// measureDiskResidency fills the flat-vs-cold bytes/series comparison: the
// hot build keeps the collection reachable; the all-cold build stages it
// onto a real temp file and lets it be collected, so only the index
// structures and the bounded cache stay on the heap.
func measureDiskResidency(cfg Config, res *DiskBenchResult, shards int, dataBytes int64, mo messi.Options) error {
	g := gen.Generator{Kind: gen.Synthetic, Seed: cfg.Seed}
	var buildErr error
	flat, err := residentBytes(func() func() {
		coll := g.Collection(cfg.SeriesCount)
		s, err := shard.Build(coll, core.Config{LeafCapacity: leafCapacity},
			shard.Options{Shards: shards, Options: mo})
		if err != nil {
			buildErr = err
			return func() {}
		}
		return func() { s.Close(); runtime.KeepAlive(coll) }
	})
	if buildErr != nil {
		return fmt.Errorf("diskbench: flat residency: %w", buildErr)
	}
	if err != nil {
		return fmt.Errorf("diskbench: flat residency: %w", err)
	}

	cold, err := residentBytes(func() func() {
		coll := g.Collection(cfg.SeriesCount)
		dir, err := os.MkdirTemp("", "dsidx-cold-*")
		if err != nil {
			buildErr = err
			return func() {}
		}
		var fs *storage.FileStore
		s, err := shard.Build(coll, core.Config{LeafCapacity: leafCapacity}, shard.Options{
			Shards: shards,
			ColdStorage: &shard.ColdStorage{
				NewStore: func() (storage.Store, error) {
					var err error
					fs, err = storage.OpenFileStore(filepath.Join(dir, "base.dsf"))
					return fs, err
				},
				CacheBytes: dataBytes / 8,
			},
			Options: mo,
		})
		if err != nil {
			buildErr = err
			os.RemoveAll(dir)
			return func() {}
		}
		// No KeepAlive(coll): with every shard cold, the index serves reads
		// through the device cache and the flat collection must be
		// collectable — that is the residency win being measured.
		return func() {
			s.Close()
			fs.Close()
			os.RemoveAll(dir)
		}
	})
	if buildErr != nil {
		return fmt.Errorf("diskbench: cold residency: %w", buildErr)
	}
	if err != nil {
		return fmt.Errorf("diskbench: cold residency: %w", err)
	}

	n := float64(cfg.SeriesCount)
	res.FlatBytesPerSeries = float64(flat) / n
	res.ColdBytesPerSeries = float64(cold) / n
	res.ColdOverFlat = float64(cold) / float64(flat)
	return nil
}

// OutOfCore is the table form of the out-of-core benchmark (dsbench
// -experiment outofcore).
func OutOfCore(cfg Config) (*Table, error) {
	res, err := RunDiskBench(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "outofcore",
		Title: fmt.Sprintf("Out-of-core tiered shards: query latency vs cache budget (%s)", res.Device),
	}
	lat := make([]float64, 0, len(res.Points))
	hitRates := make([]float64, 0, len(res.Points))
	busy := make([]float64, 0, len(res.Points))
	reads := make([]float64, 0, len(res.Points))
	amps := make([]float64, 0, len(res.Points))
	for _, pt := range res.Points {
		t.Columns = append(t.Columns, fmt.Sprintf("cache %.0f%%", 100*pt.CacheOverData))
		lat = append(lat, pt.NsPerQuery/1e6)
		hitRates = append(hitRates, pt.HitRate)
		busy = append(busy, pt.DeviceReadBusySeconds*1e3)
		reads = append(reads, pt.DeviceReadsPerQuery)
		amps = append(amps, pt.ReadAmplification)
	}
	t.AddRow("mean query latency [ms]", lat...)
	t.AddRow("cache hit rate", hitRates...)
	t.AddRow("device reads per query", reads...)
	t.AddRow("read amplification", amps...)
	t.AddRow("device read busy [ms total]", busy...)
	t.Note("cold answers %s hot answers bit-for-bit", map[bool]string{true: "MATCH", false: "DIVERGE FROM"}[res.ColdMatchesHot])
	t.Note("residency: hot %.0f B/series vs all-cold %.0f B/series (%.2fx) — base payload %d B/series lives on the device",
		res.FlatBytesPerSeries, res.ColdBytesPerSeries, res.ColdOverFlat, res.RawBytesPerSeries)
	t.Note("refinement reads only the candidates that survive the bound pass, in device order, from a leaf-ordered file (%d-series blocks)", res.BlockSeries)
	return t, nil
}
