package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"dsidx/internal/vector"
)

// tiny returns a configuration small enough to smoke-run every experiment
// in CI time while still exercising every code path.
func tiny() Config {
	return Config{SeriesCount: 2000, QueryCount: 1, Seed: 4, MaxCores: 4}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	c := Config{}.Normalize()
	if c.SeriesCount != 200_000 || c.QueryCount != 5 || c.Seed == 0 || c.MaxCores != 24 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestCoreAxisClipping(t *testing.T) {
	c := Config{MaxCores: 6}.Normalize()
	got := c.coreAxis(1, 4, 6, 12, 24)
	want := []int{1, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("coreAxis = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coreAxis = %v, want %v", got, want)
		}
	}
	// Never empty.
	if got := c.coreAxis(100); len(got) != 1 || got[0] != 6 {
		t.Fatalf("coreAxis(100) = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Unit: "s", Columns: []string{"a", "b"}}
	tbl.AddRow("row1", 1.5, 0.25)
	tbl.AddRow("longer-label", 123, 0)
	tbl.Note("hello %d", 7)
	var sb strings.Builder
	if _, err := tbl.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"x — demo [s]", "row1", "longer-label", "1.50", "0.2500", "123", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestByIDAndIDs(t *testing.T) {
	if _, ok := ByID("fig9"); !ok {
		t.Error("fig9 not registered")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown ID found")
	}
	ids := IDs()
	if len(ids) != len(All) || ids[0] != "fig4" {
		t.Errorf("IDs = %v", ids)
	}
}

// TestAllExperimentsSmoke runs every registered experiment at tiny scale
// and validates that each produces a well-formed, plausible table.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow in -short mode")
	}
	for _, e := range All {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			// The residency experiments read process-wide heap deltas, which
			// any experiment allocating beside them corrupts (at tiny scale
			// into a negative delta): they run alone, before the parallel
			// ones are released.
			if e.ID != "mem" && e.ID != "outofcore" {
				t.Parallel()
			}
			tbl, err := e.Run(tiny())
			if err != nil {
				t.Fatal(err)
			}
			if tbl.ID != e.ID {
				t.Errorf("table ID %q != %q", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 || len(tbl.Columns) == 0 {
				t.Fatalf("empty table: %+v", tbl)
			}
			for _, r := range tbl.Rows {
				if len(r.Values) != len(tbl.Columns) {
					t.Errorf("row %q has %d values for %d columns", r.Label, len(r.Values), len(tbl.Columns))
				}
				for i, v := range r.Values {
					if v < 0 {
						t.Errorf("row %q value %d negative: %v", r.Label, i, v)
					}
				}
			}
			var sb strings.Builder
			if _, err := tbl.WriteTo(&sb); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(sb.String(), e.ID) {
				t.Error("rendered table missing ID")
			}
		})
	}
}

// readOnlyRun loads path's trajectory envelope and returns its single
// run's record, failing on any envelope malformation.
func readOnlyRun(t *testing.T, path string) []byte {
	t.Helper()
	traj, err := loadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := traj.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(traj.Runs) != 1 {
		t.Fatalf("want a one-run trajectory, got %d runs", len(traj.Runs))
	}
	return traj.Runs[0].Record
}

// TestRunQueryBench validates the machine-readable trajectory record the
// dsbench -benchjson flag and the CI bench-smoke step produce.
func TestRunQueryBench(t *testing.T) {
	res, err := RunQueryBench(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != "dsidx-bench-query/v1" {
		t.Errorf("schema %q", res.Schema)
	}
	if res.NsPerQuery <= 0 {
		t.Errorf("ns/query %v", res.NsPerQuery)
	}
	if res.RawDistancesPerQuery <= 0 || res.EntriesCheckedPerQuery <= 0 {
		t.Errorf("pruning stats empty: %+v", res)
	}
	if res.ProbeLeaves < 1 {
		t.Errorf("probe leaves %d", res.ProbeLeaves)
	}
	if len(res.QPSByInflight) == 0 {
		t.Error("no QPS sweep")
	}
	for p, qps := range res.QPSByInflight {
		if qps <= 0 {
			t.Errorf("inflight %s: qps %v", p, qps)
		}
	}
	path := t.TempDir() + "/BENCH_query.json"
	if err := res.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data := readOnlyRun(t, path)
	var back QueryBenchResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.NsPerQuery != res.NsPerQuery || back.SeriesCount != res.SeriesCount {
		t.Errorf("round-trip mismatch: %+v vs %+v", back, res)
	}
	// The shared header keys must stay flat inside the record (embedding,
	// not nesting) so historical trajectory points remain comparable.
	var flat map[string]any
	if err := json.Unmarshal(data, &flat); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "generated_at", "gomaxprocs", "workers",
		"series_count", "series_len", "query_count", "ns_per_query"} {
		if _, ok := flat[key]; !ok {
			t.Errorf("BENCH_query.json missing flat key %q", key)
		}
	}
}

// TestRunShardedBench validates the shard-sweep trajectory record the
// dsbench -shardedjson flag and the CI sharded bench-smoke step produce —
// and that it shares the query benchmark's envelope and writer.
func TestRunShardedBench(t *testing.T) {
	cfg := tiny()
	cfg.ShardAxis = []int{1, 2}
	res, err := RunShardedBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != "dsidx-bench-sharded/v1" {
		t.Errorf("schema %q", res.Schema)
	}
	if res.Policy == "" {
		t.Error("no policy recorded")
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points, want 2", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.Shards <= 0 || pt.NsPerQuery <= 0 || pt.BuildSeconds <= 0 || pt.RawDistancesPerQuery <= 0 {
			t.Errorf("implausible point: %+v", pt)
		}
		if len(pt.QPSByInflight) == 0 {
			t.Errorf("point %d has no QPS sweep", pt.Shards)
		}
	}
	path := t.TempDir() + "/BENCH_sharded.json"
	if err := res.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data := readOnlyRun(t, path)
	var back ShardedBenchResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(back.Points) != 2 || back.Points[1].NsPerQuery != res.Points[1].NsPerQuery {
		t.Errorf("round-trip mismatch: %+v vs %+v", back, res)
	}
	var flat map[string]any
	if err := json.Unmarshal(data, &flat); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "generated_at", "gomaxprocs", "workers",
		"series_count", "series_len", "query_count", "policy", "points"} {
		if _, ok := flat[key]; !ok {
			t.Errorf("BENCH_sharded.json missing flat key %q", key)
		}
	}
}

// TestRunMemBench validates the memory-residency record behind dsbench
// -memjson and the CI memory smoke step: plausible per-series figures, a
// near-1x sharded/flat ratio (the zero-copy view guarantee, with slack for
// CI heap jitter at the test's small collection size), and the shared flat
// JSON envelope.
func TestRunMemBench(t *testing.T) {
	cfg := tiny()
	cfg.SeriesCount = 8000
	cfg.ShardAxis = []int{1, 4}
	res, err := RunMemBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != "dsidx-bench-mem/v1" {
		t.Errorf("schema %q", res.Schema)
	}
	if res.Shards != 4 {
		t.Errorf("shards %d, want the axis maximum 4", res.Shards)
	}
	if res.RawBytesPerSeries != 4*res.SeriesLen {
		t.Errorf("raw floor %d for series length %d", res.RawBytesPerSeries, res.SeriesLen)
	}
	// Both builds hold at least the raw payload (collection + leaf blocks
	// both count), and the flat figure must exceed the floor.
	if res.FlatBytesPerSeries < float64(res.RawBytesPerSeries) {
		t.Errorf("flat %v B/series below the %d raw floor", res.FlatBytesPerSeries, res.RawBytesPerSeries)
	}
	if res.ShardedBytesPerSeries < float64(res.RawBytesPerSeries) {
		t.Errorf("sharded %v B/series below the %d raw floor", res.ShardedBytesPerSeries, res.RawBytesPerSeries)
	}
	// The CI bound is 1.1 at 20000 series; leave jitter headroom at 8000.
	if res.ShardedOverFlat > 1.25 {
		t.Errorf("sharded/flat ratio %v: sharding is copying base data again", res.ShardedOverFlat)
	}
	path := t.TempDir() + "/BENCH_mem.json"
	if err := res.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data := readOnlyRun(t, path)
	var back MemBenchResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.ShardedOverFlat != res.ShardedOverFlat || back.SeriesCount != res.SeriesCount {
		t.Errorf("round-trip mismatch: %+v vs %+v", back, res)
	}
	var flat map[string]any
	if err := json.Unmarshal(data, &flat); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "generated_at", "gomaxprocs", "workers",
		"series_count", "series_len", "shards", "raw_bytes_per_series",
		"flat_bytes_per_series", "sharded_bytes_per_series", "sharded_over_flat"} {
		if _, ok := flat[key]; !ok {
			t.Errorf("BENCH_mem.json missing flat key %q", key)
		}
	}
}

// TestRunKernelBench validates the distance-kernel microbenchmark record
// behind dsbench -kerneljson and the CI kernel smoke step: both dispatch
// arms measured, detection recorded, plausible timings, the shared flat
// JSON envelope, and rerun-replaces-point trajectory semantics.
func TestRunKernelBench(t *testing.T) {
	defer vector.ForceScalar(false)
	res, err := RunKernelBench(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != "dsidx-bench-kernels/v1" {
		t.Errorf("schema %q", res.Schema)
	}
	if res.Simd != vector.Detected() {
		t.Errorf("recorded simd %q, detection says %q", res.Simd, vector.Detected())
	}
	if res.Workers != 1 {
		t.Errorf("workers %d: kernel timings must be single-core", res.Workers)
	}
	if err := res.Validate(); err != nil {
		t.Errorf("self-validation: %v", err)
	}
	if res.MinEDSpeedup <= 0 || res.MinDistSpeedup <= 0 {
		t.Errorf("implausible speedups: %+v", res)
	}
	if vector.Impl() == "scalar" && vector.Detected() == "avx2" {
		t.Error("RunKernelBench left ForceScalar engaged")
	}
	path := t.TempDir() + "/BENCH_query.json"
	if err := res.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	// A rerun of the same configuration replaces its point, not appends.
	if err := res.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data := readOnlyRun(t, path)
	var back KernelBenchResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.EDSimdNs != res.EDSimdNs || back.Simd != res.Simd {
		t.Errorf("round-trip mismatch: %+v vs %+v", back, res)
	}
	var flat map[string]any
	if err := json.Unmarshal(data, &flat); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "generated_at", "gomaxprocs", "workers",
		"series_count", "series_len", "simd", "batch", "card",
		"ed_simd_ns", "ed_scalar_ns", "ea_simd_ns", "ea_scalar_ns",
		"mindist_simd_ns", "mindist_scalar_ns", "min_ed_speedup", "mindist_speedup"} {
		if _, ok := flat[key]; !ok {
			t.Errorf("kernel record missing flat key %q", key)
		}
	}
}

func TestDiskBenchWriteJSON(t *testing.T) {
	res := &DiskBenchResult{
		BenchHeader: BenchHeader{
			Schema:      "dsidx-bench-disk/v1",
			GeneratedAt: "2026-01-01T00:00:00Z",
			GOMAXPROCS:  1,
			Workers:     1,
			SeriesCount: 100,
			SeriesLen:   16,
			QueryCount:  2,
		},
		Shards:         4,
		BlockSeries:    64,
		Device:         "test",
		ColdMatchesHot: true,
		ColdOverFlat:   0.2,
		Points:         []diskPoint{{CacheBytes: 1 << 20, HitRate: 0.5}},
	}
	path := t.TempDir() + "/BENCH_disk.json"
	if err := res.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data := readOnlyRun(t, path)
	var flat map[string]any
	if err := json.Unmarshal(data, &flat); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "shards", "cold_matches_hot", "cold_over_flat", "points"} {
		if _, ok := flat[key]; !ok {
			t.Errorf("BENCH_disk.json missing flat key %q", key)
		}
	}
}

// TestRunQueryBenchDeleteRate pins the -deleterate mode: the requested
// fraction is tombstoned (evenly spaced, all distinct), the record carries
// it, and the configuration key gains the deleterate suffix so the
// delete-free trajectory stays untouched.
func TestRunQueryBenchDeleteRate(t *testing.T) {
	cfg := tiny()
	cfg.DeleteRate = 0.25
	res, err := RunQueryBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(0.25 * float64(cfg.SeriesCount)); res.Tombstoned != want {
		t.Errorf("tombstoned %d, want %d", res.Tombstoned, want)
	}
	if res.DeleteRate != 0.25 {
		t.Errorf("delete rate %v", res.DeleteRate)
	}
	if res.NsPerQuery <= 0 || len(res.QPSByInflight) == 0 {
		t.Errorf("sweep missing: %+v", res)
	}
	key := res.ConfigKey()
	if !strings.Contains(key, ",deleterate=0.25") {
		t.Errorf("config key %q lacks the deleterate suffix", key)
	}
	base := *res
	base.DeleteRate = 0
	if strings.Contains(base.ConfigKey(), "deleterate") {
		t.Errorf("delete-free key %q changed", base.ConfigKey())
	}
}

// TestConfigNormalizeDeleteRateClamp pins the [0, 0.9] clamp.
func TestConfigNormalizeDeleteRateClamp(t *testing.T) {
	if got := (Config{DeleteRate: -1}).Normalize().DeleteRate; got != 0 {
		t.Errorf("negative rate normalized to %v", got)
	}
	if got := (Config{DeleteRate: 2}).Normalize().DeleteRate; got != 0.9 {
		t.Errorf("oversized rate normalized to %v", got)
	}
}
