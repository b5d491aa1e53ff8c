// Command dsbench reproduces the paper's evaluation: it runs any (or all)
// of the figure/ablation experiments and prints tables shaped like the
// paper's plots.
//
// Usage:
//
//	dsbench -list
//	dsbench -experiment fig9
//	dsbench -experiment all -series 200000 -queries 5
//	dsbench -experiment concurrent -inflight 1,8,32
//	dsbench -experiment ingest -appendrate 0,5000,50000
//	dsbench -experiment sharded -shards 1,2,4
//	dsbench -benchjson BENCH_query.json -series 50000 -queries 16
//	dsbench -shardedjson BENCH_sharded.json -shards 1,2,4
//	dsbench -memjson BENCH_mem.json -series 20000 -shards 4
//	dsbench -diskjson BENCH_disk.json -series 20000 -queries 8
//	dsbench -kerneljson BENCH_query.json
//	dsbench -metrics -series 4000
//	dsbench -faults -series 3000
//
// The concurrent experiment is the serving-engine workload: it measures
// MESSI throughput (queries/s) with the given numbers of queries in flight
// on the shared worker pool. The ingest experiment is the live-write
// workload: query QPS and append throughput with a writer streaming new
// series into the serving index at each configured rate.
//
// Each experiment prints its measured table followed by a note restating
// the paper's claim for that figure, so measured-vs-paper comparison is
// immediate. See EXPERIMENTS.md for recorded results.
//
// The sharded experiment sweeps shard counts: the same collection
// partitioned across N MESSI shards answering by scatter-gather with one
// shared best-so-far on one shared worker pool.
//
// -benchjson writes the machine-readable query-performance record
// (ns/query, QPS across the in-flight sweep, raw distances per query) to
// the given path instead of running experiments — the perf-trajectory
// point tracked across PRs and by the CI bench-smoke step. -shardedjson
// does the same for the shard-count sweep (BENCH_sharded.json), -memjson
// for the memory-residency comparison of flat vs sharded builds
// (BENCH_mem.json) — the record behind the CI memory smoke step, which
// asserts a sharded build keeps the base data resident once (bytes/series
// within 1.1x of flat; see scripts/mem_smoke.sh). -kerneljson records the
// distance-kernel microbenchmark (SIMD vs forced-scalar ns/op per kernel)
// as another trajectory point in the same envelope — the record behind the
// CI kernel smoke step (scripts/kernel_smoke.sh), keyed by what CPU
// detection found so avx2 and scalar machines track separate series.
//
// -metrics is the observability self-check behind scripts/metrics_smoke.sh:
// it builds a small auto-tuned sharded index, drives appends and queries
// through the public API, scrapes dsidx.MetricsHandler, validates the
// exposition (format and required families) and prints it.
//
// -faults is the fault-tolerance self-check behind scripts/fault_smoke.sh:
// it builds a mixed hot/cold sharded index on a fault-injected device,
// walks the failure lifecycle (transient retries → dead device → typed
// failures → quarantine → re-stage → bit-identical recovery) and prints
// the resulting metrics exposition, fault families included.
package main

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"dsidx"
	"dsidx/internal/experiments"
	"dsidx/internal/metrics"
)

func main() {
	var (
		list        = flag.Bool("list", false, "list available experiments and exit")
		expID       = flag.String("experiment", "all", "experiment ID (see -list) or 'all'")
		series      = flag.Int("series", 0, "collection size (default 200000)")
		queries     = flag.Int("queries", 0, "queries per measurement (default 5)")
		seed        = flag.Int64("seed", 0, "generator seed (default 2020)")
		cores       = flag.Int("cores", 0, "maximum core count axis (default 24)")
		inflight    = flag.String("inflight", "", "comma-separated in-flight query counts for the concurrent experiment (default 1,4,16)")
		appendrate  = flag.String("appendrate", "", "comma-separated append rates (series/s) for the ingest experiment (default 0,1000,10000)")
		shards      = flag.String("shards", "", "comma-separated shard counts for the sharded experiment (default 1,2,4)")
		deleterate  = flag.Float64("deleterate", 0, "fraction of the collection tombstoned (evenly spaced, uncompacted) before the -benchjson query benchmark; keys a separate trajectory run")
		benchjson   = flag.String("benchjson", "", "write the machine-readable query benchmark to this path and exit")
		shardedjson = flag.String("shardedjson", "", "write the machine-readable sharded benchmark to this path and exit")
		memjson     = flag.String("memjson", "", "write the machine-readable memory-residency benchmark to this path and exit")
		diskjson    = flag.String("diskjson", "", "write the machine-readable out-of-core tiering benchmark to this path and exit")
		kerneljson  = flag.String("kerneljson", "", "write the machine-readable distance-kernel microbenchmark to this path and exit")
		metricsDump = flag.Bool("metrics", false, "build a small index, scrape and validate its Prometheus metrics, print them, and exit")
		faultSmoke  = flag.Bool("faults", false, "walk the fault-tolerance lifecycle on a fault-injected cold tier, print its metrics, and exit")
	)
	flag.Parse()

	parseAxis := func(name, csv string, minVal int) []int {
		if csv == "" {
			return nil
		}
		var axis []int
		for _, f := range strings.Split(csv, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < minVal {
				fmt.Fprintf(os.Stderr, "dsbench: bad -%s element %q\n", name, f)
				os.Exit(2)
			}
			axis = append(axis, v)
		}
		return axis
	}
	inflightAxis := parseAxis("inflight", *inflight, 1)
	appendRates := parseAxis("appendrate", *appendrate, 0)
	shardAxis := parseAxis("shards", *shards, 1)

	if *list {
		for _, e := range experiments.All {
			fmt.Printf("  %-18s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := experiments.Config{
		SeriesCount:  *series,
		QueryCount:   *queries,
		Seed:         *seed,
		MaxCores:     *cores,
		InFlightAxis: inflightAxis,
		AppendRates:  appendRates,
		ShardAxis:    shardAxis,
		DeleteRate:   *deleterate,
	}

	if *metricsDump {
		n := *series
		if n <= 0 {
			n = 4000
		}
		if err := metricsSelfCheck(n); err != nil {
			fmt.Fprintf(os.Stderr, "dsbench: metrics: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *faultSmoke {
		text, err := experiments.RunFaultSmoke(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsbench: faults: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(text)
		fmt.Fprintln(os.Stderr, "dsbench: fault lifecycle OK: transient retried, dead device quarantined, re-stage recovered bit-identical answers")
		return
	}

	if *benchjson != "" {
		res, err := experiments.RunQueryBench(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsbench: benchjson: %v\n", err)
			os.Exit(1)
		}
		if err := res.WriteJSON(*benchjson); err != nil {
			fmt.Fprintf(os.Stderr, "dsbench: benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: %.0f ns/query, %.1f raw distances/query, QPS %v\n",
			*benchjson, res.NsPerQuery, res.RawDistancesPerQuery, res.QPSByInflight)
		return
	}

	if *shardedjson != "" {
		res, err := experiments.RunShardedBench(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsbench: shardedjson: %v\n", err)
			os.Exit(1)
		}
		if err := res.WriteJSON(*shardedjson); err != nil {
			fmt.Fprintf(os.Stderr, "dsbench: shardedjson: %v\n", err)
			os.Exit(1)
		}
		for _, pt := range res.Points {
			fmt.Printf("wrote %s: %d shards: %.0f ns/query, %.1f raw distances/query, build %.2fs\n",
				*shardedjson, pt.Shards, pt.NsPerQuery, pt.RawDistancesPerQuery, pt.BuildSeconds)
		}
		return
	}

	if *memjson != "" {
		res, err := experiments.RunMemBench(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsbench: memjson: %v\n", err)
			os.Exit(1)
		}
		if err := res.WriteJSON(*memjson); err != nil {
			fmt.Fprintf(os.Stderr, "dsbench: memjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: flat %.0f B/series, sharded@%d %.0f B/series, ratio %.3f\n",
			*memjson, res.FlatBytesPerSeries, res.Shards, res.ShardedBytesPerSeries, res.ShardedOverFlat)
		return
	}

	if *diskjson != "" {
		res, err := experiments.RunDiskBench(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsbench: diskjson: %v\n", err)
			os.Exit(1)
		}
		if err := res.WriteJSON(*diskjson); err != nil {
			fmt.Fprintf(os.Stderr, "dsbench: diskjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: cold_matches_hot=%v, flat %.0f B/series vs cold %.0f B/series (%.2fx)\n",
			*diskjson, res.ColdMatchesHot, res.FlatBytesPerSeries, res.ColdBytesPerSeries, res.ColdOverFlat)
		for _, pt := range res.Points {
			fmt.Printf("  cache %4.1f%%: %.1f ms/query, hit rate %.3f, %d device reads (%d seeks)\n",
				100*pt.CacheOverData, pt.NsPerQuery/1e6, pt.HitRate, pt.DeviceReadOps, pt.DeviceSeeks)
		}
		return
	}

	if *kerneljson != "" {
		res, err := experiments.RunKernelBench(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsbench: kerneljson: %v\n", err)
			os.Exit(1)
		}
		if err := res.WriteJSON(*kerneljson); err != nil {
			fmt.Fprintf(os.Stderr, "dsbench: kerneljson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: simd=%s, ED %.1f vs %.1f ns, EA %.1f vs %.1f ns, MinDist %.1f vs %.1f ns/bound, min ED speedup %.2fx\n",
			*kerneljson, res.Simd, res.EDSimdNs, res.EDScalarNs, res.EASimdNs, res.EAScalarNs,
			res.MinDistSimdNs, res.MinDistScalarNs, res.MinEDSpeedup)
		return
	}

	var ids []string
	if *expID == "all" {
		ids = experiments.IDs()
	} else {
		ids = strings.Split(*expID, ",")
	}
	for _, id := range ids {
		e, ok := experiments.ByID(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "dsbench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		t0 := time.Now()
		tbl, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if _, err := tbl.WriteTo(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "dsbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  (experiment wall time: %v)\n\n", time.Since(t0).Round(time.Millisecond))
	}
}

// metricsSelfCheck is the end-to-end observability check: public-API
// index, real traffic (appends, a Flush that merges them, queries), a
// scrape through dsidx.MetricsHandler, and format plus required-family
// validation of what came back.
func metricsSelfCheck(n int) error {
	coll := dsidx.Generate(dsidx.Synthetic, n, 64, 2020)
	idx, err := dsidx.NewSharded(coll, dsidx.WithShards(2), dsidx.WithMergeThreshold(256))
	if err != nil {
		return err
	}
	defer idx.Close()

	extra := dsidx.Generate(dsidx.Synthetic, 64, 64, 2021)
	for i := 0; i < extra.Len(); i++ {
		if _, err := idx.Append(extra.At(i)); err != nil {
			return err
		}
	}
	idx.Flush()
	qcoll := dsidx.GenerateQueries(dsidx.Synthetic, 4, 64, 2020)
	qs := make([]dsidx.Series, qcoll.Len())
	for i := range qs {
		qs[i] = qcoll.At(i)
	}
	if _, err := idx.BatchSearch(qs); err != nil {
		return err
	}

	rec := httptest.NewRecorder()
	dsidx.MetricsHandler(idx).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		return fmt.Errorf("scrape status %d", rec.Code)
	}
	text := rec.Body.String()
	fams, err := metrics.Parse(text)
	if err != nil {
		return fmt.Errorf("exposition failed validation: %w", err)
	}
	required := []string{
		"dsidx_engine_workers", "dsidx_engine_queries_total", "dsidx_engine_tasks_total",
		"dsidx_ingest_appended_total", "dsidx_ingest_pending", "dsidx_ingest_merges_total",
		"dsidx_index_queries_total", "dsidx_index_query_seconds",
		"dsidx_shards", "dsidx_shard_base_series", "dsidx_shard_appends_total",
		"dsidx_cold_shards", "dsidx_cold_cache_hits_total", "dsidx_cold_device_reads_total",
		"dsidx_vector_simd",
	}
	var missing []string
	for _, name := range required {
		if _, ok := fams[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("exposition lacks required families: %s", strings.Join(missing, ", "))
	}
	if merges := sumSamples(text, "dsidx_ingest_merges_total"); merges <= 0 {
		return fmt.Errorf("dsidx_ingest_merges_total sums to %g after Flush, want > 0", merges)
	}
	fmt.Print(text)
	fmt.Fprintf(os.Stderr, "dsbench: metrics OK: %d families, %d required present\n", len(fams), len(required))
	return nil
}

// sumSamples adds up the values of every sample of family name in a
// Prometheus text exposition (one per shard for a per-shard family).
func sumSamples(text, name string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+"{") && !strings.HasPrefix(line, name+" ") {
			continue
		}
		if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}
