// Command dsbench reproduces the paper's evaluation: it runs any (or all)
// of the figure/ablation experiments and prints tables shaped like the
// paper's plots.
//
// Usage:
//
//	dsbench -list
//	dsbench -experiment fig9
//	dsbench -experiment all -series 200000 -queries 5
//	dsbench -metrics -series 4000
//	dsbench -faults -series 3000
//
// Each experiment prints its measured table followed by a note restating
// the paper's claim for that figure, so measured-vs-paper comparison is
// immediate. See EXPERIMENTS.md for recorded results.
//
// -metrics is the observability self-check behind scripts/metrics_smoke.sh:
// it builds a small sharded index, drives appends and queries
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
		metricsDump = flag.Bool("metrics", false, "build a small index, scrape and validate its Prometheus metrics, print them, and exit")
		faultSmoke  = flag.Bool("faults", false, "walk the fault-tolerance lifecycle on a fault-injected cold tier, print its metrics, and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All {
			fmt.Printf("  %-18s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := experiments.Config{
		SeriesCount: *series,
		QueryCount:  *queries,
		Seed:        *seed,
		MaxCores:    *cores,
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
