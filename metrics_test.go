package dsidx_test

import (
	"context"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dsidx"
	"dsidx/internal/metrics"
)

// scrape fetches one exposition from the index's metrics handler and
// parses it, failing the test on any malformed output.
func scrape(t *testing.T, src dsidx.MetricsSource) (string, map[string]metrics.Family) {
	t.Helper()
	rec := httptest.NewRecorder()
	dsidx.MetricsHandler(src).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	res := rec.Result()
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("scrape status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q lacks exposition version", ct)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.Parse(string(body))
	if err != nil {
		t.Fatalf("unparseable exposition: %v\n%s", err, body)
	}
	return string(body), fams
}

// sampleValues extracts the values of every sample line of one family
// from an exposition, labeled series included.
func sampleValues(t *testing.T, text, family string) []float64 {
	t.Helper()
	var vals []float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // a longer family name sharing the prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		vals = append(vals, v)
	}
	return vals
}

func TestShardedMetricsSnapshotAndScrape(t *testing.T) {
	coll := dsidx.Generate(dsidx.Synthetic, 1200, 64, 21)
	idx, err := dsidx.NewSharded(coll, dsidx.WithShards(2), dsidx.WithWorkers(2), dsidx.WithMergeThreshold(512))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	extra := dsidx.Generate(dsidx.Synthetic, 30, 64, 22)
	for i := 0; i < extra.Len(); i++ {
		if _, err := idx.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	idx.Flush() // merges the appends, below the threshold, into the trees
	queries := dsidx.GenerateQueries(dsidx.Synthetic, 4, 64, 21)
	qs := make([]dsidx.Series, queries.Len())
	for i := range qs {
		qs[i] = queries.At(i)
	}
	if _, err := idx.BatchSearch(qs); err != nil {
		t.Fatal(err)
	}

	m := idx.Metrics()
	if m.Engine.Queries == 0 || m.Engine.Workers != 2 {
		t.Fatalf("engine section: %+v", m.Engine)
	}
	if m.Ingest.Appended != 30 {
		t.Fatalf("ingest section: %+v", m.Ingest)
	}
	if m.Ingest.MergeThreshold != 512 {
		t.Fatalf("ingest section dropped WithMergeThreshold: %+v", m.Ingest)
	}
	if len(m.Shards) != 2 {
		t.Fatalf("got %d shard sections", len(m.Shards))
	}
	base, appends := 0, 0
	for si, sh := range m.Shards {
		if sh.Shard != si {
			t.Fatalf("shard %d labeled %d", si, sh.Shard)
		}
		base += sh.BaseSeries
		appends += sh.Appends
	}
	if base != coll.Len() || appends != 30 {
		t.Fatalf("shard sections cover %d base, %d appends; want %d, 30", base, appends, coll.Len())
	}
	if m.Cold != (dsidx.ColdTierStats{}) {
		t.Fatalf("all-hot index reported cold stats: %+v", m.Cold)
	}

	text, fams := scrape(t, idx)
	for _, want := range []string{
		"dsidx_engine_workers", "dsidx_engine_queries_total", "dsidx_engine_tasks_total",
		"dsidx_engine_admit_waits_total", "dsidx_engine_submit_fallbacks_total",
		"dsidx_ingest_appended_total", "dsidx_ingest_pending", "dsidx_ingest_merges_total",
		"dsidx_ingest_snapshot_swaps_total",
		"dsidx_index_queries_total", "dsidx_index_query_seconds",
		"dsidx_ingest_merge_threshold",
		"dsidx_shards", "dsidx_shard_base_series", "dsidx_shard_appends_total",
		"dsidx_cold_shards", "dsidx_cold_cache_hits_total", "dsidx_cold_device_reads_total",
		"dsidx_vector_simd",
	} {
		if _, ok := fams[want]; !ok {
			t.Errorf("scrape lacks family %s", want)
		}
	}
	if !strings.Contains(text, `shard="0"`) || !strings.Contains(text, `shard="1"`) {
		t.Fatalf("scrape lacks per-shard labels:\n%s", text)
	}
	// The exposition and the structured snapshot must agree on totals, and
	// the traffic must have moved them: the Flush merged, the batch queried.
	sum := func(family string) float64 {
		var total float64
		for _, v := range sampleValues(t, text, family) {
			total += v
		}
		return total
	}
	if appended := sum("dsidx_ingest_appended_total"); appended != 30 {
		t.Fatalf("scraped appended %v, want 30", appended)
	}
	if merges := sum("dsidx_ingest_merges_total"); merges <= 0 {
		t.Fatalf("scraped merges %v after Flush, want > 0", merges)
	}
	if queries := sum("dsidx_engine_queries_total"); queries <= 0 {
		t.Fatalf("scraped engine queries %v after a batch, want > 0", queries)
	}
	if len(sampleValues(t, text, "dsidx_index_query_seconds_bucket")) == 0 {
		t.Fatal("scrape lacks dsidx_index_query_seconds_bucket samples")
	}
}

func TestMESSIMetricsSnapshotAndScrape(t *testing.T) {
	coll := dsidx.Generate(dsidx.Synthetic, 600, 64, 23)
	idx, err := dsidx.NewMESSI(coll, dsidx.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if _, err := idx.Search(dsidx.GenerateQueries(dsidx.Synthetic, 1, 64, 23).At(0)); err != nil {
		t.Fatal(err)
	}
	m := idx.Metrics()
	if m.Engine.Queries == 0 || m.Shards != nil || m.Ingest.MergeThreshold != 4096 {
		t.Fatalf("MESSI metrics: %+v", m)
	}
	_, fams := scrape(t, idx)
	for _, want := range []string{
		"dsidx_engine_queries_total", "dsidx_ingest_appended_total",
		"dsidx_index_query_seconds", "dsidx_ingest_merge_threshold",
	} {
		if _, ok := fams[want]; !ok {
			t.Errorf("scrape lacks family %s", want)
		}
	}
}

// TestVectorImplExposure pins the three surfaces that report which
// distance-kernel implementation serves queries — VectorImpl(), the
// Metrics snapshot, and the dsidx_vector_simd gauge — and that the
// ForceScalarKernels escape hatch moves all three together without
// changing answers.
func TestVectorImplExposure(t *testing.T) {
	defer dsidx.ForceScalarKernels(false)
	coll := dsidx.Generate(dsidx.Synthetic, 400, 64, 27)
	idx, err := dsidx.NewMESSI(coll, dsidx.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	q := dsidx.GenerateQueries(dsidx.Synthetic, 1, 64, 27).At(0)

	impl := dsidx.VectorImpl()
	if impl != "avx2" && impl != "scalar" {
		t.Fatalf("VectorImpl() = %q", impl)
	}
	if m := idx.Metrics(); m.VectorImpl != impl {
		t.Fatalf("Metrics().VectorImpl = %q, VectorImpl() = %q", m.VectorImpl, impl)
	}
	text, fams := scrape(t, idx)
	if _, ok := fams["dsidx_vector_simd"]; !ok {
		t.Fatal("scrape lacks dsidx_vector_simd")
	}
	gauge := sampleValues(t, text, "dsidx_vector_simd")
	wantGauge := 0.0
	if impl == "avx2" {
		wantGauge = 1
	}
	if len(gauge) != 1 || gauge[0] != wantGauge {
		t.Fatalf("dsidx_vector_simd = %v with impl %q", gauge, impl)
	}

	fast, err := idx.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	dsidx.ForceScalarKernels(true)
	if got := dsidx.VectorImpl(); got != "scalar" {
		t.Fatalf("VectorImpl() = %q under ForceScalarKernels", got)
	}
	if m := idx.Metrics(); m.VectorImpl != "scalar" {
		t.Fatalf("Metrics().VectorImpl = %q under ForceScalarKernels", m.VectorImpl)
	}
	text, _ = scrape(t, idx)
	if g := sampleValues(t, text, "dsidx_vector_simd"); len(g) != 1 || g[0] != 0 {
		t.Fatalf("dsidx_vector_simd = %v under ForceScalarKernels", g)
	}
	slow, err := idx.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Pos != slow.Pos || fast.Distance != slow.Distance {
		t.Fatalf("answers differ across implementations: %+v vs %+v", fast, slow)
	}
}

// TestMetricsScrapeWhileServing hammers the handler while the index
// serves queries and ingests appends (run with -race): scrapes must stay
// parseable and the counters they report must never regress.
func TestMetricsScrapeWhileServing(t *testing.T) {
	coll := dsidx.Generate(dsidx.Synthetic, 800, 64, 25)
	idx, err := dsidx.NewSharded(coll, dsidx.WithShards(2), dsidx.WithWorkers(2),
		dsidx.WithMergeThreshold(64))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	queries := dsidx.GenerateQueries(dsidx.Synthetic, 4, 64, 25)
	extra := dsidx.Generate(dsidx.Synthetic, 64, 64, 26)

	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan dsidx.QueryRequest)
	out := idx.Serve(ctx, in)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // submitter
		defer wg.Done()
		for id := int64(0); ; id++ {
			select {
			case in <- dsidx.QueryRequest{ID: id, Query: queries.At(int(id) % queries.Len())}:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() { // appender
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-ctx.Done():
				return
			default:
			}
			if _, err := idx.Append(extra.At(i % extra.Len())); err != nil {
				panic(err)
			}
		}
	}()
	go func() { // drainer
		for range out {
		}
	}()

	scrapes := 20
	if testing.Short() {
		scrapes = 5
	}
	var prevQueries float64
	for k := 0; k < scrapes; k++ {
		text, fams := scrape(t, idx)
		if fams["dsidx_engine_queries_total"].Samples != 1 {
			t.Fatalf("scrape %d: %d samples for engine queries", k, fams["dsidx_engine_queries_total"].Samples)
		}
		q := sampleValues(t, text, "dsidx_engine_queries_total")
		if len(q) != 1 {
			t.Fatalf("scrape %d: %d values for engine queries", k, len(q))
		}
		if q[0] < prevQueries {
			t.Fatalf("scrape %d: queries regressed %v -> %v", k, prevQueries, q[0])
		}
		prevQueries = q[0]
	}
	cancel()
	for range out {
	}
	wg.Wait()
}
