package main

import "time"

// Workload shapes. collectionScale multiplies every series count — the one
// constant to shrink when the runs have to get cheaper (bench_test.go runs
// at 0.01) — and never a ratio: hardness mix, tombstone share, cache share
// and request mix stay what the README tables say.
const (
	collectionScale = 1.0

	seriesLen = 256

	memSeries   = 200_000 // mem-1nn and sharded-mix collection
	churnSeries = 100_000 // churn base collection
	coldSeries  = 20_000  // cold-ssd collection

	queryEps  = 0.05 // perturbed-member noise: the dense-collection pruning regime
	hardShare = 0.25 // fresh random walks: poorly pruned; keeps p50 easy and p95 hard

	shardCount  = 4
	knnK        = 10
	dtwWindow   = 12
	windowLastN = 20_000 // QueryWindowNN range, series (scaled)

	churnTombstoned   = 0.25 // share of the base tombstoned before the run
	churnBatch        = 20   // series per AppendBatch
	churnPeriod       = 10 * time.Millisecond
	churnDeletes      = 5 // old positions DeleteRange'd after every batch
	churnOracleSample = 200

	coldCacheShare = 8 // block cache = payload / coldCacheShare
	// coldLatencyScale runs storage.SSD four times faster than modeled
	// (25us access, 2 GB/s: an NVMe-class device). At scale 1 a query waits
	// ~50 ms on ~270 reads and a 20 s run yields 500 samples of a latency
	// spread almost evenly over 1..75 ms, where a median is at its least
	// certain: it moved 18% between seeds, too close to the 0.25 cap. At
	// 0.25 a run has three times the samples; a query then waits on the
	// device for about a third of its time and spends most of the rest
	// copying the 64 KB blocks it reads (at scale 0 the same run does 117
	// queries/s against 80), so the cold tier still does nearly all the
	// work.
	coldLatencyScale = 0.25

	oracleEvery = 50 // every n-th hot op is checked against the serial scan
	replayEvery = 10 // every n-th traced NN query has its child layers replayed

	// setup_s is the median of at least setupRepeats constructor runs, and
	// of up to setupRepeatsMax while they fit in setupBudget.
	setupRepeats    = 5
	setupRepeatsMax = 25
	setupBudget     = 2 * time.Second
)

// Request mix of sharded-mix, in permille, in QueryKind order
// (NN, KNN, DTW, Approx, WindowNN).
var shardedMix = [5]int{600, 200, 50, 50, 100}

// workloadDef names one workload and why it exists; BENCHMARK.json repeats
// both and bench_test.go holds the two in step.
type workloadDef struct {
	Name string
	Why  string
	run  func(*runner)
}

var workloads = []workloadDef{
	{"mem-1nn", "flat in-memory MESSI, hot, 1 closed-loop client, exact 1-NN: vector/isax/messi refinement do all the work; shard, storage and serve are bypassed", (*runner).memNN},
	{"sharded-mix", "4 shards behind Serve, 2 closed-loop tenants, 1-NN/k-NN/window/approx/DTW mix: shard scatter-gather, engine admission and the serve loop do real work", (*runner).shardedMix},
	{"churn", "flat MESSI, 25% tombstoned, open-loop writer at 2000 series/s beside 1 closed-loop reader: merges, delta scan and tombstone filtering compete with reads", (*runner).churn},
	{"cold-ssd", "4 cold shards on a simulated SSD, block cache 1/8 of the payload, 2 closed-loop clients: block loads through the cache (device wait and copy) dominate, kernels are noise", (*runner).coldSSD},
}

// metricDef is one named metric. Layer is empty for the end-to-end
// metrics every workload reports from its untraced run; everything else
// is a per-layer metric of BENCHMARK.json and comes out of the traced
// invocation. Layer "e2e" marks the workload-specific end-to-end metrics
// (request flavors, ingest, the p99): the driver's contract wants every
// end-to-end metric from every workload, so BENCHMARK.json lists these
// per layer, where a metric may be absent on a workload. An untraced run
// measures them all the same and keeps them in its record, and that is
// where compare and selfcheck read them, at timingBound (they spread 3 to
// 27% over the same runs). README.md says which end-to-end metric, on
// which workload, each layer metric should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
}

// timingBound is the bound of every timing here. ISSUE.md asked for 0.10;
// this 2-vCPU box holds it on mem-1nn only: over two sets of ten 20 s
// runs, 5 of the 16 (workload, timing) pairs spread more than 10%
// (interquartile distance over median) in at least one set, up to 14.5%
// (sharded-mix qps), and the medians of the two sets, 17 minutes apart,
// differ by up to 9%. One seed run six times moves as much (mem-1nn
// nn_p50_ms 0.596 to 0.664 ms) and some seeds are consistently 7 to 15%
// harder than others, so a run's whole latency curve shifts by a factor;
// longer runs (15 s against 20 s) and medians over 5 or 10 windows inside a
// run did not narrow it. The driver refuses a benchmark whose spread
// exceeds a bound, so the bound is its cap, 0.25 — just under three times
// the typical spread. README.md has the table.
const timingBound = 0.25

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: timingBound},
	{Name: "nn_p50_ms", Unit: "ms", Better: "lower", Bound: timingBound},
	{Name: "nn_p95_ms", Unit: "ms", Better: "lower", Bound: timingBound},
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: timingBound},
	{Name: "resident_bytes_per_series", Unit: "B", Better: "lower", Bound: 0.02},
}

var perLayer = []metricDef{
	{Name: "nn_p99_ms", Unit: "ms", Better: "lower", Layer: "e2e"},
	{Name: "knn_p50_ms", Unit: "ms", Better: "lower", Layer: "e2e"},
	{Name: "knn_p95_ms", Unit: "ms", Better: "lower", Layer: "e2e"},
	{Name: "dtw_p50_ms", Unit: "ms", Better: "lower", Layer: "e2e"},
	{Name: "window_p50_ms", Unit: "ms", Better: "lower", Layer: "e2e"},
	{Name: "approx_p50_ms", Unit: "ms", Better: "lower", Layer: "e2e"},
	{Name: "append_batch_p50_ms", Unit: "ms", Better: "lower", Layer: "e2e"},
	{Name: "append_batch_p95_ms", Unit: "ms", Better: "lower", Layer: "e2e"},
	{Name: "append_per_s", Unit: "1/s", Better: "higher", Layer: "e2e"},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Layer: "e2e"},

	{Name: "vector.ed_ns", Unit: "ns", Better: "lower", Layer: "vector"},
	{Name: "vector.ed_abandon_ns", Unit: "ns", Better: "lower", Layer: "vector"},
	{Name: "vector.mindist_ns_per_entry", Unit: "ns", Better: "lower", Layer: "vector"},
	{Name: "isax.summarize_us", Unit: "us", Better: "lower", Layer: "isax"},
	{Name: "isax.dtw_table_us", Unit: "us", Better: "lower", Layer: "isax"},
	{Name: "core.leaves", Unit: "count", Better: "lower", Layer: "core"},
	{Name: "core.leaf_fill_avg", Unit: "ratio", Better: "higher", Layer: "core"},
	{Name: "core.max_depth", Unit: "count", Better: "lower", Layer: "core"},
	{Name: "pqueue.push_pop_ns", Unit: "ns", Better: "lower", Layer: "pqueue"},

	{Name: "messi.search_us_p50", Unit: "us", Better: "lower", Layer: "messi"},
	{Name: "messi.search_us_p99", Unit: "us", Better: "lower", Layer: "messi"},
	{Name: "messi.entries_checked_per_query", Unit: "count", Better: "lower", Layer: "messi"},
	{Name: "messi.raw_distances_per_query", Unit: "count", Better: "lower", Layer: "messi"},
	{Name: "messi.leaves_inserted_per_query", Unit: "count", Better: "lower", Layer: "messi"},
	{Name: "messi.leaves_popped_per_query", Unit: "count", Better: "lower", Layer: "messi"},
	{Name: "messi.pop_ratio", Unit: "ratio", Better: "higher", Layer: "messi"},
	{Name: "messi.boundpass_share", Unit: "ratio", Better: "lower", Layer: "messi"},
	{Name: "messi.refine_share", Unit: "ratio", Better: "lower", Layer: "messi"},
	{Name: "messi.workers_speedup", Unit: "ratio", Better: "higher", Layer: "messi"},
	{Name: "messi.append_us_p50", Unit: "us", Better: "lower", Layer: "messi"},
	{Name: "messi.merges", Unit: "count", Better: "lower", Layer: "messi"},
	{Name: "messi.snapshot_swaps", Unit: "count", Better: "lower", Layer: "messi"},
	{Name: "messi.pending_max", Unit: "count", Better: "lower", Layer: "messi"},
	{Name: "messi.flush_ms", Unit: "ms", Better: "lower", Layer: "messi"},
	{Name: "messi.tombstoned_ratio", Unit: "ratio", Better: "lower", Layer: "messi"},
	{Name: "messi.compact_ms", Unit: "ms", Better: "lower", Layer: "messi"},

	{Name: "shard.search_us_p50", Unit: "us", Better: "lower", Layer: "shard"},
	{Name: "shard.overhead_us", Unit: "us", Better: "lower", Layer: "shard"},
	{Name: "shard.raw_distance_amplification", Unit: "ratio", Better: "lower", Layer: "shard"},
	{Name: "shard.setup_split_s", Unit: "s", Better: "lower", Layer: "shard"},

	{Name: "engine.tasks_per_query", Unit: "count", Better: "lower", Layer: "engine"},
	{Name: "engine.admit_waits_ratio", Unit: "ratio", Better: "lower", Layer: "engine"},
	{Name: "engine.admit_wait_us_per_query", Unit: "us", Better: "lower", Layer: "engine"},
	{Name: "engine.submit_fallbacks", Unit: "count", Better: "lower", Layer: "engine"},
	{Name: "engine.peak_inflight", Unit: "count", Better: "higher", Layer: "engine"},
	{Name: "engine.task_panics", Unit: "count", Better: "lower", Layer: "engine"},
	{Name: "engine.group_roundtrip_ns", Unit: "ns", Better: "lower", Layer: "engine"},

	{Name: "serve.overhead_us", Unit: "us", Better: "lower", Layer: "serve"},

	{Name: "storage.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "storage"},
	{Name: "storage.device_reads_per_query", Unit: "count", Better: "lower", Layer: "storage"},
	{Name: "storage.device_bytes_per_query", Unit: "B", Better: "lower", Layer: "storage"},
	{Name: "storage.device_busy_ms_per_query", Unit: "ms", Better: "lower", Layer: "storage"},
	{Name: "storage.evictions_per_query", Unit: "count", Better: "lower", Layer: "storage"},
	{Name: "storage.read_amplification", Unit: "ratio", Better: "lower", Layer: "storage"},
	{Name: "storage.retries", Unit: "count", Better: "lower", Layer: "storage"},
	{Name: "storage.faults", Unit: "count", Better: "lower", Layer: "storage"},
	{Name: "storage.at_hit_ns", Unit: "ns", Better: "lower", Layer: "storage"},
	{Name: "storage.at_miss_us", Unit: "us", Better: "lower", Layer: "storage"},

	{Name: "ucr.scan_ms", Unit: "ms", Better: "lower", Layer: "ucr"},
	{Name: "ucr.speedup", Unit: "ratio", Better: "higher", Layer: "ucr"},

	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower", Layer: "bench"},
	{Name: "bench.gen_late_p99_ms", Unit: "ms", Better: "lower", Layer: "bench"},
	{Name: "bench.gen_s", Unit: "s", Better: "lower", Layer: "bench"},
}
