package main

import (
	"math/rand"
	"sync"
	"time"

	"dsidx"
	"dsidx/internal/core"
	"dsidx/internal/engine"
	"dsidx/internal/isax"
	"dsidx/internal/messi"
	"dsidx/internal/paa"
	"dsidx/internal/pqueue"
	"dsidx/internal/series"
	"dsidx/internal/shard"
	"dsidx/internal/storage"
	"dsidx/internal/vector"
)

const (
	mindistBatch       = 1024 // summaries per vector.MinDistBatch call
	replayCap          = 4096 // kernel calls actually replayed per query; beyond it the per-call time is extrapolated
	speedupQueries     = 60
	serveProbeQueries  = 300
	shardProbeQueries  = 300
	kernelProbeCalls   = 20000
	storageProbeBlocks = 32
)

// layers turns a traced phase into per-layer numbers: it records each
// query's root span with the counts the index returned for it, sums those
// counts, and for every replayEvery-th 1-NN query re-runs the child layers
// in isolation on that query's own inputs and counts.
type layers struct {
	mu   sync.Mutex // clients record concurrently, each outside its own timed region
	r    *runner
	coll *series.Collection
	cfg  core.Config
	q    *isax.Quantizer

	// Replay scratch: the query's PAA, symbols and lower-bound table, one
	// MinDistBatch worth of member summaries, and a queue.
	paa   []float64
	sym   []uint8
	table *isax.QueryTable
	sax   []uint8
	out   []float64
	heap  *pqueue.Heap[int32]
	rng   *rand.Rand

	queries                            int // 1-NN queries with stats
	entries, raws, inserted, popped    float64
	rawDistances                       float64 // every flavor: what the cold tier was asked to refine
	replays                            int
	summarizeNs, mindistNs, mindistN   float64
	edNs, edN, spanNs, boundNs, refine float64
}

func (r *runner) newLayers(tree *core.Tree, coll *series.Collection) *layers {
	cfg := tree.Config()
	l := &layers{
		r: r, coll: coll, cfg: cfg, q: tree.Quantizer(),
		paa:  make([]float64, cfg.Segments),
		sym:  make([]uint8, cfg.Segments),
		sax:  make([]uint8, mindistBatch*cfg.Segments),
		out:  make([]float64, mindistBatch),
		heap: pqueue.NewHeap[int32](1024),
		rng:  rand.New(rand.NewSource(r.cfg.seed)),
	}
	sm := core.NewSummarizer(cfg, l.q)
	for i := 0; i < mindistBatch; i++ {
		sm.Summarize(coll.At(i%coll.Len()), l.sax[i*cfg.Segments:(i+1)*cfg.Segments])
	}
	paa.TransformInto(coll.At(0), l.paa)
	l.table = isax.NewQueryTable(l.q, l.paa, cfg.SeriesLen)
	return l
}

func statCounts(st *messi.QueryStats) map[string]float64 {
	if st == nil {
		return nil
	}
	return map[string]float64{
		"probe_leaves":    float64(st.ProbeLeaves),
		"leaves_inserted": float64(st.LeavesInserted),
		"leaves_popped":   float64(st.LeavesPopped),
		"entries_checked": float64(st.EntriesChecked),
		"raw_distances":   float64(st.RawDistances),
		"observed":        float64(st.Observed),
	}
}

// query records one traced op's search span and its counts, and replays
// its child layers when its turn comes. It runs outside the op's timed
// region.
func (l *layers) query(name string, parent int64, c, i int, s *sample) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sp := l.r.tr.add(name, parent, opID(c, i), s.start, s.start.Add(s.lat), statCounts(s.out.st))
	st := s.out.st
	if st == nil || s.out.err != nil {
		return
	}
	l.rawDistances += float64(st.RawDistances)
	if s.op.kind != dsidx.QueryNN {
		return
	}
	l.queries++
	l.entries += float64(st.EntriesChecked)
	l.raws += float64(st.RawDistances)
	l.inserted += float64(st.LeavesInserted)
	l.popped += float64(st.LeavesPopped)
	if i%replayEvery == 0 {
		l.replay(sp, s)
	}
}

// replay re-runs, alone and serially, the layers below one finished 1-NN
// search: query summarization, the lower-bound pass over as many summaries
// as the search checked, as many early-abandoning distances as it computed
// (limit: its final best-so-far), and the queue traffic of the leaves it
// inserted. Each becomes a child span whose width is the replayed time
// divided by the worker count — the share of the parent's wall time the
// layer explains when the search's workers were all busy.
func (l *layers) replay(parent span, s *sample) {
	st, q := s.out.st, s.op.q
	n := l.cfg.SeriesLen
	workers := time.Duration(l.r.workers)

	t0 := time.Now()
	paa.TransformInto(q, l.paa)
	l.q.SymbolsInto(l.paa, l.sym)
	l.table.FillED(l.q, l.paa, n)
	summarize := time.Since(t0)

	batches := min((st.EntriesChecked+mindistBatch-1)/mindistBatch, replayCap/64)
	t0 = time.Now()
	for b := 0; b < batches; b++ {
		vector.MinDistBatch(l.table.Cells(), l.sax, l.cfg.Segments, l.table.Card(), l.out)
	}
	var mindist time.Duration
	if batches > 0 {
		perEntry := float64(time.Since(t0)) / float64(batches*mindistBatch)
		l.mindistNs += perEntry * float64(batches*mindistBatch)
		l.mindistN += float64(batches * mindistBatch)
		mindist = time.Duration(perEntry * float64(st.EntriesChecked))
	}

	limit := s.out.m.Distance * s.out.m.Distance
	calls := min(st.RawDistances, replayCap)
	t0 = time.Now()
	for k := 0; k < calls; k++ {
		vector.SquaredEDEarlyAbandon(q, l.coll.At((max(s.out.m.Pos, 0)+k*7919)%l.coll.Len()), limit)
	}
	var refine time.Duration
	if calls > 0 {
		perCall := float64(time.Since(t0)) / float64(calls)
		l.edNs += perCall * float64(calls)
		l.edN += float64(calls)
		refine = time.Duration(perCall * float64(st.RawDistances))
	}

	queue := time.Duration(float64(l.pushPop(min(st.LeavesInserted, replayCap*4))))

	l.replays++
	l.summarizeNs += float64(summarize)
	l.spanNs += float64(parent.EndNs-parent.StartNs) * float64(workers)
	l.boundNs += float64(mindist)
	l.refine += float64(refine)
	cur := parent.StartNs
	cur = l.r.tr.addReplayed("isax.summarize", parent, cur, summarize/workers, map[string]float64{"replayed_ns": float64(summarize)})
	cur = l.r.tr.addReplayed("pqueue.push_pop", parent, cur, queue/workers, map[string]float64{"replayed_ns": float64(queue), "leaves": float64(st.LeavesInserted)})
	cur = l.r.tr.addReplayed("vector.mindist", parent, cur, mindist/workers, map[string]float64{"replayed_ns": float64(mindist), "entries": float64(st.EntriesChecked)})
	l.r.tr.addReplayed("vector.ed_abandon", parent, cur, refine/workers, map[string]float64{"replayed_ns": float64(refine), "distances": float64(st.RawDistances)})
}

// pushPop times pushing n leaves with random priorities and popping them
// all, in nanoseconds.
func (l *layers) pushPop(n int) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		l.heap.Push(l.rng.Float64(), int32(i))
	}
	for {
		if _, ok := l.heap.Pop(); !ok {
			break
		}
	}
	return time.Since(t0)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finish emits what the traced phase and its replays measured.
func (l *layers) finish(traced [][]sample) {
	r := l.r
	nq := float64(l.queries)
	r.put("messi.entries_checked_per_query", ratio(l.entries, nq), l.queries)
	r.put("messi.raw_distances_per_query", ratio(l.raws, nq), l.queries)
	r.put("messi.leaves_inserted_per_query", ratio(l.inserted, nq), l.queries)
	r.put("messi.leaves_popped_per_query", ratio(l.popped, nq), l.queries)
	r.put("messi.pop_ratio", ratio(l.popped, l.inserted), l.queries)
	r.put("messi.boundpass_share", ratio(l.boundNs, l.spanNs), l.replays)
	r.put("messi.refine_share", ratio(l.refine, l.spanNs), l.replays)
	r.put("isax.summarize_us", ratio(l.summarizeNs, float64(l.replays))/1e3, l.replays)
	r.put("vector.mindist_ns_per_entry", ratio(l.mindistNs, l.mindistN), int(l.mindistN))
	r.put("vector.ed_abandon_ns", ratio(l.edNs, l.edN), int(l.edN))

	meanLeaves := int(ratio(l.inserted, nq))
	const rounds = 200
	var total time.Duration
	for i := 0; i < rounds; i++ {
		total += l.pushPop(meanLeaves)
	}
	r.put("pqueue.push_pop_ns", float64(total)/rounds, rounds)

	// Plain squared ED over members spread across the collection.
	q := l.coll.At(0)
	t0 := time.Now()
	var sink float64
	for k := 0; k < kernelProbeCalls; k++ {
		sink += vector.SquaredED(q, l.coll.At((k*7919)%l.coll.Len()))
	}
	r.put("vector.ed_ns", float64(time.Since(t0))/kernelProbeCalls, kernelProbeCalls)
	kernelSink = sink

	env := series.NewEnvelope(q, dtwWindow)
	up, lo := paa.Transform(env.Upper, l.cfg.Segments), paa.Transform(env.Lower, l.cfg.Segments)
	const fills = 200
	t0 = time.Now()
	for k := 0; k < fills; k++ {
		l.table.FillDTW(l.q, up, lo, l.cfg.SeriesLen)
	}
	r.put("isax.dtw_table_us", us(time.Since(t0))/fills, fills)

	if d := r.tr.durationsUs("messi.search"); len(d) > 0 {
		r.putPercentile("messi.search_us_p50", d, 50, false)
		r.putPercentile("messi.search_us_p99", d, 99, false)
	}
	if d := r.tr.durationsUs("shard.search"); len(d) > 0 {
		r.putPercentile("shard.search_us_p50", d, 50, false)
	}

	tracedMean := mean(latencies(traced, dsidx.QueryNN))
	r.put("bench.trace_overhead_ratio", ratio(tracedMean, r.untracedMeanMs), l.queries)
	scanMs := ratio(ms(r.scanDur), float64(r.scans))
	r.put("ucr.scan_ms", scanMs, r.scans)
	r.put("ucr.speedup", ratio(scanMs, r.untracedMeanMs), r.scans)
}

// kernelSink keeps probe results alive so the kernels are not optimized out.
var kernelSink float64

func (r *runner) treeMetrics(st core.Stats) {
	r.put("core.leaves", float64(st.Leaves), 1)
	r.put("core.leaf_fill_avg", st.FillAvg, st.Leaves)
	r.put("core.max_depth", float64(st.MaxDepth), 1)
}

// shardedTreeStats merges the shards' tree shapes.
func shardedTreeStats(s *shard.Sharded) core.Stats {
	var out core.Stats
	var fill float64
	for si := 0; si < s.Shards(); si++ {
		st := s.Shard(si).Tree().Stats()
		out.Series += st.Series
		out.Leaves += st.Leaves
		out.MaxDepth = max(out.MaxDepth, st.MaxDepth)
		fill += st.FillAvg * float64(st.Leaves)
	}
	out.FillAvg = ratio(fill, float64(out.Leaves))
	return out
}

// engineMetrics emits the worker pool's counters over the traced phase and
// the cost of one empty fork-join on an idle pool of the same size.
func (r *runner) engineMetrics(a, b engine.Stats, queries int) {
	nq := float64(queries)
	r.put("engine.tasks_per_query", ratio(float64(b.Tasks-a.Tasks), nq), queries)
	r.put("engine.admit_waits_ratio", ratio(float64(b.AdmitWaits-a.AdmitWaits), nq), queries)
	r.put("engine.admit_wait_us_per_query", ratio(float64(b.AdmitWaitNanos-a.AdmitWaitNanos)/1e3, nq), queries)
	r.put("engine.submit_fallbacks", float64(b.SubmitFallbacks-a.SubmitFallbacks), queries)
	r.put("engine.peak_inflight", float64(b.PeakInFlight), queries)
	r.put("engine.task_panics", float64(b.TaskPanics-a.TaskPanics), queries)

	eng := engine.New(engine.Options{Workers: r.workers})
	defer eng.Close()
	const trips = 2000
	t0 := time.Now()
	for i := 0; i < trips; i++ {
		g := eng.NewGroup()
		g.Submit(func() {})
		g.Wait()
	}
	r.put("engine.group_roundtrip_ns", float64(time.Since(t0))/trips, trips)
}

// workersSpeedup is the time of the hard queries on one worker over their
// time on all of them: the paper's scaling-with-cores figure at the cores
// this machine has.
func workersSpeedup(ix *messi.Index, hard *series.Collection, workers int) float64 {
	var one, all time.Duration
	for i := 0; i < min(hard.Len(), speedupQueries); i++ {
		q := hard.At(i)
		t0 := time.Now()
		ix.Search(q, 1)
		t1 := time.Now()
		ix.Search(q, workers)
		one += t1.Sub(t0)
		all += time.Since(t1)
	}
	return ratio(float64(one), float64(all))
}

// serveOverhead is the median Serve round trip minus the median direct
// Search over the same queries, one client, in microseconds.
func serveOverhead(ix *dsidx.Sharded, srv *serveClients, queries *series.Collection) float64 {
	var direct, served []float64
	for i := 0; i < min(queries.Len(), serveProbeQueries); i++ {
		o := &op{q: queries.At(i)}
		t0 := time.Now()
		ix.Search(o.q)
		t1 := time.Now()
		srv.request(0, o)
		direct = append(direct, us(t1.Sub(t0)))
		served = append(served, us(time.Since(t1)))
	}
	return median(served) - median(direct)
}

// shardProbes measures what the shard layer adds over a flat index built
// on the same collection: wall time of a 1-shard search over a flat one
// (anomaly b), raw distances at shardCount shards over flat (anomaly a),
// and the extra constructor time.
func (r *runner) shardProbes(coll *series.Collection, sharded *shard.Sharded, shardedBuild time.Duration, queries *series.Collection) {
	mo := messi.Options{Workers: r.workers}
	t0 := time.Now()
	flat, err := messi.Build(coll, core.Config{}, mo)
	if err != nil {
		fatal("build: %v", err)
	}
	flatBuild := time.Since(t0)
	defer flat.Close()
	one, err := shard.Build(coll, core.Config{}, shard.Options{Options: mo, Shards: 1})
	if err != nil {
		fatal("build: %v", err)
	}
	defer one.Close()
	var flatUs, oneUs []float64
	var flatRaw, shardedRaw float64
	nq := min(queries.Len(), shardProbeQueries)
	for i := 0; i < nq; i++ {
		q := queries.At(i)
		t0 := time.Now()
		_, fs, _ := flat.Search(q, 0)
		t1 := time.Now()
		one.Search(q, 0)
		flatUs = append(flatUs, us(t1.Sub(t0)))
		oneUs = append(oneUs, us(time.Since(t1)))
		_, ss, _ := sharded.Search(q, 0)
		flatRaw += float64(fs.RawDistances)
		shardedRaw += float64(ss.RawDistances)
	}
	r.put("shard.overhead_us", median(oneUs)-median(flatUs), nq)
	r.put("shard.raw_distance_amplification", ratio(shardedRaw, flatRaw), nq)
	r.put("shard.setup_split_s", (shardedBuild - flatBuild).Seconds(), 1)
}

// storageMetrics emits the cold tier's counters over the traced phase.
func (r *runner) storageMetrics(a, b shard.ColdStats, queries int, rawDistances float64) {
	nq := float64(queries)
	hits, misses := float64(b.Cache.Hits-a.Cache.Hits), float64(b.Cache.Misses-a.Cache.Misses)
	bytes := float64(b.Device.BytesRead - a.Device.BytesRead)
	r.put("storage.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	r.put("storage.device_reads_per_query", ratio(float64(b.Device.ReadOps-a.Device.ReadOps), nq), queries)
	r.put("storage.device_bytes_per_query", ratio(bytes, nq), queries)
	r.put("storage.device_busy_ms_per_query", ratio(ms(b.Device.ReadBusy-a.Device.ReadBusy), nq), queries)
	r.put("storage.evictions_per_query", ratio(float64(b.Cache.Evictions-a.Cache.Evictions), nq), queries)
	r.put("storage.read_amplification", ratio(bytes, rawDistances*seriesLen*4), queries)
	r.put("storage.retries", float64(b.Cache.Retries-a.Cache.Retries), queries)
	r.put("storage.faults", float64(b.Cache.TransientFaults-a.Cache.TransientFaults+b.Cache.PermanentFaults-a.Cache.PermanentFaults), queries)
}

// storageProbes times DiskReader.At directly on a device like the
// workload's: a first touch of a block (miss: one device read) and a second
// touch (hit).
func (r *runner) storageProbes(coll *series.Collection) {
	blocks := min(storageProbeBlocks, coll.Len()/storage.DefaultBlockSeries)
	disk := storage.NewDisk(storage.NewMemStore(), storage.SSD)
	disk.SetScale(0)
	f, err := storage.WriteCollection(disk, coll.Slice(0, blocks*storage.DefaultBlockSeries))
	if err != nil {
		fatal("storage probe: %v", err)
	}
	disk.SetScale(coldLatencyScale)
	dr, err := storage.NewDiskReader(f, storage.DiskReaderOptions{CacheBytes: int64(blocks+1) * storage.DefaultBlockSeries * seriesLen * 4})
	if err != nil {
		fatal("storage probe: %v", err)
	}
	var miss, hit time.Duration
	for b := 0; b < blocks; b++ {
		t0 := time.Now()
		dr.At(b * storage.DefaultBlockSeries)
		t1 := time.Now()
		dr.At(b*storage.DefaultBlockSeries + 1)
		miss += t1.Sub(t0)
		hit += time.Since(t1)
	}
	r.put("storage.at_miss_us", ratio(us(miss), float64(blocks)), blocks)
	r.put("storage.at_hit_ns", ratio(float64(hit), float64(blocks)), blocks)
}
