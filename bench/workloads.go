package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"dsidx"
	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/series"
	"dsidx/internal/shard"
	"dsidx/internal/storage"
	"dsidx/internal/vector"
)

// A traced invocation spends the first share of its time untraced — its
// copy of the workload-specific end-to-end metrics and the base of
// bench.trace_overhead_ratio come from there — and the rest traced.
const untracedShare = 0.4

func (r *runner) untracedDur() time.Duration {
	s := r.cfg.seconds
	if r.cfg.trace {
		s *= untracedShare
	}
	return time.Duration(s * float64(time.Second))
}

func (r *runner) tracedDur() time.Duration {
	return time.Duration(r.cfg.seconds * (1 - untracedShare) * float64(time.Second))
}

// minOps is the per-client floor under a time-limited phase: enough samples
// for the untraced run's p95 whatever the machine's speed. A traced
// invocation reports medians only and needs a fifth of it.
func (r *runner) minOps(n int) int {
	if r.cfg.trace {
		return n / 5
	}
	return n
}

// untracedDone ends an untraced invocation: it emits the two end-to-end
// metrics measured before the load started and reports that the workload
// has nothing more to do. A traced invocation goes on to its traced phase.
func (r *runner) untracedDone(setup setupTime, resident float64) bool {
	if r.cfg.trace {
		return false
	}
	r.put("setup_s", setup.median.Seconds(), setup.n)
	r.put("resident_bytes_per_series", resident, 1)
	return true
}

// warm scales a warm-up count with the collection.
func (r *runner) warm(n int) int {
	if r.cfg.scale >= 1 {
		return n
	}
	return max(10, int(float64(n)*r.cfg.scale*10))
}

// streamLen sizes a client's op stream: generously above what the rate
// hint says the time limit can consume (a stream that runs out wraps).
func (r *runner) streamLen(ratePerSec float64, warm, minOps int) int {
	if r.cfg.ops > 0 {
		return r.cfg.ops + warm
	}
	return max(minOps, int(r.cfg.seconds*ratePerSec)) + warm
}

func opID(client, i int) int64 { return int64(client)<<32 | int64(i) }

// flatSearch is the internal, stats-returning 1-NN path of a flat index.
func flatSearch(ix *messi.Index) execFn {
	return func(o *op) outcome {
		res, st, err := ix.Search(o.q, 0)
		return outcome{m: matchOf(res.Pos, res.Dist), st: st, err: err}
	}
}

// memNN: flat MESSI, hot, one closed-loop client of exact 1-NN.
func (r *runner) memNN() {
	minOps := r.minOps(400)
	n := r.scaled(memSeries)
	coll := r.generate(n)
	ix, setup := setupMedian(r, func() (*dsidx.MESSI, error) {
		return dsidx.NewMESSI(coll, dsidx.WithWorkers(r.workers))
	})
	resident := residentPerSeries(n)
	warm := r.warm(500)
	perClient := r.streamLen(1500, warm, minOps)
	pool := r.queryPools(coll, perClient, hardShare)
	streams := r.streams(pool, 1, perClient, nil, hardShare)
	all, wall := r.drive(phase{
		execs: []execFn{func(o *op) outcome {
			m, err := ix.Search(o.q)
			return outcome{m: m, err: err}
		}},
		streams: streams, warm: warm, dur: r.untracedDur(), minOps: minOps,
	})
	ix.Close()
	r.endToEnd(all, wall)
	r.verify(all, oracleEvery, oracle{coll: coll})
	if r.untracedDone(setup, resident) {
		return
	}

	in, err := messi.Build(coll, core.Config{}, messi.Options{Workers: r.workers})
	if err != nil {
		fatal("build: %v", err)
	}
	defer in.Close()
	lay := r.newLayers(in.Tree(), coll)
	eng0 := in.EngineStats()
	traced, _ := r.drive(phase{
		execs: []execFn{flatSearch(in)}, streams: streams, warm: warm, dur: r.tracedDur(), minOps: minOps,
		post: func(c, i int, s *sample) { lay.query("messi.search", 0, c, i, s) },
	})
	r.tracedBooks(traced, oracle{coll: coll})
	lay.finish(traced)
	r.engineMetrics(eng0, in.EngineStats(), len(traced[0]))
	r.treeMetrics(in.Tree().Stats())
	r.put("messi.workers_speedup", workersSpeedup(in, pool.hard, r.workers), min(pool.hard.Len(), speedupQueries))
}

// shardedMix: four hot shards behind Serve, two closed-loop tenants, five
// request flavors.
func (r *runner) shardedMix() {
	minOps := r.minOps(400)
	n := r.scaled(memSeries)
	lastN := r.scaled(windowLastN)
	tenants := []string{"a", "b"}
	coll := r.generate(n)
	ix, setup := setupMedian(r, func() (*dsidx.Sharded, error) {
		return dsidx.NewSharded(coll, dsidx.WithShards(shardCount), dsidx.WithWorkers(r.workers))
	})
	resident := residentPerSeries(n)
	warm := r.warm(200)
	perClient := r.streamLen(300, warm, minOps)
	pool := r.queryPools(coll, perClient*len(tenants), hardShare)
	streams := r.streams(pool, len(tenants), perClient, &shardedMix, hardShare)
	or := oracle{coll: coll, lastN: lastN}

	srv := newServeClients(ix, tenants, lastN)
	all, wall := r.drive(phase{execs: srv.execs(), streams: streams, warm: warm, dur: r.untracedDur(), minOps: minOps})
	if r.cfg.trace {
		r.put("serve.overhead_us", serveOverhead(ix, srv, pool.easy), serveProbeQueries)
	}
	srv.stop()
	ix.Close()
	r.endToEnd(all, wall)
	r.verify(all, oracleEvery, or)
	knn := latencies(all, dsidx.QueryKNN)
	r.putPercentile("knn_p50_ms", knn, 50, false)
	r.putPercentile("knn_p95_ms", knn, 95, false)
	r.putPercentile("dtw_p50_ms", latencies(all, dsidx.QueryDTW), 50, false)
	r.putPercentile("window_p50_ms", latencies(all, dsidx.QueryWindowNN), 50, false)
	r.putPercentile("approx_p50_ms", latencies(all, dsidx.QueryApprox), 50, false)
	if r.untracedDone(setup, resident) {
		return
	}

	opt := shard.Options{Options: messi.Options{Workers: r.workers}, Shards: shardCount}
	t0 := time.Now()
	in, err := shard.Build(coll, core.Config{}, opt)
	if err != nil {
		fatal("build: %v", err)
	}
	buildDur := time.Since(t0)
	defer in.Close()
	lay := r.newLayers(in.Shard(0).Tree(), coll)
	eng0 := in.EngineStats()
	ctx := context.Background()
	execs := make([]execFn, len(tenants))
	for c, tenant := range tenants {
		execs[c] = func(o *op) outcome {
			t0 := time.Now()
			release, err := in.AdmitTenantContext(ctx, tenant)
			admit := time.Since(t0)
			if err != nil {
				return outcome{err: err}
			}
			out := shardedSearch(in, o, tenant, lastN)
			release()
			out.admit = admit
			return out
		}
	}
	traced, _ := r.drive(phase{
		execs: execs, streams: streams, warm: warm, dur: r.tracedDur(), minOps: minOps,
		post: func(c, i int, s *sample) {
			end := s.start.Add(s.lat)
			root := r.tr.add("serve.request", 0, opID(c, i), s.start, end, map[string]float64{"kind": float64(s.op.kind)}).ID
			r.tr.add("engine.admit", root, opID(c, i), s.start, s.start.Add(s.out.admit), nil)
			// The search span excludes admission.
			searched := *s
			searched.start, searched.lat = s.start.Add(s.out.admit), s.lat-s.out.admit
			lay.query("shard.search", root, c, i, &searched)
		},
	})
	r.tracedBooks(traced, or)
	lay.finish(traced)
	r.engineMetrics(eng0, in.EngineStats(), len(traced[0])+len(traced[1]))
	r.treeMetrics(shardedTreeStats(in))
	r.shardProbes(coll, in, buildDur, pool.easy)
}

// shardedSearch dispatches one op to the internal sharded index the way
// the public tenant methods do.
func shardedSearch(s *shard.Sharded, o *op, tenant string, lastN int) outcome {
	scope := messi.Scope{AppendCut: -1, Tenant: tenant}
	var res core.Result
	var out outcome
	switch o.kind {
	case dsidx.QueryKNN:
		var rs []core.Result
		rs, out.st, out.err = s.SearchKNNScoped(o.q, knnK, 0, scope)
		out.ms = make([]dsidx.Match, len(rs))
		for i, x := range rs {
			out.ms[i] = matchOf(x.Pos, x.Dist)
		}
		return out
	case dsidx.QueryDTW:
		res, out.st, out.err = s.SearchDTWScoped(o.q, dtwWindow, 0, scope)
	case dsidx.QueryApprox:
		res, out.err = s.SearchApproximateScoped(o.q, scope)
	case dsidx.QueryWindowNN:
		res, out.st, out.err = s.SearchWindowTenant(o.q, lastN, 0, tenant)
	default:
		res, out.st, out.err = s.SearchScoped(o.q, 0, scope)
	}
	out.m = matchOf(res.Pos, res.Dist)
	return out
}

// serveClients drives one public Serve loop from several closed-loop
// clients: requests share the input channel, a demultiplexer hands each
// response to the client that sent it.
type serveClients struct {
	tenants []string
	lastN   int
	in      chan dsidx.QueryRequest
	replies []chan dsidx.QueryResponse
	cancel  context.CancelFunc
	done    chan struct{}
}

func newServeClients(ix *dsidx.Sharded, tenants []string, lastN int) *serveClients {
	ctx, cancel := context.WithCancel(context.Background())
	sc := &serveClients{tenants: tenants, lastN: lastN, in: make(chan dsidx.QueryRequest), cancel: cancel, done: make(chan struct{})}
	for range tenants {
		sc.replies = append(sc.replies, make(chan dsidx.QueryResponse, 1))
	}
	out := ix.Serve(ctx, sc.in)
	go func() {
		defer close(sc.done)
		for resp := range out {
			sc.replies[resp.ID>>32] <- resp
		}
	}()
	return sc
}

func (sc *serveClients) execs() []execFn {
	out := make([]execFn, len(sc.tenants))
	for c := range out {
		out[c] = func(o *op) outcome { return sc.request(c, o) }
	}
	return out
}

func (sc *serveClients) request(c int, o *op) outcome {
	sc.in <- dsidx.QueryRequest{
		ID: int64(c) << 32, Query: o.q, Kind: o.kind,
		K: knnK, Window: dtwWindow, LastN: sc.lastN, Tenant: sc.tenants[c],
	}
	resp := <-sc.replies[c]
	out := outcome{err: resp.Err}
	if resp.Err != nil {
		return out
	}
	if o.kind == dsidx.QueryKNN {
		out.ms = resp.Matches
	} else if len(resp.Matches) == 1 {
		out.m = resp.Matches[0]
	}
	return out
}

// stop closes the request channel and waits for the serve loop to drain.
func (sc *serveClients) stop() {
	close(sc.in)
	<-sc.done
	sc.cancel()
}

// deadSet is the benchmark's own record of what it deleted.
type deadSet []bool

func (d deadSet) dead(i int) bool { return i < len(d) && d[i] }

// ingester is the write surface the churn writer drives: the public MESSI
// in the untraced run, the internal index in the traced one.
type ingester interface {
	AppendBatch(ss []series.Series) (int, error)
	DeleteRange(lo, hi int) (int, error)
}

// writerLog is what the open-loop writer measured.
type writerLog struct {
	fromDueMs []float64 // AppendBatch completion minus the batch's due time
	serviceUs []float64 // AppendBatch call time alone
	lateMs    []float64 // how long after its due time a batch started
	appended  int
	failed    int
	wall      time.Duration
}

// write appends churnBatch series every churnPeriod — on schedule, never
// waiting for a slow index: a late batch is sent at once and timed from
// when it was due — and deletes churnDeletes old positions after each,
// until stop closes or the append pool is used up.
func (r *runner) write(ix ingester, appends *series.Collection, dead deadSet, stop <-chan struct{}, pending func()) writerLog {
	var log writerLog
	batch := make([]series.Series, churnBatch)
	start := time.Now()
	cursor := 0
	for b := 0; (b+1)*churnBatch <= appends.Len(); b++ {
		due := start.Add(time.Duration(b) * churnPeriod)
		select {
		case <-stop:
			log.wall = time.Since(start)
			return log
		case <-time.After(time.Until(due)): // at once when the batch is already late
		}
		for i := range batch {
			batch[i] = appends.At(b*churnBatch + i)
		}
		t0 := time.Now()
		_, err := ix.AppendBatch(batch)
		t1 := time.Now()
		if err != nil {
			log.failed++
		} else {
			log.appended += churnBatch
		}
		if cursor+churnDeletes <= len(dead) { // dead covers exactly the base collection
			if _, err := ix.DeleteRange(cursor, cursor+churnDeletes); err != nil {
				log.failed++
			}
			for i := cursor; i < cursor+churnDeletes; i++ {
				dead[i] = true
			}
			cursor += churnDeletes
		}
		t2 := time.Now()
		log.lateMs = append(log.lateMs, ms(t0.Sub(due)))
		log.fromDueMs = append(log.fromDueMs, ms(t1.Sub(due)))
		log.serviceUs = append(log.serviceUs, us(t1.Sub(t0)))
		if r.tr != nil {
			id := opID(1, b)
			r.tr.add("messi.append_batch", 0, id, t0, t1, map[string]float64{"series": churnBatch})
			r.tr.add("messi.delete_range", 0, id, t1, t2, map[string]float64{"positions": churnDeletes})
		}
		if pending != nil {
			pending()
		}
	}
	log.wall = time.Since(start)
	return log
}

// churnPhase runs one reader beside the writer and returns both logs.
func (r *runner) churnPhase(ix ingester, read execFn, streams [][]op, warm int, dur time.Duration,
	appends *series.Collection, dead deadSet, pending func(), post func(c, i int, s *sample)) ([][]sample, time.Duration, writerLog) {
	minOps := r.minOps(400)
	stop := make(chan struct{})
	var log writerLog
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		log = r.write(ix, appends, dead, stop, pending)
	}()
	all, wall := r.drive(phase{execs: []execFn{read}, streams: streams, warm: warm, dur: dur, minOps: minOps, post: post})
	close(stop)
	wg.Wait()
	return all, wall, log
}

// churn: flat MESSI with a quarter of the base tombstoned, an open-loop
// writer appending and deleting beside one closed-loop 1-NN reader.
func (r *runner) churn() {
	n := r.scaled(churnSeries)
	coll := r.generate(n)
	dead := make(deadSet, n)
	tombstone := func(ix ingester) {
		// Evenly spaced runs: a quarter of every 64 positions.
		const stride, run = 64, int(64 * churnTombstoned)
		for lo := 0; lo+run <= n; lo += stride {
			if _, err := ix.DeleteRange(lo, lo+run); err != nil {
				fatal("tombstone: %v", err)
			}
			for i := lo; i < lo+run; i++ {
				dead[i] = true
			}
		}
	}
	ix, setup := setupMedian(r, func() (*dsidx.MESSI, error) {
		return dsidx.NewMESSI(coll, dsidx.WithWorkers(r.workers))
	})
	tombstone(ix)
	resident := residentPerSeries(n)

	warm := r.warm(200)
	perClient := r.streamLen(1500, warm, r.minOps(400))
	pool := r.queryPools(coll, perClient, hardShare)
	streams := r.streams(pool, 1, perClient, nil, hardShare)
	// Enough append input for both phases of a traced invocation, at the
	// writer's fixed rate, with room for a reader that overruns its limit.
	rate := float64(churnBatch) / churnPeriod.Seconds()
	budget := r.cfg.seconds*2 + 4
	if r.cfg.ops > 0 {
		budget = 4
	}
	t0 := time.Now()
	appends := gen.Generator{Kind: gen.Synthetic, Length: seriesLen, Seed: r.cfg.seed + 2}.Collection(int(rate * budget))
	r.genDur += time.Since(t0)

	all, wall, log := r.churnPhase(ix, func(o *op) outcome {
		m, err := ix.Search(o.q)
		return outcome{m: m, err: err}
	}, streams, warm, r.untracedDur(), appends, dead, nil, nil)
	ix.Flush()
	r.endToEnd(all, wall)
	r.churnBooks(all, log, coll, appends, dead, func(q series.Series) (dsidx.Match, error) { return ix.Search(q) })
	ix.Close()
	sort.Float64s(log.fromDueMs)
	r.putPercentile("append_batch_p50_ms", log.fromDueMs, 50, false)
	r.putPercentile("append_batch_p95_ms", log.fromDueMs, 95, false)
	r.put("append_per_s", float64(log.appended)/log.wall.Seconds(), log.appended)
	if r.untracedDone(setup, resident) {
		return
	}

	in, err := messi.Build(coll, core.Config{}, messi.Options{Workers: r.workers})
	if err != nil {
		fatal("build: %v", err)
	}
	defer in.Close()
	clear(dead)
	tombstone(in)
	// The traced writer continues the append stream where the first left
	// off, so no series is appended twice.
	rest := appends.Slice(log.appended, appends.Len())
	lay := r.newLayers(in.Tree(), coll)
	eng0, ing0 := in.EngineStats(), in.IngestStats()
	pendingMax := 0
	traced, _, tlog := r.churnPhase(in, flatSearch(in), streams, warm, r.tracedDur(), rest, dead,
		func() { pendingMax = max(pendingMax, in.Pending()) },
		func(c, i int, s *sample) { lay.query("messi.search", 0, c, i, s) })
	ing1 := in.IngestStats()
	t0 = time.Now()
	in.Flush()
	t1 := time.Now()
	r.tr.add("messi.flush", 0, opID(2, 0), t0, t1, nil)
	r.tracedBooks(traced, oracle{})
	r.churnBooks(traced, tlog, coll, rest, dead, func(q series.Series) (dsidx.Match, error) {
		res, _, err := in.Search(q, 0)
		return matchOf(res.Pos, res.Dist), err
	})
	lay.finish(traced)
	r.engineMetrics(eng0, in.EngineStats(), len(traced[0]))
	r.treeMetrics(in.Tree().Stats())
	sort.Float64s(tlog.serviceUs)
	late := append(log.lateMs, tlog.lateMs...) // both phases: a p99 needs 1000 batches
	sort.Float64s(late)
	r.putPercentile("messi.append_us_p50", tlog.serviceUs, 50, false)
	r.putPercentile("bench.gen_late_p99_ms", late, 99, false)
	r.put("messi.merges", float64(ing1.Merges-ing0.Merges), 1)
	r.put("messi.snapshot_swaps", float64(ing1.SnapshotSwaps-ing0.SnapshotSwaps), 1)
	r.put("messi.pending_max", float64(pendingMax), len(tlog.serviceUs))
	r.put("messi.flush_ms", ms(t1.Sub(t0)), 1)
	r.put("messi.tombstoned_ratio", float64(ing1.Tombstoned)/float64(ing1.Tombstoned+ing1.Live), 1)
	t0 = time.Now()
	in.Compact()
	t1 = time.Now()
	r.tr.add("messi.compact", 0, opID(2, 1), t0, t1, nil)
	r.put("messi.compact_ms", ms(t1.Sub(t0)), 1)
}

// churnBooks checks a churn phase: the writer's failures, every answer's
// distance recomputed from the series it names, and — the writer stopped
// and the index flushed — a sample of queries against a serial scan of the
// final live set.
func (r *runner) churnBooks(all [][]sample, log writerLog, coll, appends *series.Collection, dead deadSet, search func(series.Series) (dsidx.Match, error)) {
	r.attempted += len(log.serviceUs)
	r.failed += log.failed
	r.opCounts["append_batch"] += len(log.serviceUs)
	base := coll.Len()
	for i := range all[0] {
		s := &all[0][i]
		if s.out.err != nil {
			continue
		}
		pos := s.out.m.Pos
		var member series.Series
		switch {
		case pos >= 0 && pos < base:
			member = coll.At(pos)
		case pos >= base && pos < base+log.appended:
			member = appends.At(pos - base)
		default:
			r.failed++
			continue
		}
		if s.out.m != matchOf(int32(pos), vector.SquaredED(s.op.q, member)) {
			r.failed++
		}
	}
	r.checked += len(all[0])

	values := make([]float32, 0, (base+log.appended)*seriesLen)
	values = append(values, coll.Values()...)
	values = append(values, appends.Slice(0, log.appended).Values()...)
	final, err := series.CollectionFromValues(values, seriesLen)
	if err != nil {
		fatal("final collection: %v", err)
	}
	or := oracle{coll: final, dead: dead.dead}
	picked := make([][]sample, 1)
	step := max(1, len(all[0])/churnOracleSample)
	for i := 0; i < len(all[0]) && len(picked[0]) < churnOracleSample; i += step {
		m, err := search(all[0][i].op.q)
		picked[0] = append(picked[0], sample{op: all[0][i].op, out: outcome{m: m, err: err}})
		if err != nil {
			r.failed++
		}
	}
	r.verify(picked, 1, or)
}

// coldSSD: four shards, every one on a simulated SSD behind a block cache
// an eighth of the payload, closed-loop clients of perturbed 1-NN. Two
// clients rather than one: a lone client's latencies span 1 to 80 ms (p5
// to p95) with the median on the steep part of the curve, and it spread 15%
// over ten seeds; two clients sharing the two workers pull the distribution
// together (9 to 10% over ten seeds) and add a fifth more samples.
func (r *runner) coldSSD() {
	const clients = 2
	minOps := r.minOps(250)
	n := r.scaled(coldSeries)
	coll := r.generate(n)
	opt := shard.Options{
		Options: messi.Options{Workers: r.workers},
		Shards:  shardCount,
		ColdStorage: &shard.ColdStorage{
			Profile:    storage.SSD,
			CacheBytes: int64(n) * seriesLen * 4 / coldCacheShare,
		},
	}
	ix, setup := setupMedian(r, func() (*shard.Sharded, error) { return shard.Build(coll, core.Config{}, opt) })
	defer ix.Close()
	ix.ColdDisk().SetScale(coldLatencyScale)
	// An all-cold index no longer references the flat collection: drop it
	// for the measurement and generate it again for queries and the oracle.
	coll = nil
	resident := residentPerSeries(n)
	coll = r.generate(n)

	warm := r.warm(50)
	perClient := r.streamLen(100, warm, minOps)
	pool := r.queryPools(coll, perClient*clients, 0)
	streams := r.streams(pool, clients, perClient, nil, 0)
	search := func(o *op) outcome {
		res, st, err := ix.Search(o.q, 0)
		return outcome{m: matchOf(res.Pos, res.Dist), st: st, err: err}
	}
	execs := []execFn{search, search}
	all, wall := r.drive(phase{execs: execs, streams: streams, warm: warm, dur: r.untracedDur(), minOps: minOps})
	r.endToEnd(all, wall)
	r.verify(all, 1, oracle{coll: coll})
	if r.untracedDone(setup, resident) {
		return
	}

	lay := r.newLayers(ix.Shard(0).Tree(), coll)
	eng0, cold0 := ix.EngineStats(), ix.ColdStats()
	traced, _ := r.drive(phase{
		execs: execs, streams: streams, warm: 0, dur: r.tracedDur(), minOps: minOps,
		post: func(c, i int, s *sample) { lay.query("shard.search", 0, c, i, s) },
	})
	cold1 := ix.ColdStats()
	queries := len(traced[0]) + len(traced[1])
	r.tracedBooks(traced, oracle{coll: coll})
	lay.finish(traced)
	r.engineMetrics(eng0, ix.EngineStats(), queries)
	r.treeMetrics(shardedTreeStats(ix))
	r.storageMetrics(cold0, cold1, queries, lay.rawDistances)
	r.storageProbes(coll)
}

// tracedBooks counts a traced phase's ops and failures; with a collection
// to scan it also holds the usual sample against the oracle.
func (r *runner) tracedBooks(traced [][]sample, or oracle) {
	r.book(traced)
	if or.coll != nil {
		r.verify(traced, oracleEvery, or)
	}
}
