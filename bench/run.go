package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"dsidx"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/series"
	"dsidx/internal/ucr"
	"dsidx/internal/vector"
)

// config is one invocation: one workload, one seed, one pass kind.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every series count: collectionScale outside tests.
	// ops, when positive, replaces the time limit with an exact per-client
	// op count, so that two runs of one seed do identical work; only
	// bench_test.go sets it.
	scale  float64
	ops    int
	outDir string // records and traces: bench/out outside tests
}

// runner carries one invocation's state: the generated inputs' cost, the
// metrics gathered so far and the pass/fail books.
type runner struct {
	cfg     config
	workers int
	tr      *tracer

	metrics   map[string]metric
	opCounts  map[string]int
	attempted int
	failed    int
	checked   int
	genDur    time.Duration
	scanDur   time.Duration // serial 1-NN oracle scans
	scans     int
	// untracedMeanMs is a traced invocation's mean 1-NN latency in its
	// untraced phase: the base of bench.trace_overhead_ratio and ucr.speedup.
	untracedMeanMs float64
}

func newRunner(cfg config) *runner {
	r := &runner{cfg: cfg, workers: runtime.GOMAXPROCS(0), metrics: map[string]metric{}, opCounts: map[string]int{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

func (r *runner) put(name string, value float64, n int) {
	if _, dup := r.metrics[name]; dup {
		panic("bench: metric " + name + " emitted twice")
	}
	r.metrics[name] = metric{Value: value, N: n}
}

// scaled applies config.scale to a series count.
func (r *runner) scaled(n int) int { return max(64, int(float64(n)*r.cfg.scale)) }

// generate makes the seed's collection of n random-walk series.
func (r *runner) generate(n int) *series.Collection {
	t0 := time.Now()
	coll := gen.Generator{Kind: gen.Synthetic, Length: seriesLen, Seed: r.cfg.seed}.Collection(n)
	r.genDur += time.Since(t0)
	return coll
}

// setupMedian runs the constructor at least setupRepeats times, and up to
// setupRepeatsMax times while they have taken less than setupBudget
// together — a 70 ms constructor needs more repeats than a 200 ms one for
// a median as steady — keeps the last index and returns it with the median
// constructor wall time. A traced invocation reports no setup_s and
// constructs once.
func setupMedian[T interface{ Close() }](r *runner, build func() (T, error)) (T, setupTime) {
	var last T
	var times []float64
	var total time.Duration
	for i := 0; i < setupRepeats || (total < setupBudget && i < setupRepeatsMax); i++ {
		if i > 0 {
			if r.cfg.trace {
				break
			}
			last.Close()
		}
		t0 := time.Now()
		ix, err := build()
		if err != nil {
			fatal("build: %v", err)
		}
		d := time.Since(t0)
		times = append(times, float64(d))
		total += d
		last = ix
	}
	return last, setupTime{time.Duration(median(times)), len(times)}
}

// setupTime is a median constructor wall time and the number of
// constructions behind it.
type setupTime struct {
	median time.Duration
	n      int
}

// residentPerSeries is HeapAlloc after two collections, per series: the
// caller has dropped everything but what a serving process would keep.
func residentPerSeries(n int) float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / float64(n)
}

// op is one generated request.
type op struct {
	kind dsidx.QueryKind
	q    series.Series
}

var kindNames = [5]string{"nn", "knn", "dtw", "approx", "window"}

// pools holds the two query families every workload mixes: perturbed
// members of the collection and fresh random walks.
type pools struct{ easy, hard *series.Collection }

func (r *runner) queryPools(coll *series.Collection, ops int, hardShare float64) pools {
	t0 := time.Now()
	defer func() { r.genDur += time.Since(t0) }()
	g := gen.Generator{Kind: gen.Synthetic, Length: seriesLen, Seed: r.cfg.seed + 1}
	p := pools{easy: g.PerturbedQueries(coll, ops, queryEps)}
	if hardShare > 0 {
		p.hard = g.Queries(max(1, int(float64(ops)*hardShare*1.2)))
	}
	return p
}

// streams deals the pools into one op sequence per client. Kind and
// hardness are drawn independently from the seed, so every request flavor
// sees the same easy/hard split; mix is in permille by QueryKind, nil
// meaning 1-NN only.
func (r *runner) streams(p pools, clients, perClient int, mix *[5]int, hardShare float64) [][]op {
	out := make([][]op, clients)
	easyNext, hardNext := 0, 0
	for c := range out {
		rng := rand.New(rand.NewSource(r.cfg.seed*7919 + int64(c)))
		out[c] = make([]op, perClient)
		for i := range out[c] {
			o := &out[c][i]
			if mix != nil {
				pick := rng.Intn(1000)
				for k, share := range mix {
					if pick < share {
						o.kind = dsidx.QueryKind(k)
						break
					}
					pick -= share
				}
			}
			if p.hard != nil && rng.Float64() < hardShare {
				o.q = p.hard.At(hardNext % p.hard.Len())
				hardNext++
			} else {
				o.q = p.easy.At(easyNext % p.easy.Len())
				easyNext++
			}
		}
	}
	return out
}

// outcome is what one executed op returned. st is set on the internal
// (traced) paths only; admit is the time spent in admission where the
// path has one.
type outcome struct {
	m     dsidx.Match
	ms    []dsidx.Match
	st    *messi.QueryStats
	admit time.Duration
	err   error
}

type execFn func(o *op) outcome

type sample struct {
	op    *op
	start time.Time
	lat   time.Duration
	out   outcome
}

// phase is one measured closed loop: every client issues its stream's ops
// back to back, warm ops first (untimed), then until the time or op limit.
type phase struct {
	execs   []execFn
	streams [][]op
	warm    int
	dur     time.Duration
	minOps  int // per client: keep going past dur until this many are done
	// post, when set, runs after each measured op outside its timed region.
	post func(client, i int, s *sample)
}

// drive runs the phase and returns every client's samples with the wall
// time from the common start — taken once every client has warmed up — to
// the last client's finish.
func (r *runner) drive(ph phase) ([][]sample, time.Duration) {
	out := make([][]sample, len(ph.execs))
	var ready, wg sync.WaitGroup
	startGate := make(chan struct{})
	var start time.Time // written before startGate closes, read after
	end := make([]time.Time, len(ph.execs))
	for c := range ph.execs {
		ready.Add(1)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			exec, ops := ph.execs[c], ph.streams[c]
			for i := 0; i < ph.warm; i++ {
				exec(&ops[i%len(ops)])
			}
			samples := make([]sample, 0, 1<<14)
			ready.Done()
			<-startGate
			done := func(i int) bool {
				if r.cfg.ops > 0 {
					return i >= r.cfg.ops
				}
				return i >= ph.minOps && time.Since(start) >= ph.dur
			}
			for i := 0; !done(i); i++ {
				o := &ops[(ph.warm+i)%len(ops)]
				t0 := time.Now()
				res := exec(o)
				samples = append(samples, sample{op: o, start: t0, lat: time.Since(t0), out: res})
				if ph.post != nil {
					ph.post(c, i, &samples[len(samples)-1])
				}
			}
			end[c] = time.Now()
			out[c] = samples
		}(c)
	}
	ready.Wait()
	start = time.Now()
	close(startGate)
	wg.Wait()
	var wall time.Duration
	for c := range ph.execs {
		wall = max(wall, end[c].Sub(start))
	}
	return out, wall
}

// latencies returns the sorted latencies, in ms, of the samples of one kind.
func latencies(all [][]sample, kind dsidx.QueryKind) []float64 {
	var out []float64
	for _, ss := range all {
		for i := range ss {
			if ss[i].op.kind == kind {
				out = append(out, ms(ss[i].lat))
			}
		}
	}
	sort.Float64s(out)
	return out
}

// putPercentile emits a percentile of sorted. An end-to-end metric must
// exist; any other reads 0 (with its sample count) where the sample is too
// small to support it.
func (r *runner) putPercentile(name string, sorted []float64, p float64, required bool) {
	v, err := percentile(sorted, p)
	if err != nil && required {
		fatal("%s: %v", name, err)
	}
	r.put(name, v, len(sorted))
}

// endToEnd books one untraced phase — op counts and failures — and emits
// the latency and throughput metrics measured in it. The three universal
// ones are an untraced invocation's; nn_p99_ms goes out from both kinds,
// and a traced invocation keeps the mean as the base of its ratios.
func (r *runner) endToEnd(all [][]sample, wall time.Duration) {
	total := r.book(all)
	nn := latencies(all, dsidx.QueryNN)
	if !r.cfg.trace {
		r.putPercentile("nn_p50_ms", nn, 50, true)
		r.putPercentile("nn_p95_ms", nn, 95, true)
		r.put("qps", float64(total)/wall.Seconds(), total)
	}
	r.putPercentile("nn_p99_ms", nn, 99, false)
	r.untracedMeanMs = mean(nn)
}

// book counts a phase's ops by kind and its errors as failures, and returns
// the op count.
func (r *runner) book(all [][]sample) int {
	total := 0
	for _, ss := range all {
		total += len(ss)
		for i := range ss {
			r.opCounts[kindNames[ss[i].op.kind]]++
			if ss[i].out.err != nil {
				r.failed++
			}
		}
	}
	r.attempted += total
	return total
}

func matchOf(pos int32, squared float64) dsidx.Match {
	return dsidx.Match{Pos: int(pos), Distance: math.Sqrt(squared)}
}

// oracle is the serial-scan truth a sampled answer is held against, bit for
// bit. lastN is the QueryWindowNN range; dead, when set, marks deleted
// positions.
type oracle struct {
	coll  *series.Collection
	lastN int
	dead  func(int) bool
}

// correct reports whether s's answer is the oracle's.
func (or oracle) correct(s *sample) bool {
	if s.out.err != nil {
		return true // already counted as a failure by book
	}
	q, got := s.op.q, s.out.m
	switch s.op.kind {
	case dsidx.QueryKNN:
		want := ucr.ScanLiveKNN(or.coll, q, knnK, 0, or.dead)
		if len(want) != len(s.out.ms) {
			return false
		}
		for i, w := range want {
			if s.out.ms[i] != matchOf(w.Pos, w.Dist) {
				return false
			}
		}
		return true
	case dsidx.QueryDTW:
		w := ucr.ScanLiveDTW(or.coll, q, dtwWindow, 0, or.dead)
		return got == matchOf(w.Pos, w.Dist)
	case dsidx.QueryWindowNN:
		w := ucr.ScanLive(or.coll, q, or.coll.Len()-or.lastN, or.dead)
		return got == matchOf(w.Pos, w.Dist)
	case dsidx.QueryApprox:
		// Not exact by contract: the answer must be a real member at its
		// true distance, and no closer than the exact nearest neighbor.
		if got.Pos < 0 || got.Pos >= or.coll.Len() {
			return false
		}
		w := ucr.ScanLive(or.coll, q, 0, or.dead)
		return got.Distance == math.Sqrt(vector.SquaredED(q, or.coll.At(got.Pos))) && got.Distance >= math.Sqrt(w.Dist)
	default:
		w := ucr.ScanLive(or.coll, q, 0, or.dead)
		return got == matchOf(w.Pos, w.Dist)
	}
}

// verify holds every n-th sample of each client against the oracle, outside
// any timed region, and books mismatches as failures. The 1-NN scans are
// also the ucr layer's timing.
func (r *runner) verify(all [][]sample, every int, or oracle) {
	var picked []*sample
	for _, ss := range all {
		for i := 0; i < len(ss); i += every {
			picked = append(picked, &ss[i])
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := 0
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(picked) {
					return
				}
				t0 := time.Now()
				ok := or.correct(picked[i])
				d := time.Since(t0)
				mu.Lock()
				if !ok {
					r.failed++
				}
				if picked[i].op.kind == dsidx.QueryNN {
					r.scanDur += d
					r.scans++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.checked += len(picked)
}

func fatal(format string, args ...any) {
	panic(fatalError(fmt.Sprintf(format, args...)))
}

// fatalError is a run that cannot produce a result; main turns it into a
// non-zero exit without a result line.
type fatalError string

func (e fatalError) Error() string { return string(e) }
