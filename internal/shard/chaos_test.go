package shard

// Chaos suite: the fault-tolerance acceptance gate, designed to run under
// -race. A deterministic test walks the failure lifecycle — transient
// faults retried away, a dead device failing each query that meets it with
// the typed error, and a heal after which the very next query answers
// bit-identically — and a concurrent test throws random fault plans and
// heals at a sharded index while writers append and readers query,
// asserting the process never panics, nothing deadlocks, every completed
// answer is bit-identical to a serial scan of the prefix it observed, and
// every failed query carries the typed *storage.BlockError.

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/series"
	"dsidx/internal/storage"
	"dsidx/internal/ucr"
)

// instantRetry keeps fault tests fast: backoff is computed but not slept.
var instantRetry = storage.RetryPolicy{Sleep: func(time.Duration) {}}

// buildFaulty builds a sharded index whose cold tier sits on a FaultStore,
// returning both. cold selects the placement (nil = all shards cold).
func buildFaulty(t *testing.T, coll *series.Collection, shards int, cold func(int) bool, opt func(*Options)) (*Sharded, *storage.FaultStore) {
	t.Helper()
	fs := storage.NewFaultStore(storage.NewMemStore(), storage.FaultPlan{})
	o := Options{
		Shards: shards,
		ColdStorage: &ColdStorage{
			Store:       fs,
			CacheBytes:  4 << 10,
			BlockSeries: 8,
			Cold:        cold,
			Retry:       instantRetry,
		},
		Options: messi.Options{MergeThreshold: 64},
	}
	if opt != nil {
		opt(&o)
	}
	s, err := Build(coll, testConfig(), o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, fs
}

// deadPlan fails every read of the store permanently.
func deadPlan(fs *storage.FaultStore) storage.FaultPlan {
	return storage.FaultPlan{PermanentRanges: []storage.Range{{Start: 0, End: fs.Size()}}}
}

// shardMemberQueries picks members of shard si as queries. Their true
// nearest neighbor (distance zero) lives on that shard, and a zero
// distance can never be proven from summaries alone — so any search MUST
// read the member's raw values off the shard's device. Queries derived
// from other shards' members don't have that property: the hot shards'
// near-exact best-so-far prunes the cold shard at the summary level and
// the dead device goes unnoticed.
func shardMemberQueries(s *Sharded, coll *series.Collection, si int, picks ...int) *series.Collection {
	qs := series.NewCollection(0, coll.SeriesLen())
	pos := s.baseMap[si]
	for _, p := range picks {
		qs.Append(coll.At(int(pos[p%len(pos)])))
	}
	return qs
}

// TestChaosTransientDeadHealRoundTrip walks the deterministic lifecycle on
// a mixed hot/cold index with one cold shard: transient faults retried
// away; then a dead device, on which every query that reads it fails with
// the typed error naming the cold shard while the hot shards' counters stay
// untouched; then a heal, after which the first query — the same one that
// failed, reading the same blocks — answers bit-identically with no other
// call. That step holds only because the cold reader never caches a failed
// block. The metrics exposition must then record every step.
func TestChaosTransientDeadHealRoundTrip(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 31}
	coll := g.Collection(600)
	queries := g.PerturbedQueries(coll, 8, 0.05)
	const coldShard = 1
	s, fs := buildFaulty(t, coll, 3, func(si int) bool { return si == coldShard }, nil)
	// Queries whose answers live on the cold shard, spread across distinct
	// cache blocks so summary pruning and the block cache can't mask the
	// device (see shardMemberQueries).
	coldQ := shardMemberQueries(s, coll, coldShard, 3, 51, 99, 147, 195)
	exact := func(stage string, i int, q series.Series) {
		t.Helper()
		want := ucr.Scan(coll, q)
		got, _, err := s.Search(q, 0)
		if err != nil {
			t.Fatalf("%s query %d: %v", stage, i, err)
		}
		if got.Pos != want.Pos || got.Dist != want.Dist {
			t.Fatalf("%s query %d: (#%d, %v) != serial (#%d, %v)", stage, i, got.Pos, got.Dist, want.Pos, want.Dist)
		}
	}

	// Healthy baseline: bit-identical to the serial oracle.
	exact("healthy", 0, coldQ.At(0))

	// Transient faults: the block loaders' retries absorb them. Every answer
	// stays bit-identical; a load whose MaxRetries re-reads all fail (a
	// second burst right behind the first) fails its query typed. The phase
	// queries other members than the outage below, so the outage's blocks
	// are not cached when it starts.
	fs.SetPlan(storage.FaultPlan{Seed: 31, TransientProb: 0.25, TransientBurst: 2})
	transQ := shardMemberQueries(s, coll, coldShard, 27, 75, 123, 171)
	for i := 0; i < transQ.Len(); i++ {
		q := transQ.At(i)
		want := ucr.Scan(coll, q)
		got, _, err := s.Search(q, 0)
		var be *storage.BlockError
		switch {
		case err != nil && (!errors.As(err, &be) || be.Class != storage.FaultTransient):
			t.Fatalf("transient query %d: %v, want a transient *storage.BlockError", i, err)
		case err == nil && (got.Pos != want.Pos || got.Dist != want.Dist):
			t.Fatalf("transient query %d: (#%d, %v) != serial (#%d, %v)", i, got.Pos, got.Dist, want.Pos, want.Dist)
		}
	}
	if fs.Stats().TransientFaults == 0 {
		t.Fatal("the transient plan injected no faults")
	}
	if hs := s.Health().Shards[coldShard]; hs.PermanentFailures != 0 {
		t.Fatalf("cold shard health %+v after transient faults alone", hs)
	}
	fs.Heal()

	// Kill the device. Every query must fail with the typed error naming the
	// cold shard — never a panic, never an untyped error, never an answer
	// without the cold shard — and only the cold shard's fault counters
	// move: the hot shards ran their sub-searches to the end.
	hotFails := func() (n [3]uint64) {
		for si := range n {
			if si != coldShard {
				n[si] = s.health[si].searchFails.Load() + s.health[si].failures.Load()
			}
		}
		return n
	}
	hot0, perm0 := hotFails(), s.Health().Shards[coldShard].PermanentFailures
	fs.SetPlan(deadPlan(fs))
	const deadQueries = 6
	for i := 0; i < deadQueries; i++ {
		_, _, err := s.Search(coldQ.At(1+i%(coldQ.Len()-1)), 0)
		var be *storage.BlockError
		switch {
		case err == nil:
			t.Fatalf("dead query %d succeeded on a dead device", i)
		case !errors.As(err, &be) || be.Class != storage.FaultPermanent || !errors.Is(err, storage.ErrInjected):
			t.Fatalf("dead query %d: %v, want a permanent *storage.BlockError over the injected cause", i, err)
		case !strings.HasPrefix(err.Error(), fmt.Sprintf("shard %d: ", coldShard)):
			t.Fatalf("dead query %d: %q does not name shard %d", i, err, coldShard)
		}
	}
	h := s.Health()
	if hs := h.Shards[coldShard]; hs.PermanentFailures-perm0 != deadQueries || hs.LastError == "" {
		t.Fatalf("cold shard health %+v after %d dead queries", hs, deadQueries)
	}
	if got := hotFails(); got != hot0 {
		t.Fatalf("hot shards' failure counters %v moved to %v on the cold shard's outage", hot0, got)
	}
	for si, hs := range h.Shards {
		if si != coldShard && (hs.Failures != 0 || hs.LastError != "") {
			t.Fatalf("hot shard %d health %+v contaminated by shard %d's faults", si, hs, coldShard)
		}
	}

	// Heal, and nothing else: the first query is one the dead device failed,
	// and it must read the blocks it failed on and answer exactly.
	fs.Heal()
	exact("first healed", 1, coldQ.At(1))
	for i := 0; i < queries.Len()+coldQ.Len(); i++ {
		q := queries.At(i % queries.Len())
		if i >= queries.Len() {
			q = coldQ.At(i - queries.Len())
		}
		exact("healed", i, q)
	}
	if s.Health().FailedSearches == 0 {
		t.Fatal("health reports no failed searches after the outage")
	}

	// The exposition records the whole walk: retries from the transient
	// phase, permanent faults and the cold shard's failures from the
	// outage.
	text := s.Registry().Text()
	sum := func(family string) float64 {
		var total float64
		for _, v := range familySamples(t, text, family) {
			total += v
		}
		return total
	}
	for _, family := range []string{
		"dsidx_shard_failures_total", "dsidx_cold_retries_total",
		"dsidx_cold_faults_transient_total", "dsidx_cold_faults_permanent_total",
	} {
		if len(familySamples(t, text, family)) == 0 {
			t.Errorf("exposition lacks family %s", family)
		}
	}
	if r := sum("dsidx_cold_retries_total"); r <= 0 {
		t.Errorf("dsidx_cold_retries_total = %v after transient faults, want > 0", r)
	}
	if p := sum("dsidx_cold_faults_permanent_total"); p <= 0 {
		t.Errorf("dsidx_cold_faults_permanent_total = %v after the outage, want > 0", p)
	}
	if f := sum("dsidx_shard_failures_total"); f < deadQueries {
		t.Errorf("dsidx_shard_failures_total = %v after %d dead queries", f, deadQueries)
	}
}

// familySamples returns the value of every sample line of one family in a
// Prometheus text exposition, one per label set.
func familySamples(t *testing.T, text, family string) []float64 {
	t.Helper()
	var vals []float64
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || (!strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{")) {
			continue // another family, or a longer name sharing the prefix
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		vals = append(vals, v)
	}
	return vals
}

// chaosAnswer is one completed query recorded mid-chaos for post-hoc
// verification against the serial oracle.
type chaosAnswer struct {
	qi       int
	observed int
	nn       ucr.Result
}

// TestChaosConcurrentFaults is the -race gate: fault plans flip while
// writers append and readers issue mixed queries against hot/cold/mixed
// placements. Invariants: no panic escapes, nothing deadlocks (the test
// finishes), failed queries are typed, and every COMPLETE answer —
// recorded with the cut it observed — is bit-identical to a serial scan
// of exactly that prefix. A fault fails its own query fast, which names
// the one mode each placement runs in.
func TestChaosConcurrentFaults(t *testing.T) {
	placements := map[string]func(int) bool{
		"all-cold": nil,
		"mixed":    func(si int) bool { return si%2 == 0 },
	}
	for name, placement := range placements {
		t.Run(name+"/failfast", func(t *testing.T) {
			runChaos(t, placement)
		})
	}
}

func runChaos(t *testing.T, placement func(int) bool) {
	const (
		chaosShards  = 4
		chaosBase    = 700
		chaosReaders = 8
	)
	queriesPerReader := 12
	if testing.Short() {
		queriesPerReader = 4
	}
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 41}
	coll := g.Collection(chaosBase)
	queries := g.PerturbedQueries(coll, 32, 0.05)
	pool := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 43}.Collection(256)
	s, fs := buildFaulty(t, coll, chaosShards, placement, nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Chaos driver: flip between transient plans, dead ranges, and heals
	// until the readers finish.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(47))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				fs.SetPlan(storage.FaultPlan{
					Seed:           rng.Int63(),
					TransientProb:  0.3,
					TransientBurst: rng.Intn(3),
				})
			case 1:
				size := fs.Size()
				start := rng.Int63n(size)
				fs.SetPlan(storage.FaultPlan{
					Seed:            rng.Int63(),
					PermanentRanges: []storage.Range{{Start: start, End: start + 1 + rng.Int63n(size-start)}},
				})
			case 2:
				fs.Heal()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Writers: concurrent appends land hot and must never be disturbed by
	// device faults.
	appended := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 0
		for i := 0; i < pool.Len(); i++ {
			select {
			case <-stop:
				appended <- n
				return
			default:
			}
			if _, err := s.Append(pool.At(i)); err != nil {
				t.Errorf("append %d: %v", i, err)
				appended <- n
				return
			}
			n++
			time.Sleep(200 * time.Microsecond)
		}
		appended <- n
	}()

	// Readers drive the duration: when they finish, stop closes and the
	// chaos and writer goroutines wind down.
	var rwg sync.WaitGroup
	records := make([][]chaosAnswer, chaosReaders)
	for r := 0; r < chaosReaders; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			var be *storage.BlockError
			for n := 0; n < queriesPerReader; n++ {
				qi := (r*queriesPerReader + n) % queries.Len()
				got, st, err := s.Search(queries.At(qi), 0)
				if err != nil {
					if !errors.As(err, &be) {
						t.Errorf("reader %d query %d failed untyped: %v", r, n, err)
						return
					}
					continue
				}
				records[r] = append(records[r], chaosAnswer{
					qi:       qi,
					observed: st.Observed,
					nn:       got,
				})
			}
		}(r)
	}

	// The no-deadlock invariant: everything must wind down within the
	// bound. The readers finish on their own; stop then releases the
	// chaos and writer loops.
	done := make(chan struct{})
	go func() {
		rwg.Wait()
		close(stop)
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("chaos run did not settle within 60s — possible deadlock")
	}
	<-appended

	// Post-chaos: a heal alone, and the index must serve exact answers
	// again.
	fs.Heal()

	// Verify recorded complete answers post-hoc: bit-identical to a serial
	// scan over exactly the prefix each observed.
	landed := landedCollection(s)
	verified := 0
	for r := range records {
		for _, rec := range records[r] {
			if rec.observed < chaosBase || rec.observed > landed.Len() {
				t.Fatalf("observed %d outside [%d, %d]", rec.observed, chaosBase, landed.Len())
			}
			want := ucr.Scan(landed.Slice(0, rec.observed), queries.At(rec.qi))
			if rec.nn.Pos != want.Pos || rec.nn.Dist != want.Dist {
				t.Errorf("chaos answer over %d series: (#%d, %v) != serial (#%d, %v)",
					rec.observed, rec.nn.Pos, rec.nn.Dist, want.Pos, want.Dist)
			}
			verified++
		}
	}
	if verified == 0 {
		t.Error("no complete answers recorded under chaos — nothing was verified")
	}

	// Final exactness on the settled index.
	for qi := 0; qi < 4; qi++ {
		q := queries.At(qi)
		want := ucr.Scan(landed, q)
		got, _, err := s.Search(q, 0)
		if err != nil {
			t.Fatalf("settled query %d: %v", qi, err)
		}
		if got.Pos != want.Pos || got.Dist != want.Dist {
			t.Fatalf("settled query %d: (#%d, %v) != serial (#%d, %v)",
				qi, got.Pos, got.Dist, want.Pos, want.Dist)
		}
	}
}

// TestColdFaultOnCallerIsContained fails the first device read of a cold
// shard's exact phase, which the calling goroutine makes itself: it refines
// the head of the sorted candidate list before any helper is submitted. The
// probe's leaves are cached beforehand (an approximate query reads exactly
// them), so no read happens before that drain. The query returns the typed
// *storage.BlockError and counts one failed search; once the device heals,
// the same query answers bit-identically, so nothing of the failed query —
// no helper, no pooled scratch — outlived its unwind.
func TestColdFaultOnCallerIsContained(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 47}
	coll := g.Collection(2000)
	s, fs := buildFaulty(t, coll, 1, nil, func(o *Options) {
		o.ColdStorage.CacheBytes = 1 << 20
		o.Options.Workers = 2
	})
	queries := g.Queries(8)
	failures := 0
	for i := 0; i < queries.Len(); i++ {
		q := queries.At(i)
		want := ucr.Scan(coll, q)
		if _, _, err := messi.First(s.Query(messi.Query{Kind: messi.Approx, Series: q, Scope: messi.FullScope})); err != nil {
			t.Fatal(err)
		}
		failed := s.Health().FailedSearches
		fs.SetPlan(deadPlan(fs))
		_, _, err := s.Search(q, 0)
		fs.Heal()
		if err == nil {
			// The probe alone settled it: nothing else was read.
			continue
		}
		failures++
		var be *storage.BlockError
		if !errors.As(err, &be) {
			t.Fatalf("query %d: %v, want a *storage.BlockError", i, err)
		}
		if n := s.Health().FailedSearches - failed; n != 1 {
			t.Fatalf("query %d: FailedSearches rose by %d, want 1", i, n)
		}
		if got, _, err := s.Search(q, 0); err != nil || got != want {
			t.Fatalf("query %d after the fault: %+v (%v), serial scan %+v", i, got, err, want)
		}
	}
	t.Logf("%d of %d queries read the device past their probe", failures, queries.Len())
	if failures == 0 {
		t.Fatal("no query read the device past its probe")
	}
}
