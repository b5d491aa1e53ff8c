package shard

// Chaos suite: the fault-tolerance acceptance gate, designed to run under
// -race. A deterministic test walks the full failure lifecycle — permanent
// device faults → typed fail-fast → partial results → quarantine →
// re-stage → bit-identical recovery — and a concurrent test throws random
// fault plans, heals and re-stages at a sharded index while writers append
// and readers query, asserting the process never panics, nothing
// deadlocks, every completed answer is bit-identical to a serial scan of
// the prefix it observed, and every failed query carries the typed
// shards-unavailable error.

import (
	"errors"
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
// returning both. cold selects the placement (nil = all shards cold); the
// collection itself is the re-stage source, so recovery works while the
// injected store is dead.
func buildFaulty(t *testing.T, coll *series.Collection, shards int, cold func(int) bool, opt func(*Options)) (*Sharded, *storage.FaultStore) {
	t.Helper()
	fs := storage.NewFaultStore(storage.NewMemStore(), storage.FaultPlan{})
	first := true
	o := Options{
		Shards: shards,
		ColdStorage: &ColdStorage{
			NewStore: func() (storage.Store, error) {
				if first {
					first = false
					return fs, nil
				}
				return storage.NewMemStore(), nil
			},
			CacheBytes:  4 << 10,
			BlockSeries: 8,
			Cold:        cold,
			Retry:       instantRetry,
			Source:      coll,
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

// TestHealthTypesRendering pins the log/metric surface of the degraded
// mode: state names and the typed error's message and unwrap chain.
func TestHealthTypesRendering(t *testing.T) {
	for st, want := range map[ShardState]string{
		Serving: "serving", Quarantined: "quarantined", Restaging: "restaging",
		ShardState(9): "ShardState(9)",
	} {
		if got := st.String(); got != want {
			t.Errorf("ShardState(%d).String() = %q, want %q", int32(st), got, want)
		}
	}
	cause := &storage.ReadError{Off: 8, Len: 4, Class: storage.FaultPermanent, Err: storage.ErrInjected}
	err := &ErrShardsUnavailable{Shards: []int{1, 3}, Cause: cause}
	msg := err.Error()
	for _, sub := range []string{"2 shard(s) unavailable", "[1 3]", "permanent"} {
		if !strings.Contains(msg, sub) {
			t.Errorf("ErrShardsUnavailable %q lacks %q", msg, sub)
		}
	}
	if !errors.Is(err, storage.ErrInjected) {
		t.Error("typed error does not unwrap to the injected cause")
	}
}

// TestChaosQuarantineRestageRoundTrip walks the deterministic lifecycle on
// a mixed hot/cold index with one cold shard: transient faults retried
// away, then a dead device — queries fail fast with the typed error, the
// shard quarantines, partial results answer over the covered shards — and
// a re-stage restoring bit-identical service. The metrics exposition must
// then record every step.
func TestChaosQuarantineRestageRoundTrip(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: testLen, Seed: 31}
	coll := g.Collection(600)
	queries := g.PerturbedQueries(coll, 8, 0.05)
	const coldShard = 1
	s, fs := buildFaulty(t, coll, 3, func(si int) bool { return si == coldShard }, nil)
	// Queries whose answers live on the cold shard, spread across distinct
	// cache blocks so summary pruning and the block cache can't mask the
	// device (see shardMemberQueries).
	coldQ := shardMemberQueries(s, coll, coldShard, 3, 51, 99, 147, 195)

	// Healthy baseline: bit-identical to the serial oracle.
	q0 := coldQ.At(0)
	want := ucr.Scan(coll, q0)
	got, _, err := s.Search(q0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pos != want.Pos || got.Dist != want.Dist {
		t.Fatalf("healthy: (#%d, %v) != serial (#%d, %v)", got.Pos, got.Dist, want.Pos, want.Dist)
	}

	// Transient faults: the block loaders' retries absorb them. Every answer
	// stays bit-identical; a load whose MaxRetries re-reads all fail (a
	// second burst right behind the first) fails its query typed, and never
	// counts toward quarantine. The phase queries other members than the
	// outage below, so the outage's blocks are not cached when it starts.
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
	if hs := s.Health().Shards[coldShard]; hs.State != Serving || hs.PermanentFailures != 0 {
		t.Fatalf("cold shard health %+v after transient faults alone", hs)
	}
	fs.Heal()

	// Kill the device. Queries must fail with the typed error naming the
	// cold shard — never a panic, never an untyped error — and after
	// QuarantineAfter consecutive permanent failures the shard flips to
	// Quarantined (later queries fail fast without touching the device).
	fs.SetPlan(deadPlan(fs))
	var su *ErrShardsUnavailable
	for i := 0; i < 4; i++ {
		if _, _, err := s.Search(coldQ.At(1+i%(coldQ.Len()-1)), 0); err == nil {
			t.Fatalf("query %d succeeded on a dead device", i)
		} else if !errors.As(err, &su) {
			t.Fatalf("query %d failed untyped: %v", i, err)
		}
		if len(su.Shards) != 1 || su.Shards[0] != coldShard {
			t.Fatalf("query %d: unavailable shards %v, want [%d]", i, su.Shards, coldShard)
		}
	}
	if st := s.ShardState(coldShard); st != Quarantined {
		t.Fatalf("cold shard state %v after repeated permanent failures, want Quarantined", st)
	}
	if !errors.Is(su, storage.ErrInjected) {
		t.Fatalf("typed error does not unwrap to the injected cause: %v", su)
	}
	h := s.Health()
	if len(h.Quarantined) != 1 || h.Quarantined[0] != coldShard {
		t.Fatalf("Health().Quarantined = %v, want [%d]", h.Quarantined, coldShard)
	}
	if hs := h.Shards[coldShard]; hs.PermanentFailures < QuarantineAfter || hs.Quarantines != 1 || hs.LastError == "" {
		t.Fatalf("cold shard health %+v lacks the failure record", hs)
	}
	if hs := h.Shards[0]; hs.Failures != 0 || hs.State != Serving {
		t.Fatalf("hot shard 0 health %+v contaminated by shard %d's faults", hs, coldShard)
	}

	// Partial results: the same degraded index answers best-effort when
	// asked, reporting the gap — and the answer is exactly the serial scan
	// over the shards it could cover.
	s.opt.AllowPartial = true
	var covered []int32
	coveredColl := series.NewCollection(0, testLen)
	onCold := make(map[int32]bool, len(s.baseMap[coldShard]))
	for _, g := range s.baseMap[coldShard] {
		onCold[g] = true
	}
	for g := 0; g < coll.Len(); g++ {
		if !onCold[int32(g)] {
			covered = append(covered, int32(g))
			coveredColl.Append(coll.At(g))
		}
	}
	for i := 0; i < 3; i++ {
		q := queries.At(i)
		got, st, err := s.Search(q, 0)
		if err != nil {
			t.Fatalf("AllowPartial query %d failed: %v", i, err)
		}
		if len(st.UncoveredShards) != 1 || st.UncoveredShards[0] != coldShard {
			t.Fatalf("AllowPartial query %d: UncoveredShards %v, want [%d]", i, st.UncoveredShards, coldShard)
		}
		pw := ucr.Scan(coveredColl, q)
		if got.Pos != covered[pw.Pos] || got.Dist != pw.Dist {
			t.Fatalf("partial answer (#%d, %v) != covered-scan (#%d, %v)",
				got.Pos, got.Dist, covered[pw.Pos], pw.Dist)
		}
	}
	s.opt.AllowPartial = false

	// Re-stage onto a fresh store — the dead device stays dead; recovery
	// reads from the hot source — and service is bit-identical again.
	if err := s.Restage(coldShard); err != nil {
		t.Fatalf("restage: %v", err)
	}
	if st := s.ShardState(coldShard); st != Serving {
		t.Fatalf("state %v after restage, want Serving", st)
	}
	for i := 0; i < queries.Len()+coldQ.Len(); i++ {
		q := queries.At(i % queries.Len())
		if i >= queries.Len() {
			q = coldQ.At(i - queries.Len()) // must read the restaged device
		}
		want := ucr.Scan(coll, q)
		got, st, err := s.Search(q, 0)
		if err != nil {
			t.Fatalf("post-restage query %d: %v", i, err)
		}
		if len(st.UncoveredShards) != 0 {
			t.Fatalf("post-restage query %d reports uncovered shards %v", i, st.UncoveredShards)
		}
		if got.Pos != want.Pos || got.Dist != want.Dist {
			t.Fatalf("post-restage query %d: (#%d, %v) != serial (#%d, %v)",
				i, got.Pos, got.Dist, want.Pos, want.Dist)
		}
	}
	h = s.Health()
	if hs := h.Shards[coldShard]; hs.Restages != 1 || hs.State != Serving || hs.LastError != "" {
		t.Fatalf("post-restage health %+v", hs)
	}
	if h.FailedSearches == 0 {
		t.Fatal("health reports no failed searches after the outage")
	}

	// The exposition records the whole walk: retries from the transient
	// phase, permanent faults from the outage, exactly one quarantine and
	// one re-stage, and every shard back to serving.
	text := s.Registry().Text()
	sum := func(family string) float64 {
		var total float64
		for _, v := range familySamples(t, text, family) {
			total += v
		}
		return total
	}
	for _, family := range []string{
		"dsidx_shard_state", "dsidx_shard_failures_total",
		"dsidx_shard_quarantines_total", "dsidx_shard_restages_total",
		"dsidx_cold_retries_total", "dsidx_cold_faults_transient_total",
		"dsidx_cold_faults_permanent_total",
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
	if q, r := sum("dsidx_shard_quarantines_total"), sum("dsidx_shard_restages_total"); q != 1 || r != 1 {
		t.Errorf("quarantines %v, re-stages %v over the walk, want 1 and 1", q, r)
	}
	for si, st := range familySamples(t, text, "dsidx_shard_state") {
		if st != float64(Serving) {
			t.Errorf("dsidx_shard_state sample %d = %v after recovery, want %d (serving)", si, st, Serving)
		}
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
	partial  bool
	nn       ucr.Result
}

// TestChaosConcurrentFaults is the -race gate: fault plans flip while
// writers append and readers issue mixed queries against hot/cold/mixed
// placements. Invariants: no panic escapes, nothing deadlocks (the test
// finishes), failed queries are typed, and every COMPLETE answer —
// recorded with the cut it observed — is bit-identical to a serial scan
// of exactly that prefix.
func TestChaosConcurrentFaults(t *testing.T) {
	placements := map[string]func(int) bool{
		"all-cold": nil,
		"mixed":    func(si int) bool { return si%2 == 0 },
	}
	for name, placement := range placements {
		for _, partial := range []bool{false, true} {
			mode := "failfast"
			if partial {
				mode = "partial"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				runChaos(t, placement, partial)
			})
		}
	}
}

func runChaos(t *testing.T, placement func(int) bool, allowPartial bool) {
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
	s, fs := buildFaulty(t, coll, chaosShards, placement, func(o *Options) {
		o.AllowPartial = allowPartial
	})

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Chaos driver: flip between transient plans, dead ranges, and heals
	// (re-staging whatever quarantined) until the readers finish.
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
				for _, si := range s.Health().Quarantined {
					// A concurrent query may have re-quarantined or a
					// previous loop already claimed it; both fine.
					_ = s.Restage(si)
				}
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
			var su *ErrShardsUnavailable
			for n := 0; n < queriesPerReader; n++ {
				qi := (r*queriesPerReader + n) % queries.Len()
				got, st, err := s.Search(queries.At(qi), 0)
				if err != nil {
					if !errors.As(err, &su) {
						t.Errorf("reader %d query %d failed untyped: %v", r, n, err)
						return
					}
					continue
				}
				records[r] = append(records[r], chaosAnswer{
					qi:       qi,
					observed: st.Observed,
					partial:  len(st.UncoveredShards) > 0,
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

	// Post-chaos: heal, re-stage everything, and the index must serve
	// exact full-coverage answers again.
	fs.Heal()
	for _, si := range s.Health().Quarantined {
		if err := s.Restage(si); err != nil {
			t.Fatalf("final restage shard %d: %v", si, err)
		}
	}
	if q := s.Health().Quarantined; len(q) != 0 {
		t.Fatalf("shards %v quarantined after final heal", q)
	}

	// Verify recorded complete answers post-hoc: bit-identical to a serial
	// scan over exactly the prefix each observed. Partial answers (their
	// uncovered set was reported) are contract-checked by the round-trip
	// test; here they only prove the code path ran.
	landed := landedCollection(s)
	verified := 0
	for r := range records {
		for _, rec := range records[r] {
			if rec.partial {
				continue
			}
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
		got, st, err := s.Search(q, 0)
		if err != nil {
			t.Fatalf("settled query %d: %v", qi, err)
		}
		if len(st.UncoveredShards) != 0 {
			t.Fatalf("settled query %d uncovered %v", qi, st.UncoveredShards)
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
		if _, err := s.SearchApproximate(q); err != nil {
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
