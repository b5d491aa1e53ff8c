// Package conformance is the randomized differential harness for the
// serving stack: a seeded generator drives an arbitrary interleaving of
// Build / Append / AppendBatch / AppendWithTTL / Delete / DeleteRange /
// ExpireBefore / Compact / Flush / Save / Load / Search / k-NN / DTW /
// approximate / sliding-window ops against a plain messi.Index AND a
// shard.Sharded instance holding identical content, asserting after every
// query that both answers are bit-identical to each other and to the
// internal/ucr serial scan over a mirror of everything landed so far.
//
// The mirror is the oracle: a flat collection grown in exactly the global
// position order both systems assign, plus a tombstone set and a pending
// TTL table mirroring the delete state, so "serial scan of the live
// mirror" is the ground truth every exactness claim in this repository
// reduces to. TTL expiry runs on a logical clock the harness owns — the
// index never reads wall time — so runs are deterministic per seed.
// Equality is exact (not tolerance-based) because every system shares one
// distance kernel — see ucr.Scan. Some exact queries also carry a random
// tenant ID: tenancy only moves scheduling, so answers must be
// bit-identical with or without it.
//
// Every (re)build of the sharded instance randomly chooses between the
// zero-copy view-based base split and the out-of-core cold tier
// (shard.Options.ColdStorage, with a deliberately tiny block cache and a
// random hot/cold shard placement so eviction, cache misses and the
// mixed-tier path all run under the op stream). Answers must be
// bit-identical however the base is placed, so the harness differentially
// verifies in-RAM and device-backed indexing against each other and the
// oracle.
//
// The harness is deterministic per seed: a failure reproduces from its
// seed and op count alone. It runs as a normal test with fixed seeds
// (conformance_test.go) and scales to long runs via -conformance.ops.
package conformance

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/series"
	"dsidx/internal/shard"
	"dsidx/internal/storage"
	"dsidx/internal/ucr"
	"dsidx/internal/vector"
)

// Config shapes one harness run.
type Config struct {
	// Seed fixes the op sequence, the data and the queries.
	Seed int64
	// Ops is the number of randomized operations to execute.
	Ops int
	// Shards is the sharded instance's partition count.
	Shards int
	// Policy routes the sharded instance (nil means round-robin).
	Policy shard.Policy
	// BaseSeries and SeriesLen shape the initial build (defaults 256/64).
	BaseSeries int
	SeriesLen  int
	// MergeThreshold is the per-shard delta size triggering background
	// merges (default 192 — small, so merges interleave with the ops).
	MergeThreshold int
	// Faults switches the harness into fault-injection mode: the sharded
	// instance's cold tier sits on a storage.FaultStore, and a new op
	// randomly installs transient/permanent fault plans, heals the device
	// and re-stages quarantined shards. The contract under faults: every
	// query that COMPLETES is still bit-identical to the serial oracle;
	// every query that fails does so with the typed
	// shard.ErrShardsUnavailable (never an untyped error, never a process
	// panic); and after heal + re-stage, answers are bit-identical again.
	Faults bool
}

func (c Config) normalize() Config {
	if c.BaseSeries <= 0 {
		c.BaseSeries = 256
	}
	if c.SeriesLen <= 0 {
		c.SeriesLen = 64
	}
	if c.MergeThreshold <= 0 {
		c.MergeThreshold = 192
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// harness holds the two systems under test plus the oracle mirror.
type harness struct {
	t   testing.TB
	cfg Config
	rng *rand.Rand
	gen gen.Generator
	seq int64 // next fresh series index from the generator

	mirror *series.Collection // oracle: all landed series in global order
	dead   map[int]bool       // oracle: tombstoned global positions
	ttls   map[int]int64      // oracle: pending TTL deadlines by position
	clock  int64              // logical clock driving ExpireBefore
	base   *series.Collection // the collection both systems were built over
	qpool  *series.Collection // far-from-everything query series
	plain  *messi.Index
	shrd   *shard.Sharded

	// Fired-op counters: a run long enough to claim coverage must have
	// actually exercised every workload dimension.
	deletes, rangeDeletes, ttlAppends, expired, windows, tenanted int

	// Fault-mode state: the injecting store under the sharded instance's
	// cold tier (nil outside fault mode), and counters proving both sides
	// of the contract were actually exercised.
	fault       *storage.FaultStore
	typedFails  int
	faultChecks int
}

// Run executes cfg.Ops randomized operations, failing t on the first
// divergence. It is single-threaded by design — the interleaving under
// test is the op order, not goroutine scheduling (the race-stress suites
// cover that axis) — so every query observes the full mirror.
func Run(t testing.TB, cfg Config) {
	cfg = cfg.normalize()
	h := &harness{
		t:   t,
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		gen: gen.Generator{Kind: gen.Synthetic, Length: cfg.SeriesLen, Seed: cfg.Seed},
	}
	base := h.gen.Collection(cfg.BaseSeries)
	h.seq = int64(cfg.BaseSeries)
	h.qpool = h.gen.Queries(64)
	h.mirror = series.NewCollection(0, cfg.SeriesLen)
	h.dead = make(map[int]bool)
	h.ttls = make(map[int]int64)
	for i := 0; i < base.Len(); i++ {
		h.mirror.Append(base.At(i))
	}
	h.build(base)
	defer h.close()

	queries := 0
	for op := 0; op < cfg.Ops; op++ {
		// Fault mode folds device chaos into the stream: roughly every
		// tenth op flips the fault plan or heals and re-stages.
		if cfg.Faults && h.rng.Intn(10) == 0 {
			h.opFault()
		}
		switch p := h.rng.Intn(100); {
		case p < 30:
			h.opAppend()
		case p < 40:
			h.opAppendBatch()
		case p < 46:
			h.opTTLAppend()
		case p < 51:
			h.opDelete()
		case p < 54:
			h.opDeleteRange()
		case p < 57:
			h.opTTLExpire()
		case p < 59:
			h.opCompact()
		case p < 62:
			h.opFlush()
		case p < 64:
			h.opSaveLoad()
		case p < 65:
			h.opRebuild()
		case p < 78:
			h.opSearch()
			queries++
		case p < 85:
			h.opSearchWindow()
			queries++
		case p < 92:
			h.opKNN()
			queries++
		case p < 96:
			h.opDTW()
			queries++
		default:
			h.opApproximate()
			queries++
		}
		if h.t.Failed() {
			h.t.Fatalf("conformance: diverged at op %d (seed %d, shards %d)", op, cfg.Seed, cfg.Shards)
		}
		if h.plain.Count() != h.mirror.Len() || h.shrd.Count() != h.mirror.Len() {
			h.t.Fatalf("conformance: op %d: counts diverged: plain %d, sharded %d, mirror %d",
				op, h.plain.Count(), h.shrd.Count(), h.mirror.Len())
		}
		if h.plain.Tombstoned() != len(h.dead) || h.shrd.Tombstoned() != len(h.dead) {
			h.t.Fatalf("conformance: op %d: tombstones diverged: plain %d, sharded %d, mirror %d",
				op, h.plain.Tombstoned(), h.shrd.Tombstoned(), len(h.dead))
		}
	}
	// A run that never queried verified nothing — the op mix forbids it at
	// any plausible op count.
	if cfg.Ops >= 100 && queries == 0 {
		h.t.Fatal("conformance: no query ops executed")
	}
	// Every workload dimension must actually have fired: a long run that
	// never deleted, never expired a TTL, never windowed or never carried a
	// tenant verified less than it claims. The op mix makes each
	// near-certain at any plausible op count.
	if cfg.Ops >= 300 {
		for name, n := range map[string]int{
			"delete":       h.deletes,
			"delete-range": h.rangeDeletes,
			"ttl-append":   h.ttlAppends,
			"ttl-expired":  h.expired,
			"window-query": h.windows,
			"tenant-query": h.tenanted,
		} {
			if n == 0 {
				h.t.Fatalf("conformance: op kind %q never fired in %d ops", name, cfg.Ops)
			}
		}
	}
	// A fault-mode run must have exercised both sides of the contract:
	// queries completed under injection (checked bit-identical above) and
	// queries failed with the typed error. The op mix makes both
	// near-certain at any plausible op count.
	if cfg.Faults && cfg.Ops >= 300 {
		if h.faultChecks == 0 {
			h.t.Fatal("conformance: fault mode never queried under an active plan")
		}
		if h.typedFails == 0 {
			h.t.Fatal("conformance: fault mode produced no typed query failures")
		}
	}
}

func (h *harness) build(base *series.Collection) {
	cfg := core.Config{LeafCapacity: 32}
	opt := messi.Options{MergeThreshold: h.cfg.MergeThreshold}
	plain, err := messi.Build(base, cfg, opt)
	if err != nil {
		h.t.Fatal(err)
	}
	sopt := shard.Options{Shards: h.cfg.Shards, Policy: h.cfg.Policy, Options: opt}
	// Toss the base placement: zero-copy views (the default) or the
	// out-of-core cold tier. Answers must be bit-identical whichever way
	// the base is stored, so the whole op stream differentially verifies
	// both paths against each other.
	h.tossPlacement(&sopt, base)
	shrd, err := shard.Build(base, cfg, sopt)
	if err != nil {
		h.t.Fatal(err)
	}
	h.base, h.plain, h.shrd = base, plain, shrd
}

// tossPlacement randomly picks how the sharded instance stores its base
// values: zero-copy views or the device-backed cold tier. The cold
// configuration uses a cache far smaller than the data (16 KiB) so
// evictions and misses actually happen, and half the time assigns tiers per
// shard at random (always at least one cold) to exercise the mixed hot/cold
// path.
//
// In fault mode the cold tier is mandatory and its store is a
// storage.FaultStore (healed at build time — staging and construction run
// on a healthy device, like the experiments' dataset staging), with base
// the hot re-stage source so Restage can route around a dead device.
func (h *harness) tossPlacement(opt *shard.Options, base *series.Collection) {
	if h.cfg.Faults {
		h.fault = storage.NewFaultStore(storage.NewMemStore(), storage.FaultPlan{})
		first := true
		cs := &shard.ColdStorage{
			// The build's cold tier lands on the injecting store;
			// re-stages get genuinely fresh stores.
			NewStore: func() (storage.Store, error) {
				if first {
					first = false
					return h.fault, nil
				}
				return storage.NewMemStore(), nil
			},
			CacheBytes: 16 << 10,
			Retry:      storage.RetryPolicy{Sleep: func(time.Duration) {}},
			Source:     base,
		}
		h.tossColdPlacement(cs)
		opt.ColdStorage = cs
		return
	}
	// One build in three goes cold, whose tiny cache makes its queries the
	// harness's slowest; the rest keep the zero-copy views, the default.
	if h.rng.Intn(3) == 2 {
		cs := &shard.ColdStorage{CacheBytes: 16 << 10}
		h.tossColdPlacement(cs)
		opt.ColdStorage = cs
	}
}

// tossColdPlacement half the time assigns tiers per shard at random
// (always at least one cold) to exercise the mixed hot/cold path; the
// other half leaves Cold nil, placing every shard cold. It also tosses the
// cache granularity — one series per block, the usual eight, or more than a
// leaf — since the device layout and the coalescing of reads depend on it
// and no answer may.
func (h *harness) tossColdPlacement(cs *shard.ColdStorage) {
	cs.BlockSeries = []int{1, 8, 64}[h.rng.Intn(3)]
	if h.rng.Intn(2) == 0 {
		cold := make([]bool, h.cfg.Shards)
		for i := range cold {
			cold[i] = h.rng.Intn(2) == 0
		}
		cold[h.rng.Intn(len(cold))] = true
		cs.Cold = func(si int) bool { return cold[si] }
	}
}

func (h *harness) close() {
	h.plain.Close()
	h.shrd.Close()
}

// fresh returns the next never-seen series from the deterministic
// generator, so landed content is duplicate-free and nearest neighbors are
// unique — the precondition for comparing positions, not just distances.
func (h *harness) fresh() series.Series {
	s := h.gen.Series(h.seq)
	h.seq++
	return s
}

// query picks a query series: usually a perturbed landed member (so the
// pruning regime matches dense collections), sometimes a fresh series far
// from everything.
func (h *harness) query() series.Series {
	if h.rng.Intn(5) == 0 {
		return h.qpool.At(h.rng.Intn(h.qpool.Len()))
	}
	src := h.mirror.At(h.rng.Intn(h.mirror.Len()))
	q := src.Clone()
	for i := range q {
		q[i] += float32(h.rng.NormFloat64() * 0.05)
	}
	return q
}

func (h *harness) opAppend() {
	s := h.fresh()
	g := h.mirror.Append(s)
	p1, err := h.plain.Append(s)
	if err != nil {
		h.t.Fatal(err)
	}
	p2, err := h.shrd.Append(s)
	if err != nil {
		h.t.Fatal(err)
	}
	if p1 != g || p2 != g {
		h.t.Fatalf("append landed at plain %d / sharded %d, mirror says %d", p1, p2, g)
	}
}

func (h *harness) opAppendBatch() {
	n := 2 + h.rng.Intn(8)
	ss := make([]series.Series, n)
	want := h.mirror.Len()
	for i := range ss {
		ss[i] = h.fresh()
		h.mirror.Append(ss[i])
	}
	p1, err := h.plain.AppendBatch(ss)
	if err != nil {
		h.t.Fatal(err)
	}
	p2, err := h.shrd.AppendBatch(ss)
	if err != nil {
		h.t.Fatal(err)
	}
	if p1 != want || p2 != want {
		h.t.Fatalf("batch landed at plain %d / sharded %d, mirror says %d", p1, p2, want)
	}
}

// opTTLAppend lands a fresh series with a deadline a few logical ticks
// ahead, so later opTTLExpire calls actually reap it mid-stream.
func (h *harness) opTTLAppend() {
	s := h.fresh()
	deadline := h.clock + 1 + int64(h.rng.Intn(5))
	g := h.mirror.Len()
	h.mirror.Append(s)
	p1, err := h.plain.AppendWithTTL(s, deadline)
	if err != nil {
		h.t.Fatal(err)
	}
	p2, err := h.shrd.AppendWithTTL(s, deadline)
	if err != nil {
		h.t.Fatal(err)
	}
	if p1 != g || p2 != g {
		h.t.Fatalf("ttl append landed at plain %d / sharded %d, mirror says %d", p1, p2, g)
	}
	h.ttls[g] = deadline
	h.ttlAppends++
}

// opDelete tombstones one random landed position — sometimes one already
// deleted, so the newly-deleted report is verified both ways.
func (h *harness) opDelete() {
	if h.mirror.Len() == 0 {
		return
	}
	pos := h.rng.Intn(h.mirror.Len())
	wantNew := !h.dead[pos]
	ok1, err := h.plain.Delete(pos)
	if err != nil {
		h.t.Fatal(err)
	}
	ok2, err := h.shrd.Delete(pos)
	if err != nil {
		h.t.Fatal(err)
	}
	if ok1 != wantNew || ok2 != wantNew {
		h.t.Fatalf("delete #%d: newly plain %v / sharded %v, mirror says %v", pos, ok1, ok2, wantNew)
	}
	h.dead[pos] = true
	h.deletes++
}

// opDeleteRange tombstones a small random range, which may straddle the
// base/append boundary, overlap earlier deletes, or be empty.
func (h *harness) opDeleteRange() {
	lo := h.rng.Intn(h.mirror.Len() + 1)
	hi := lo + h.rng.Intn(6)
	if hi > h.mirror.Len() {
		hi = h.mirror.Len()
	}
	want := 0
	for p := lo; p < hi; p++ {
		if !h.dead[p] {
			want++
		}
	}
	n1, err := h.plain.DeleteRange(lo, hi)
	if err != nil {
		h.t.Fatal(err)
	}
	n2, err := h.shrd.DeleteRange(lo, hi)
	if err != nil {
		h.t.Fatal(err)
	}
	if n1 != want || n2 != want {
		h.t.Fatalf("delete range [%d, %d): newly plain %d / sharded %d, mirror says %d", lo, hi, n1, n2, want)
	}
	for p := lo; p < hi; p++ {
		h.dead[p] = true
	}
	h.rangeDeletes++
}

// opTTLExpire advances the logical clock and reaps every deadline it
// passed, verifying both systems report exactly the mirror's count of
// newly expired series (TTLs on already-deleted positions expire silently).
func (h *harness) opTTLExpire() {
	h.clock += int64(1 + h.rng.Intn(3))
	want := 0
	for pos, deadline := range h.ttls {
		if deadline > h.clock {
			continue
		}
		if !h.dead[pos] {
			want++
			h.dead[pos] = true
		}
		delete(h.ttls, pos)
	}
	n1 := h.plain.ExpireBefore(h.clock)
	n2 := h.shrd.ExpireBefore(h.clock)
	if n1 != want || n2 != want {
		h.t.Fatalf("expire at %d: plain %d / sharded %d, mirror says %d", h.clock, n1, n2, want)
	}
	h.expired += want
}

// opCompact forces the tombstone sweep on both systems; every later query
// verifies answers are unchanged by it.
func (h *harness) opCompact() {
	h.plain.Compact()
	h.shrd.Compact()
}

func (h *harness) opFlush() {
	h.plain.Flush()
	h.shrd.Flush()
	if p := h.plain.Pending(); p != 0 {
		h.t.Fatalf("plain pending %d after Flush", p)
	}
	if p := h.shrd.Pending(); p != 0 {
		h.t.Fatalf("sharded pending %d after Flush", p)
	}
}

// opSaveLoad round-trips both systems through their persistence formats
// and continues the run on the decoded copies, so every later op also
// verifies the loaded state.
func (h *harness) opSaveLoad() {
	// Maintenance runs on a healthy device: a re-encode with a dead store
	// is out of scope (and a fresh decode re-stages the cold tier anyway).
	h.opHeal()
	opt := messi.Options{MergeThreshold: h.cfg.MergeThreshold}
	enc := h.plain.Encode()
	plain2, err := messi.Decode(enc, h.base, opt)
	if err != nil {
		h.t.Fatalf("plain decode: %v", err)
	}
	senc := h.shrd.Encode()
	// The loaded copy re-tosses the base placement (views / copies / cold
	// tier) independently of the saved instance's choice: persistence is
	// backing-agnostic, so any combination must keep answering identically.
	sopt := shard.Options{Options: opt}
	h.tossPlacement(&sopt, h.base)
	shrd2, err := shard.Decode(senc, h.base, sopt)
	if err != nil {
		plain2.Close()
		h.t.Fatalf("sharded decode: %v", err)
	}
	// No byte-identical re-encode assertion here: Decode schedules a
	// background merge when a restored delta already exceeds the (small)
	// threshold, which can legitimately advance the merged split before a
	// re-encode — byte identity under quiesced merges is covered by the
	// persistence unit tests and FuzzShardedPersistRoundTrip. The harness
	// asserts the part that must hold regardless of merge timing: every
	// subsequent op answers identically on the decoded copies.
	h.close()
	h.plain, h.shrd = plain2, shrd2
}

// opRebuild rebuilds both systems from scratch over a snapshot of the
// mirror — the landed content becomes the new base collection, exercising
// the build-time split over previously appended series.
func (h *harness) opRebuild() {
	h.opHeal() // builds stage onto a healthy device
	base := series.NewCollection(0, h.cfg.SeriesLen)
	for i := 0; i < h.mirror.Len(); i++ {
		base.Append(h.mirror.At(i))
	}
	h.close()
	h.build(base)
	// A from-scratch rebuild has no delete state; re-apply the mirror's
	// tombstones (now all base positions — exercising base-side deletes)
	// and pending TTL deadlines.
	for pos := range h.dead {
		if _, err := h.plain.Delete(pos); err != nil {
			h.t.Fatal(err)
		}
		if _, err := h.shrd.Delete(pos); err != nil {
			h.t.Fatal(err)
		}
	}
	for pos, deadline := range h.ttls {
		if err := h.plain.SetTTL(pos, deadline); err != nil {
			h.t.Fatal(err)
		}
		if err := h.shrd.SetTTL(pos, deadline); err != nil {
			h.t.Fatal(err)
		}
	}
}

// isDead is the oracle's tombstone predicate.
func (h *harness) isDead(pos int) bool { return h.dead[pos] }

// ask puts q to both systems and holds each answer to want, the serial
// scan's, rank by rank; both must have observed the whole mirror. A sharded
// failure that shardErr tolerates skips the sharded comparison.
func (h *harness) ask(op string, q messi.Query, want ...core.Result) {
	for _, sys := range []struct {
		name  string
		query func(messi.Query) ([]core.Result, *messi.QueryStats, error)
	}{{"plain", h.plain.Query}, {"sharded", h.shrd.Query}} {
		got, st, err := sys.query(q)
		if sys.name == "sharded" && h.shardErr(op, err) {
			continue
		}
		if err != nil {
			h.t.Fatal(err)
		}
		if st.Observed != h.mirror.Len() {
			h.t.Fatalf("%s: observed %s %d, mirror has %d", op, sys.name, st.Observed, h.mirror.Len())
		}
		if !slices.Equal(got, want) {
			h.t.Errorf("%s: %s %v != serial %v", op, sys.name, got, want)
		}
	}
}

func (h *harness) opSearch() {
	q := h.query()
	// A third of exact searches carry a random tenant ID: tenancy touches
	// only admission and pool scheduling, so the answer must be
	// bit-identical with or without it.
	scope := messi.FullScope
	if h.rng.Intn(3) == 0 {
		scope.Tenant = []string{"tenant-a", "tenant-b"}[h.rng.Intn(2)]
		h.tenanted++
	}
	h.ask("1-NN", messi.Query{Kind: messi.NN, Series: q, Scope: scope}, ucr.ScanLive(h.mirror, q, 0, h.isDead))
}

// opSearchWindow queries the most recent n landed series — sometimes a
// window wider than everything landed (degenerating to a full search),
// sometimes a thin recent slice — and compares both systems against the
// serial scan of exactly that live suffix.
func (h *harness) opSearchWindow() {
	q := h.query()
	n := 1 + h.rng.Intn(h.mirror.Len()+8)
	scope := messi.FullScope
	if h.rng.Intn(4) == 0 {
		scope.Tenant = "tenant-w"
		h.tenanted++
	}
	h.ask(fmt.Sprintf("window(n=%d)", n), messi.Query{Kind: messi.NN, Series: q, LastN: n, Scope: scope},
		ucr.ScanLive(h.mirror, q, h.mirror.Len()-n, h.isDead))
	h.windows++
}

func (h *harness) opKNN() {
	q := h.query()
	k := 1 + h.rng.Intn(6)
	h.ask("k-NN", messi.Query{Kind: messi.KNN, Series: q, K: k, Scope: messi.FullScope},
		ucr.ScanLiveKNN(h.mirror, q, k, 0, h.isDead)...)
}

func (h *harness) opDTW() {
	q := h.query()
	w := h.rng.Intn(6)
	h.ask(fmt.Sprintf("DTW(w=%d)", w), messi.Query{Kind: messi.DTW, Series: q, Warp: w, Scope: messi.FullScope},
		ucr.ScanLiveDTW(h.mirror, q, w, 0, h.isDead))
}

// opApproximate checks the approximate contract on both systems: the
// reported position is in range, its reported distance is that position's
// true distance, and it upper-bounds the exact answer.
func (h *harness) opApproximate() {
	q := h.query()
	exact := ucr.ScanLive(h.mirror, q, 0, h.isDead)
	approx := messi.Query{Kind: messi.Approx, Series: q, Scope: messi.FullScope}
	for name, search := range map[string]func(messi.Query) ([]core.Result, *messi.QueryStats, error){
		"plain":   h.plain.Query,
		"sharded": h.shrd.Query,
	} {
		r, _, err := messi.First(search(approx))
		if name == "sharded" && h.shardErr("approx", err) {
			continue
		}
		if err != nil {
			h.t.Fatal(err)
		}
		if r.Pos < 0 {
			// No answer is within the approximate contract once deletes
			// exist: the probed leaf (one per shard) may be wholly
			// tombstoned even while live series sit elsewhere. With no
			// deletes a non-empty index must always answer.
			if exact.Pos >= 0 && len(h.dead) == 0 {
				h.t.Errorf("%s approx returned no answer over a live collection", name)
			}
			continue
		}
		if exact.Pos < 0 {
			// Nothing is live; an approximate answer would have to name a
			// deleted series.
			h.t.Errorf("%s approx answered #%d with nothing live", name, r.Pos)
			continue
		}
		if int(r.Pos) >= h.mirror.Len() {
			h.t.Errorf("%s approx position %d out of range [0, %d)", name, r.Pos, h.mirror.Len())
			continue
		}
		if h.dead[int(r.Pos)] {
			h.t.Errorf("%s approx answered deleted series #%d", name, r.Pos)
			continue
		}
		if r.Dist < exact.Dist {
			h.t.Errorf("%s approx distance %v below exact %v", name, r.Dist, exact.Dist)
		}
		if d := vector.SquaredEDEarlyAbandon(q, h.mirror.At(int(r.Pos)), math.Inf(1)); d != r.Dist {
			h.t.Errorf("%s approx reports %v for #%d, true distance %v", name, r.Dist, r.Pos, d)
		}
	}
}

// shardErr handles a sharded query's error under fault mode: a nil error
// (query completed, caller compares it against the oracle) returns false;
// the typed shards-unavailable failure is counted and tolerated; anything
// else — or any error outside fault mode — is fatal. Every query issued
// while a fault plan is active also counts toward faultChecks, so the run
// can prove injection actually intersected the query stream.
func (h *harness) shardErr(op string, err error) (failed bool) {
	if h.fault != nil && h.fault.Plan().Active() {
		h.faultChecks++
	}
	if err == nil {
		return false
	}
	if h.fault == nil {
		h.t.Fatalf("%s: sharded: %v", op, err)
	}
	var su *shard.ErrShardsUnavailable
	if !errors.As(err, &su) {
		h.t.Fatalf("%s: sharded failed with an untyped error under faults: %v", op, err)
	}
	if len(su.Shards) == 0 {
		h.t.Fatalf("%s: ErrShardsUnavailable lists no shards: %v", op, err)
	}
	h.typedFails++
	return true
}

// opFault mutates the injected fault plan: heal the device (and re-stage
// any quarantined shards, after which answers must be bit-identical
// again), install a transient plan (retries mask most of it; exhaustion
// produces typed failures), or kill a byte range permanently (driving
// quarantine).
func (h *harness) opFault() {
	if h.fault == nil {
		return
	}
	switch h.rng.Intn(4) {
	case 0:
		h.opHeal()
	case 1:
		h.fault.SetPlan(storage.FaultPlan{
			Seed:           h.rng.Int63(),
			TransientProb:  0.1 + 0.4*h.rng.Float64(),
			TransientBurst: h.rng.Intn(3),
			LatencyProb:    0.05,
			Latency:        50 * time.Microsecond,
		})
	default:
		size := h.fault.Size()
		if size == 0 {
			return
		}
		start := h.rng.Int63n(size)
		end := start + 1 + h.rng.Int63n(size-start)
		h.fault.SetPlan(storage.FaultPlan{
			Seed:            h.rng.Int63(),
			PermanentRanges: []storage.Range{{Start: start, End: end}},
		})
	}
}

// opHeal clears the fault plan and re-stages every quarantined shard onto
// a fresh store, restoring full service; subsequent query ops assert the
// answers are bit-identical to the oracle again.
func (h *harness) opHeal() {
	if h.fault == nil {
		return
	}
	h.fault.Heal()
	for _, si := range h.shrd.Health().Quarantined {
		if err := h.shrd.Restage(si); err != nil {
			h.t.Fatalf("restage shard %d: %v", si, err)
		}
	}
	if q := h.shrd.Health().Quarantined; len(q) != 0 {
		h.t.Fatalf("shards %v still unavailable after heal + restage", q)
	}
}
