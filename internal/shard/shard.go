// Package shard partitions a collection across N independent MESSI shards
// that answer as one index — the coarse-grained layer above the paper's
// intra-tree parallelism. One tree scales by fanning its phases out to a
// worker pool (internal/messi); a serving system at collection sizes past a
// single tree's memory ceiling additionally partitions the data, so builds,
// merges and ingestion parallelize across trees ("Parallel and Distributed
// Data Series Processing on Modern and Emerging Hardware" names exactly
// this distribution step above ParIS+/MESSI).
//
// The design keeps the single-index guarantees:
//
//   - One worker pool, one owner. The Sharded creates the internal/engine
//     pool and lends it to every shard (messi.Options.Engine), so
//     parallelism is governed globally: N shards of one query, or tasks of
//     many queries, never oversubscribe the machine, and admission control
//     spans the whole sharded index. A shard never closes the pool; Close
//     stops it once.
//   - One place that counts. The scatter times and counts every shard's
//     sub-search (health.go), and Registry renders those counters with
//     each shard's ingest families, so a shard keeps no query counters,
//     health or registry of its own: it is a tree plus a write path.
//   - One shared best-so-far. A query scatters to all shards through
//     messi's one pipeline (Index.Run) with a single Sink — an xsync.Best,
//     or KBest — threaded into every shard's traversal, so a tight bound
//     found on shard 0 prunes shards 1..N-1 mid-flight — not merely at
//     merge time.
//     Each shard records answers under its local→global position map, so
//     the shared accumulator always holds collection-level positions.
//   - One consistent cut. Appends publish a copy-on-write per-shard count
//     vector under the route lock; a query captures that vector once and
//     caps every shard at its entry, so the answer covers exactly the
//     global prefix [0, Observed) — the property the conformance and
//     race-stress suites verify against serial scans.
//   - One answer or one error. Every shard takes part in every query, so an
//     answer is always exact. A cold-read fault that outlasts its retries
//     fails only the query that met it, with the typed storage error and
//     the failing shard's id; the shard keeps serving, and once the device
//     answers again the next query reads it (health.go).
//   - One copy of the base data. Each shard is built over a zero-copy
//     position-remapping view (series.View) of the caller's collection,
//     not a materialized per-shard copy, so sharding never doubles
//     base-value residency: N shards read the same flat array a 1-shard
//     index would. Decode replays the same views, so loading is equally
//     copy-free.
//
// Routing is pluggable (Policy): round-robin by arrival order, or
// content-hashing so identical series co-locate. Persistence wraps the
// per-shard DSI1/DSL1/DST1 blobs in a DSS1 manifest (persist.go); plain
// single-index files load as a 1-shard instance.
//
// This layer is the one backend under the public API: a dsidx.MESSI is a
// one-shard Sharded, whose scrape carries no shard label. A scatter runs one
// shard's sub-search on the calling goroutine, so a one-shard query starts
// no goroutine and does the work its one tree's own Query would.
package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dsidx/internal/core"
	"dsidx/internal/engine"
	"dsidx/internal/messi"
	"dsidx/internal/metrics"
	"dsidx/internal/series"
	"dsidx/internal/storage"
	"dsidx/internal/xsync"
)

// MaxShards bounds the shard count: shard ids persist as one byte per
// appended series in the DSS1 route log.
const MaxShards = 256

// Options configures a sharded index: the per-shard MESSI options (Workers
// and MaxInFlight size the one pool every shard shares) plus the partition
// shape.
type Options struct {
	messi.Options
	// Shards is the number of partitions (0 means 1).
	Shards int
	// Policy routes series to shards (nil means RoundRobin).
	Policy Policy
	// ColdStorage, when set, places shards' base values on a device behind
	// a block cache instead of RAM — the out-of-core tier. Answers stay
	// bit-identical to a hot build (float32 values round-trip the device
	// exactly); the conformance harness tosses placement randomly to pin
	// that.
	ColdStorage *ColdStorage
}

// ColdStorage configures the out-of-core tier: which shards are cold, what
// device backs them, and how much RAM the block cache may use. A cold
// shard's base series live in one shared series file on the device — laid
// out in the order of its tree's leaves, so a leaf's members are neighbours
// on the device (cold.go) — and are read through a storage.DiskReader, with
// leaf-ordered raw blocks disabled for that shard so refinement actually
// reads the cold tier; its tree and SAX summaries stay resident, plus 4
// bytes per series of position→slot table. Hot shards keep today's behavior
// exactly, so one Sharded index mixes tiers per shard — the Milvus-style
// hot/cold placement pattern.
//
// When EVERY shard is cold, the index itself holds no reference to the
// caller's flat collection (global reads resolve through the device cache
// too), so the caller may drop it and the base tier's RAM ceiling becomes
// the cache budget.
//
// Appended series always stay hot: the delta buffer and its merged
// positions live in each shard's own chunked store, which is small by
// construction (merges bound it).
type ColdStorage struct {
	// Store backs the tier's series file, which the index writes from
	// offset 0, so one store serves one index; nil means a fresh in-memory
	// MemStore (hermetic, simulation-only). Real persistence supplies a
	// FileStore. The caller owns the store's lifetime — close it after the
	// index is closed, not before.
	Store storage.Store
	// Profile is the simulated device the store is wrapped in; the zero
	// Profile means storage.Unthrottled. The staging write runs at latency
	// scale 0 — a precondition, like the experiments' dataset staging —
	// and the scale is 1 when the index is ready, so query-time accesses
	// pay full device time. Modeled busy-time metrics accumulate
	// throughout.
	Profile storage.Profile
	// CacheBytes is the block-cache budget in bytes (0 means
	// storage.DefaultCacheBytes).
	CacheBytes int64
	// BlockSeries is the cache granularity in consecutive series (0 means
	// storage.DefaultBlockSeries).
	BlockSeries int
	// Cold reports whether shard si is placed cold; nil places every
	// shard cold.
	Cold func(si int) bool
	// Retry is the cold reader's transient-fault retry policy (the zero
	// value retries storage.MaxRetries times, sleeping for real).
	Retry storage.RetryPolicy
}

func (o Options) normalize() (Options, error) {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Shards > MaxShards {
		return o, fmt.Errorf("shard: %d shards exceeds the maximum %d", o.Shards, MaxShards)
	}
	if o.Policy == nil {
		o.Policy = RoundRobin{}
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o, nil
}

// Sharded is a partitioned index over N messi shards, answering the full
// MESSI surface — exact 1-NN/k-NN/DTW, approximate search, batches, live
// appends, Flush, persistence — with every answer position in the global
// (collection-order) position space.
type Sharded struct {
	opt       Options
	n         int
	policy    Policy
	seriesLen int
	base      series.Reader // the flat collection, or the cold tier itself when all shards are cold
	baseLen   int
	eng       *engine.Engine
	shards    []*messi.Index

	// cold is the shared out-of-core tier (nil when every shard is hot);
	// coldShards[si] reports shard si's placement and health[si] its query
	// and fault accounting.
	cold       *coldTier
	coldShards []bool
	health     []shardHealth

	// baseMap[si][localPos] is the global position of shard si's build-time
	// series; mappers[si] extends it over appends. Both immutable after
	// construction (append rows are published before they become readable).
	baseMap [][]int32
	mappers []func(int32) int32

	// Live-append routing state. appendMap[si] maps a shard's append-local
	// index to its global position; routeLog row g is {shard, shard-local
	// pos} of global append g — the landed order. cuts is the published
	// copy-on-write per-shard append-count vector: one atomic load yields a
	// consistent global prefix for a whole scatter-gather query.
	mu        sync.Mutex
	appendMap []*series.ChunkedRows[int32]
	routeLog  *series.ChunkedRows[int32]
	cuts      atomic.Pointer[[]int32]
	appended  atomic.Int64

	regOnce sync.Once
	reg     *metrics.Registry
}

// splitBase partitions the base collection by policy, returning one
// position-remapping view per shard and each shard's local→global base
// position map (the same []int32 backs both — the view IS the map). The
// split is a pure function of (collection, policy, n): Decode replays it
// to rebuild views and maps without persisting them.
//
// Nothing is copied: each shard's messi index reads its series straight
// out of the caller's collection through the view, so a sharded index
// holds the base raw data exactly once — the same single-residency
// guarantee an unsharded index gives (TestViewBuildHoldsBaseOnce). One
// shard's map is the identity, so its view is the collection itself: a
// build materializes leaves in tree order, and reading through a view would
// add a map lookup — a cache miss, at random positions — per series.
func splitBase(coll *series.Collection, policy Policy, n int) (views []series.Reader, baseMap [][]int32) {
	baseMap = make([][]int32, n)
	for si := range baseMap {
		baseMap[si] = make([]int32, 0, coll.Len()/n+1)
	}
	for i := 0; i < coll.Len(); i++ {
		si := policy.Route(i, coll.At(i), n)
		baseMap[si] = append(baseMap[si], int32(i))
	}
	views = make([]series.Reader, n)
	for si := range views {
		if n == 1 {
			views[si] = coll
		} else {
			views[si] = series.NewView(coll, baseMap[si])
		}
	}
	return views, baseMap
}

// newShell assembles the Sharded state common to Build and Decode: the
// base split into one view per shard, the tier placement under
// Options.ColdStorage, the engine the index owns and lends its shards, and
// empty append-routing structures. Every view reads the in-RAM collection,
// cold shards included — the device is staged from the finished trees. The
// caller fills s.shards (one per view) and then calls finish.
func newShell(coll *series.Collection, opt Options) (*Sharded, []series.Reader) {
	views, baseMap := splitBase(coll, opt.Policy, opt.Shards)
	s := &Sharded{
		opt:       opt,
		n:         opt.Shards,
		policy:    opt.Policy,
		seriesLen: coll.SeriesLen(),
		base:      coll,
		baseLen:   coll.Len(),
		eng:       engine.New(engine.Options{Workers: opt.Workers, MaxInFlight: opt.MaxInFlight}),
		shards:    make([]*messi.Index, opt.Shards),
		baseMap:   baseMap,
		health:    make([]shardHealth, opt.Shards),
		appendMap: make([]*series.ChunkedRows[int32], opt.Shards),
		routeLog:  series.NewChunkedRows[int32](2, 0),
	}
	for si := range s.appendMap {
		s.appendMap[si] = series.NewChunkedRows[int32](1, 0)
	}
	// An index dropped without Close stops its pool once it is collected: no
	// pool goroutine holds a reference to the Sharded, only to its shards.
	runtime.AddCleanup(s, (*engine.Engine).Close, s.eng)
	for si := range s.health {
		s.health[si].queryDur = metrics.NewHistogram(metrics.Opts{
			Name:   "dsidx_index_query_seconds",
			Help:   "Sub-search latency per shard, probe included.",
			Labels: s.shardLabels(si),
		}, metrics.LatencyBuckets)
	}
	cuts := make([]int32, opt.Shards)
	s.cuts.Store(&cuts)
	if opt.ColdStorage != nil {
		s.placeCold(opt.ColdStorage)
	}
	return s, views
}

// shardLabels labels shard si's metric families: shard="si", or none on a
// one-shard index, whose scrape reads as one index's.
func (s *Sharded) shardLabels(si int) []metrics.Label {
	if s.n == 1 {
		return nil
	}
	return []metrics.Label{{Key: "shard", Value: strconv.Itoa(si)}}
}

// shardOptions is shard si's messi configuration: identical settings, one
// lent pool. Cold shards disable leaf-ordered raw blocks — a full hot
// copy of the values would defeat the tier — so their refinement reads
// resolve through the device cache (bounds first, survivors in one batch).
func (s *Sharded) shardOptions(si int) messi.Options {
	mo := s.opt.Options
	mo.Engine = s.eng
	if s.isCold(si) {
		mo.DisableLeafRaw = true
	}
	return mo
}

// isCold reports shard si's tier.
func (s *Sharded) isCold(si int) bool { return s.cold != nil && s.coldShards[si] }

// ColdStats reports the cold tier's cache and device counters; the zero
// value when every shard is hot.
type ColdStats struct {
	// ColdShards is the number of cold-placed shards.
	ColdShards int
	// Cache snapshots the shared block cache.
	Cache storage.CacheStats
	// Device snapshots the cold device's I/O accounting.
	Device storage.Metrics
}

// ColdStats snapshots the out-of-core tier's counters.
func (s *Sharded) ColdStats() ColdStats {
	if s.cold == nil {
		return ColdStats{}
	}
	n := 0
	for _, c := range s.coldShards {
		if c {
			n++
		}
	}
	return ColdStats{ColdShards: n, Cache: s.cold.reader.Stats(), Device: s.cold.disk.Metrics()}
}

// ColdDisk exposes the cold tier's device for experiments (latency scaling,
// metric resets between phases); nil when every shard is hot.
func (s *Sharded) ColdDisk() *storage.Disk {
	if s.cold == nil {
		return nil
	}
	return s.cold.disk
}

// finish is called once every shard exists: it builds the per-shard
// position mappers and moves the cold shards' base values onto the device.
// On error the caller closes the half-built index.
func (s *Sharded) finish() error {
	s.mappers = make([]func(int32) int32, s.n)
	for si := range s.mappers {
		bm := s.baseMap[si]
		am := s.appendMap[si]
		s.mappers[si] = func(p int32) int32 {
			if int(p) < len(bm) {
				return bm[p]
			}
			return am.At(int(p) - len(bm))[0]
		}
	}
	if s.n == 1 {
		// One shard's local positions are the global ones, appends
		// included: skip the lookup, a cache miss per scored entry.
		s.mappers[0] = func(p int32) int32 { return p }
	}
	if s.cold != nil {
		if err := s.stageCold(); err != nil {
			return err
		}
	}
	return nil
}

// Build partitions coll by the configured policy and builds one MESSI
// index per shard, all attached to a single shared worker pool.
func Build(coll *series.Collection, cfg core.Config, opt Options) (*Sharded, error) {
	opt, err := opt.normalize()
	if err != nil {
		return nil, err
	}
	s, views := newShell(coll, opt)
	for si := range s.shards {
		s.shards[si], err = messi.Build(views[si], cfg, s.shardOptions(si))
		if err != nil {
			s.Close()
			return nil, s.globalErr(si, err)
		}
	}
	if err := s.finish(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// globalErr restates a shard's refusal of a non-finite base series at that
// series' position in the caller's collection; other errors pass through.
func (s *Sharded) globalErr(si int, err error) error {
	var nf *messi.NonFiniteError
	if errors.As(err, &nf) {
		return fmt.Errorf("shard: series %d of the collection holds a NaN or an infinity", s.baseMap[si][nf.Pos])
	}
	return err
}

// Close stops the worker pool every shard borrows, after any in-flight
// background merge completes. It is idempotent and safe to call concurrently
// with appends and queries, which then run serially on their callers.
func (s *Sharded) Close() { s.eng.Close() }

// Shards returns the number of partitions.
func (s *Sharded) Shards() int { return s.n }

// Shard exposes partition si for diagnostics and tests.
func (s *Sharded) Shard(si int) *messi.Index { return s.shards[si] }

// Count returns the number of series the index answers over: the base
// collection plus every published append, across all shards.
func (s *Sharded) Count() int { return s.baseLen + int(s.appended.Load()) }

// At returns the series at a global position — base collection order
// first, then appends in arrival order. Every position a query result
// reports resolves through here.
func (s *Sharded) At(pos int) series.Series {
	if pos < s.baseLen {
		return s.base.At(pos)
	}
	r := s.routeLog.At(pos - s.baseLen)
	return s.shards[r[0]].At(int(r[1]))
}

// EngineStats snapshots the shared pool's counters — one pool serves every
// shard, so this is already the aggregate view.
func (s *Sharded) EngineStats() engine.Stats { return s.eng.Stats() }

// AdmitTenantContext blocks until the shared pool's admission control
// grants a query slot under the tenant's gate (tenant "" takes the global
// gate alone); one slot covers a whole scatter-gather query across all
// shards. release is nil and err non-nil if ctx is done first.
func (s *Sharded) AdmitTenantContext(ctx context.Context, tenant string) (release func(), err error) {
	return s.eng.Admit(ctx, tenant)
}

// TenantStats snapshots the shared pool's per-tenant accounting.
func (s *Sharded) TenantStats() []engine.TenantStat { return s.eng.TenantStats() }

// MaxInFlight returns the admission bound on concurrently admitted
// scatter-gather queries.
func (s *Sharded) MaxInFlight() int { return s.eng.MaxInFlight() }

// view captures one consistent cross-shard cut: the per-shard append
// counts published by the most recent append, plus the global series count
// they imply. Every shard of one query is capped at its entry, so the
// query answers over exactly the global prefix [0, observed).
func (s *Sharded) view() (cuts []int32, observed int) {
	c := *s.cuts.Load()
	total := 0
	for _, v := range c {
		total += int(v)
	}
	return c, s.baseLen + total
}

// scatter runs fn for every shard concurrently, under that shard's slice of
// the query's scope (each call coordinates its shard's search, whose tasks
// run on the shared pool), and merges the per-shard work stats into stats.
// The last shard's call runs on the calling goroutine and every other on a
// goroutine of its own, so a one-shard query starts none and N shards start
// N−1. The logical query is counted once here; the per-shard sub-searches
// register only as active executors, so the engine's Queries counter reads
// in logical QPS at any shard count. Each sub-search is timed and counted,
// failed or not, in its shard's health (shardHealth.record).
//
// Every shard takes part in every query, so an answer is exact or the query
// fails: a sub-search error — a contained *storage.BlockError from the cold
// tier, or a contained task panic — fails this query alone, with the error
// of the lowest-numbered failing shard wrapped with that shard's id
// (errors.As and errors.Is reach the cause). Storage-classified failures
// are also counted in each failing shard's health. Nothing else changes:
// the next query reads the device afresh.
func (s *Sharded) scatter(scope messi.Scope, cuts []int32, stats *messi.QueryStats, fn func(si int, scope messi.Scope) (*messi.QueryStats, error)) error {
	s.eng.CountQuery(scope.Tenant)
	type outcome struct {
		st  *messi.QueryStats
		err error
	}
	out := make([]outcome, s.n)
	var wg, seeded sync.WaitGroup
	if s.cold != nil {
		seeded.Add(s.n)
	}
	run := func(si int) {
		sub := s.shardScope(scope, cuts, si)
		arrive := func() {}
		if s.cold != nil {
			// Over a device, no shard traverses before every shard has
			// seeded the shared threshold from its approximate phase:
			// whichever holds the near neighbour tightens it first, and the
			// others prune against that instead of paying device reads for
			// candidates it excludes. Every sibling of the caller's shard
			// runs on a goroutine started before it, and none of them on a
			// pool worker, so waiting here holds up no one's tasks; a
			// sub-search that returns without seeding (a fault, nothing
			// visible) arrives on its way out.
			arrive = sync.OnceFunc(seeded.Done)
			sub.Seeded = func() { arrive(); seeded.Wait() }
		}
		defer arrive()
		t0 := time.Now()
		out[si].st, out[si].err = fn(si, sub)
		s.health[si].record(time.Since(t0), out[si].err)
	}
	last := s.n - 1
	for si := range last {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(si)
		}()
	}
	run(last)
	wg.Wait()
	var err error
	for si, o := range out {
		if o.err != nil {
			s.noteShardError(si, o.err)
			if err == nil {
				err = fmt.Errorf("shard %d: %w", si, o.err)
			}
		}
	}
	if err != nil {
		return err
	}
	for _, o := range out {
		stats.ProbeLeaves += o.st.ProbeLeaves
		stats.LeavesInserted += o.st.LeavesInserted
		stats.LeavesPopped += o.st.LeavesPopped
		stats.EntriesChecked += o.st.EntriesChecked
		stats.RawDistances += o.st.RawDistances
	}
	return nil
}

// shardScope is shard si's slice of one scatter-gather query's scope: the
// layer's own consistent per-shard append cut, with the caller's window
// lower cut and tenant identity carried through. The caller-side AppendCut
// is not forwarded — the cut vector is the only consistent cross-shard
// prefix (per-shard counts are not interchangeable with a global count).
func (s *Sharded) shardScope(scope messi.Scope, cuts []int32, si int) messi.Scope {
	return messi.Scope{AppendCut: int(cuts[si]), LowPos: scope.LowPos, Tenant: scope.Tenant}
}

// Query answers q by scatter-gathering Run over every shard with one shared
// sink, for every kind, approximate included: the bound tightens globally as
// any shard improves it, pruning the others mid-flight. The cut vector and
// the observed count are captured once, so the answer covers exactly the
// global prefix [0, Observed) and is bit-identical to a serial scan of it;
// q.LastN resolves against that same capture, into a global lower cut
// every shard applies. q.Scope's AppendCut is ignored in favor of the cut
// vector; its window lower cut and tenant reach every shard.
//
// Tombstone audit for the shared k-best set: a deleted position can never
// re-enter the results through cross-shard deduplication. Every global
// position is owned by exactly one shard (the mappers are disjoint by
// construction — base positions partition via baseMap, appended positions
// via the route log), so the only goroutines that can Offer a position run
// inside its owner's Run, after that shard's tombstone filter consulted the
// delete state captured at query start. KBest dedup only drops re-offers of
// a position already present; it never revives one that was filtered, and
// no other shard can offer it. TestDeletedNearestNeverInKNN pins this across
// shard counts, placements and compaction states.
func (s *Sharded) Query(q messi.Query) ([]core.Result, *messi.QueryStats, error) {
	if err := q.Validate(s.seriesLen); err != nil {
		return nil, nil, fmt.Errorf("shard: %w", err)
	}
	if q.Kind == messi.KNN && q.K <= 0 {
		return nil, &messi.QueryStats{}, nil
	}
	cuts, observed := s.view()
	stats := &messi.QueryStats{Observed: observed}
	if q.LastN > 0 {
		q.Scope.LowPos = max(q.Scope.LowPos, int32(max(0, observed-q.LastN)))
		q.LastN = 0
	}
	sink := messi.NewSink(q)
	if observed == 0 {
		return sink.Results(), stats, nil
	}
	if err := s.scatter(q.Scope, cuts, stats, func(si int, scope messi.Scope) (*messi.QueryStats, error) {
		sub := q
		sub.Scope = scope
		return s.shards[si].Run(sub, &sink, s.mappers[si])
	}); err != nil {
		return nil, nil, err
	}
	return sink.Results(), stats, nil
}

// Search answers an exact 1-NN query over every shard.
func (s *Sharded) Search(q series.Series, workers int) (core.Result, *messi.QueryStats, error) {
	return s.SearchScoped(q, workers, messi.FullScope)
}

// SearchScoped is Search under an explicit scope: a window lower cut and a
// tenant identity (see Query).
func (s *Sharded) SearchScoped(q series.Series, workers int, scope messi.Scope) (core.Result, *messi.QueryStats, error) {
	return messi.First(s.Query(messi.Query{Kind: messi.NN, Series: q, Workers: workers, Scope: scope}))
}

// SearchWindowTenant answers an exact 1-NN query over the most recent n
// landed series across all shards — a contiguous range of global positions
// no matter how appends were routed — under a tenant identity.
func (s *Sharded) SearchWindowTenant(q series.Series, n, workers int, tenant string) (core.Result, *messi.QueryStats, error) {
	if n <= 0 {
		return core.NoResult(), nil, fmt.Errorf("shard: window size %d, want > 0", n)
	}
	return messi.First(s.Query(messi.Query{Kind: messi.NN, Series: q, LastN: n, Workers: workers, Scope: messi.Scope{AppendCut: -1, Tenant: tenant}}))
}

// SearchKNNScoped answers an exact k-NN query, with one k-best set shared
// by every shard, under an explicit scope (see Query).
func (s *Sharded) SearchKNNScoped(q series.Series, k, workers int, scope messi.Scope) ([]core.Result, *messi.QueryStats, error) {
	return s.Query(messi.Query{Kind: messi.KNN, Series: q, K: k, Workers: workers, Scope: scope})
}

// SearchDTWScoped answers an exact 1-NN DTW query (Sakoe-Chiba half-width
// window) over every shard, under an explicit scope (see Query).
func (s *Sharded) SearchDTWScoped(q series.Series, window, workers int, scope messi.Scope) (core.Result, *messi.QueryStats, error) {
	return messi.First(s.Query(messi.Query{Kind: messi.DTW, Series: q, Warp: window, Workers: workers, Scope: scope}))
}

// SearchApproximateScoped returns the best answer among every shard's
// approximate probe, under an explicit scope (see Query); its distance
// upper-bounds the exact answer's.
func (s *Sharded) SearchApproximateScoped(q series.Series, scope messi.Scope) (core.Result, error) {
	r, _, err := messi.First(s.Query(messi.Query{Kind: messi.Approx, Series: q, Scope: scope}))
	return r, err
}

// BatchSearchStats answers many exact 1-NN queries concurrently under the
// shared pool's admission control: at most MaxInFlight goroutines claim
// queries with Fetch&Inc, each holding an admission slot — which covers
// one query's whole cross-shard scatter — for the duration of its search.
// results[i] and stats[i] answer qs[i]; the first query error (if any) is
// returned after all queries finish.
func (s *Sharded) BatchSearchStats(qs []series.Series) ([]core.Result, []messi.QueryStats, error) {
	results := make([]core.Result, len(qs))
	stats := make([]messi.QueryStats, len(qs))
	errs := make([]error, len(qs))
	var next xsync.Counter
	var wg sync.WaitGroup
	for range min(len(qs), s.eng.MaxInFlight()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Next())
				if i >= len(qs) {
					return
				}
				// Admission fails only when its context is done, and this one never is.
				release, _ := s.eng.Admit(context.TODO(), "")
				var st *messi.QueryStats
				results[i], st, errs[i] = s.Search(qs[i], 0)
				if st != nil {
					stats[i] = *st
				}
				release()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, stats, err
		}
	}
	return results, stats, nil
}

// Append routes one series to its shard and returns its global position.
// The series is visible to queries before Append returns; merges into the
// shard's tree happen in the background exactly as for a plain index.
func (s *Sharded) Append(ser series.Series) (int, error) {
	if err := series.Check(ser, s.seriesLen); err != nil {
		return 0, fmt.Errorf("shard: append %w", err)
	}
	s.mu.Lock()
	g := s.appendLocked(ser)
	s.publishLocked(1)
	s.mu.Unlock()
	return g, nil
}

// AppendBatch routes a batch of series, returning the global position of
// the first; the batch occupies consecutive global positions and becomes
// visible atomically (the cut vector publishes once, after the last
// series lands). A batch holding one invalid series lands nothing.
func (s *Sharded) AppendBatch(ss []series.Series) (int, error) {
	for i, ser := range ss {
		if err := series.Check(ser, s.seriesLen); err != nil {
			return 0, fmt.Errorf("shard: append batch series %d %w", i, err)
		}
	}
	s.mu.Lock()
	start := s.Count()
	for _, ser := range ss {
		s.appendLocked(ser)
	}
	s.publishLocked(len(ss))
	s.mu.Unlock()
	return start, nil
}

// appendLocked lands one pre-validated series: route, record the mapping
// BEFORE the shard publishes (readers acquire the shard's append counter,
// so a position a query can see always has a visible mapping row), then
// append to the shard. Returns the global position. Caller holds s.mu and
// publishes the cut afterwards.
func (s *Sharded) appendLocked(ser series.Series) int {
	g := s.baseLen + s.routeLog.Len()
	si := s.policy.Route(g, ser, s.n)
	local := len(s.baseMap[si]) + s.appendMap[si].Len()
	s.appendMap[si].Append([]int32{int32(g)})
	s.routeLog.Append([]int32{int32(si), int32(local)})
	if _, err := s.shards[si].Append(ser); err != nil {
		// Series are validated before routing; a shard of the same config
		// cannot reject the append.
		panic(fmt.Sprintf("shard: shard %d rejected a validated append: %v", si, err))
	}
	return g
}

// publishLocked publishes n freshly landed appends as one atomic cut: a
// copy-on-write bump of the per-shard count vector (derived from the route
// log, whose suffix the caller just wrote), then the global counter.
func (s *Sharded) publishLocked(n int) {
	old := *s.cuts.Load()
	next := make([]int32, len(old))
	copy(next, old)
	lo := s.routeLog.Len() - n
	for g := lo; g < s.routeLog.Len(); g++ {
		next[s.routeLog.At(g)[0]]++
	}
	s.cuts.Store(&next)
	s.appended.Add(int64(n))
}

// AppendWithTTL is Append with an expiry deadline: the series lands and is
// immediately searchable, and a later ExpireBefore(now) with now past the
// deadline tombstones it. The TTL is attached before the cut publishes, so
// no reader can observe the series without its deadline.
func (s *Sharded) AppendWithTTL(ser series.Series, deadline int64) (int, error) {
	if err := series.Check(ser, s.seriesLen); err != nil {
		return 0, fmt.Errorf("shard: append %w", err)
	}
	s.mu.Lock()
	g := s.appendLocked(ser)
	r := s.routeLog.At(g - s.baseLen)
	if err := s.shards[r[0]].SetTTL(int(r[1]), deadline); err != nil {
		s.mu.Unlock()
		// appendLocked just landed this exact local position.
		panic(fmt.Sprintf("shard: shard %d rejected TTL on a landed append: %v", r[0], err))
	}
	s.publishLocked(1)
	s.mu.Unlock()
	return g, nil
}

// locate resolves a global position to its (shard, shard-local position)
// pair. Base positions binary-search the per-shard base maps (each an
// ascending slice of global positions); appended positions read the route
// log row, which was written before the position became visible. Caller
// guarantees 0 <= pos < Count().
func (s *Sharded) locate(pos int) (si, local int) {
	if pos < s.baseLen {
		for si, bm := range s.baseMap {
			j := sort.Search(len(bm), func(i int) bool { return bm[i] >= int32(pos) })
			if j < len(bm) && bm[j] == int32(pos) {
				return si, j
			}
		}
		panic(fmt.Sprintf("shard: base position %d in no shard's base map", pos))
	}
	r := s.routeLog.At(pos - s.baseLen)
	return int(r[0]), int(r[1])
}

// Delete tombstones the series at global position pos on whichever shard
// holds it; every subsequent search on every shard skips it. Reports
// whether this call newly deleted it.
func (s *Sharded) Delete(pos int) (bool, error) {
	n, err := s.DeleteRange(pos, pos+1)
	return n > 0, err
}

// DeleteRange tombstones every series in the global position range
// [lo, hi), returning how many this call newly deleted. The range must lie
// within [0, Count()]. A shard's local positions ascend with the global
// ones they map to — its base positions in collection order, then its
// appends in arrival order, after every base position — so the ones inside
// [lo, hi) are one local run, and each shard that holds any publishes one
// tombstone set for the whole call.
func (s *Sharded) DeleteRange(lo, hi int) (int, error) {
	cuts, total := s.view()
	if lo < 0 || hi < lo || hi > total {
		return 0, fmt.Errorf("shard: delete range [%d, %d) outside [0, %d]", lo, hi, total)
	}
	deleted := 0
	for si, mp := range s.mappers {
		n := len(s.baseMap[si]) + int(cuts[si])
		a := sort.Search(n, func(j int) bool { return int(mp(int32(j))) >= lo })
		b := a + sort.Search(n-a, func(j int) bool { return int(mp(int32(a+j))) >= hi })
		if a == b {
			continue
		}
		k, err := s.shards[si].DeleteRange(a, b)
		deleted += k
		if err != nil {
			return deleted, err
		}
	}
	return deleted, nil
}

// SetTTL sets (or replaces) the expiry deadline on the series at global
// position pos.
func (s *Sharded) SetTTL(pos int, deadline int64) error {
	if pos < 0 || pos >= s.Count() {
		return fmt.Errorf("shard: ttl position %d outside [0, %d)", pos, s.Count())
	}
	si, local := s.locate(pos)
	return s.shards[si].SetTTL(local, deadline)
}

// ExpireBefore tombstones every TTL'd series whose deadline is at or
// before now, across all shards, returning how many it newly deleted.
func (s *Sharded) ExpireBefore(now int64) int {
	n := 0
	for _, sh := range s.shards {
		n += sh.ExpireBefore(now)
	}
	return n
}

// Tombstoned counts deleted (or expired) series across all shards.
func (s *Sharded) Tombstoned() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Tombstoned()
	}
	return n
}

// Live counts landed-and-not-tombstoned series across all shards.
func (s *Sharded) Live() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Live()
	}
	return n
}

// Compact synchronously flushes every shard and rebuilds its tree without
// tombstoned entries, reclaiming their tree residency.
func (s *Sharded) Compact() {
	for _, sh := range s.shards {
		sh.Compact()
	}
}

// Flush synchronously merges every shard's delta into its tree.
func (s *Sharded) Flush() {
	for _, sh := range s.shards {
		sh.Flush()
	}
}

// IngestStats merges the shards' write-path counters. MergeThreshold is
// the per-shard threshold (each shard schedules its own merges).
func (s *Sharded) IngestStats() messi.IngestStats {
	var out messi.IngestStats
	for _, sh := range s.shards {
		st := sh.IngestStats()
		out.Appended += st.Appended
		out.Pending += st.Pending
		out.Merged += st.Merged
		out.Merges += st.Merges
		out.SnapshotSwaps += st.SnapshotSwaps
		out.MergeThreshold = st.MergeThreshold
		out.Live += st.Live
		out.Tombstoned += st.Tombstoned
	}
	return out
}
