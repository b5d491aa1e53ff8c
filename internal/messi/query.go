package messi

import (
	"fmt"
	"slices"
	"sync/atomic"

	"dsidx/internal/core"
	"dsidx/internal/engine"
	"dsidx/internal/isax"
	"dsidx/internal/paa"
	"dsidx/internal/series"
	"dsidx/internal/vector"
	"dsidx/internal/xsync"
)

// QueryStats counts the work of one query, exposing the pruning effects the
// paper credits for MESSI's speedups.
type QueryStats struct {
	// ProbeLeaves counts the leaves the BSF-seeding approximate phase
	// refined: 1, or 0 over an empty tree; a sharded query sums its shards.
	ProbeLeaves int
	// LeavesInserted is the length of the candidate list: leaves, other
	// than the probed one, whose envelope bound is below the best-so-far as
	// it stood when the bound pass and delta scan had both finished.
	LeavesInserted int
	LeavesPopped   int // listed leaves actually refined
	EntriesChecked int // per-series lower bounds computed
	RawDistances   int // exact distances computed (incl. approximate phase)
	// Observed is the number of series this query answered over: the
	// consistent prefix (base collection + published appends) captured at
	// query start. A serial scan over exactly that prefix returns the
	// bit-identical answer.
	Observed int
}

// view is the consistent cut one query observes: a tree snapshot plus the
// count of appended series published at capture time. Loading the snapshot
// before the append count guarantees aLive ≥ snap.mergedA — the delta
// suffix [snap.mergedA, aLive) is exactly what the tree does not cover.
type view struct {
	snap  *snapshot
	aLive int // published appended series
}

func (ix *Index) view() view {
	s := ix.snap.Load()
	return view{snap: s, aLive: int(ix.appended.Load())}
}

// total returns the number of series the view answers over.
func (v view) total(baseLen int) int { return baseLen + v.aLive }

// candidate is a leaf that survived the bound pass: its index in the
// snapshot's leaf directory and its envelope's lower bound. An index, not a
// pointer, so a pooled list pins no retired subtree.
type candidate struct {
	bound float64
	leaf  int32
}

// searchScratch is the pooled per-query working set: summarizer, summary
// buffers, lower-bound lookup tables and the candidate lists. At the
// default configuration these total ~100KB per query (the table's three
// 32KB arrays and the two 2KB root-key tables) — allocating them per Search
// call is invisible at one query at a time but dominates allocator traffic
// at serving rates, so in-flight queries check them out of a sync.Pool and
// sustained QPS recycles a bounded working set.
type searchScratch struct {
	sm    *core.Summarizer
	qsax  []uint8
	qpaa  []float64
	table *isax.QueryTable
	// keyLo and keyHi are table's root-word bounds (QueryTable.FillRootKeys),
	// the first step of the bound pass.
	keyLo, keyHi [256]float64
	// spans are the directory runs the group pass kept, phase A's claims.
	spans []span
	// parts[w] is phase A worker w's survivor list (0 is the caller); after
	// the barrier the caller folds them all into parts[0], the query's
	// candidate list.
	parts [][]candidate
	// probed is the leaf the approximate phase refined (nil on an empty
	// tree), so the bound pass does not list it: it is already fully
	// refined against a bound at least as tight, and re-refining it would
	// double-count its surviving entries' distances.
	probed *core.Node
	// r is the query's refiner (newRefiner), pooled with the tables it reads.
	r refiner
}

func (ix *Index) newScratch() *searchScratch {
	return &searchScratch{
		sm:    core.NewSummarizer(ix.cfg, ix.Tree().Quantizer()),
		qsax:  make([]uint8, ix.cfg.Segments),
		qpaa:  make([]float64, ix.cfg.Segments),
		table: &isax.QueryTable{},
	}
}

func (ix *Index) getScratch() *searchScratch { return ix.scratch.Get().(*searchScratch) }

func (ix *Index) putScratch(sc *searchScratch) {
	// Drop the probed-leaf pointer and the refiner's closures before
	// parking in the pool: after a merge retires a snapshot, a pooled
	// scratch must not pin the old subtrees' materialized raw blocks, nor a
	// finished query's series and answer, until its next reuse. (The
	// candidate lists hold directory indexes, so they have nothing to drop.)
	sc.probed = nil
	sc.r = refiner{}
	ix.scratch.Put(sc)
}

// lbScratch is a reusable lower-bound buffer, plus the survivor lists of a
// device-backed refinement and the two rows of a DTW score's dynamic
// program (series.DTW). Every worker that refines leaves or scans the delta
// checks one out of the index's pool while it does, so concurrent workers
// of the same query never share a buffer and sustained traffic recycles a
// bounded set (one buffer per running worker, not per leaf).
type lbScratch struct {
	buf      []float64
	idx, pos []int32
	rows     []float64
}

// take returns a length-n bound buffer, growing the backing array only
// when a leaf exceeds every previous one (over-capacity duplicate leaves
// can exceed the configured leaf capacity).
func (s *lbScratch) take(n int) []float64 {
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	return s.buf[:n]
}

func (ix *Index) getLB() *lbScratch  { return ix.lbPool.Get().(*lbScratch) }
func (ix *Index) putLB(s *lbScratch) { ix.lbPool.Put(s) }

// summarizeQuery fills the scratch summary buffers for q.
func (sc *searchScratch) summarizeQuery(q series.Series) {
	sc.sm.Summarize(q, sc.qsax)
	copy(sc.qpaa, sc.sm.PAA(q))
}

// leafSeries returns leaf entry i's raw values: the leaf's materialized
// block when present — entries of one leaf are then consecutive in memory,
// so refinement streams through them — falling back to a positional read
// from the collection/append store for unmaterialized trees.
func (ix *Index) leafSeries(leaf *core.Node, i int) series.Series {
	if raw := leaf.EntryRaw(i, ix.cfg.SeriesLen); raw != nil {
		return raw
	}
	return ix.At(int(leaf.Pos[i]))
}

// refiner is one query's refinement context: what every flavor (ED, k-NN,
// DTW) shares — the lower-bound table, the position map, the visibility
// filter — plus the two things a flavor defines. limit reads the live
// pruning threshold (the BSF for 1-NN, the k-th best for k-NN); score pays
// the real distance of the series s at mapped position gpos under the
// threshold lim it was admitted with, and records any improvement, taking
// any scratch from the calling worker's lb (a query's helpers share r).
type refiner struct {
	table *isax.QueryTable
	mp    func(int32) int32
	f     qfilter
	limit func() float64
	score func(gpos int32, s series.Series, lim float64, st *QueryStats, lb *lbScratch)
}

// refineLeaf checks a leaf's entries: lower bounds for the whole leaf are
// computed in one batched pass over its contiguous SAX block (bit-identical
// to the per-entry MinDistSAX values), then survivors pay the flavor's real
// distance against the leaf's materialized raw block — two sequential
// streams instead of per-entry pointer chasing. Every compare reads the
// live threshold, so it sees the freshest BSF. Entries outside the query's
// filter — past the consistent cut, tombstoned, or below a window's lower
// cut — are skipped.
func (ix *Index) refineLeaf(r *refiner, leaf *core.Node, st *QueryStats, lb *lbScratch) {
	bounds := lb.take(leaf.Count)
	vector.MinDistBatch(r.table.Cells(), leaf.SAX, ix.cfg.Segments, r.table.Card(), bounds)
	st.EntriesChecked += leaf.Count
	if ix.readBatch != nil && leaf.Raw == nil {
		ix.coldEntries(leaf, lb,
			func(i int) bool { return bounds[i] < r.limit() && !r.f.skip(leaf.Pos[i], r.mp) },
			func(i int, s series.Series) { r.score(r.mp(leaf.Pos[i]), s, r.limit(), st, lb) })
		return
	}
	for i, b := range bounds {
		lim := r.limit()
		if b >= lim || r.f.skip(leaf.Pos[i], r.mp) {
			continue
		}
		r.score(r.mp(leaf.Pos[i]), ix.leafSeries(leaf, i), lim, st, lb)
	}
}

// coldEntries is the device-backed form of "for every admitted entry of
// leaf, visit its raw values" — bounds before bytes, the ParIS+ discipline:
// admit is evaluated over the whole leaf first (it reads only resident
// state: the bound pass's output and the query filter), and if nothing
// passes no device access happens at all. The survivors go to the base
// reader's batch read, which resolves them to device slots, visits them in
// ascending slot order and fetches neighbours in one operation; admit is
// asked again before each fetch and each visit, so an entry the threshold
// has overtaken since is neither read nor scored. Merged appends live in
// the in-RAM store and are visited first — they cost nothing and may
// tighten the threshold before any read is issued. Evaluation order never
// changes an answer: every visit is checked against the live threshold
// whenever it runs.
func (ix *Index) coldEntries(leaf *core.Node, lb *lbScratch, admit func(i int) bool, visit func(i int, s series.Series)) {
	idx, pos := lb.idx[:0], lb.pos[:0]
	for i, p := range leaf.Pos {
		if !admit(i) {
			continue
		}
		if int(p) >= ix.baseLen {
			visit(i, ix.store.At(int(p)-ix.baseLen))
			continue
		}
		idx, pos = append(idx, int32(i)), append(pos, p)
	}
	lb.idx, lb.pos = idx, pos
	if len(pos) == 0 {
		return
	}
	ix.readBatch(pos,
		func(k int) bool { return admit(int(idx[k])) },
		func(k int, s series.Series) { visit(int(idx[k]), s) })
}

// scanDelta is refineLeaf over the delta suffix [lo, hi): bounds are
// batched run-by-run over the append log's chunk-contiguous rows, and
// survivors are scored against the in-RAM append store.
func (ix *Index) scanDelta(r *refiner, lo, hi int, st *QueryStats, lb *lbScratch) {
	for i := lo; i < hi; {
		rows, k := ix.saxLog.Run(i, hi)
		bounds := lb.take(k)
		vector.MinDistBatch(r.table.Cells(), rows, ix.cfg.Segments, r.table.Card(), bounds)
		st.EntriesChecked += k
		for j, b := range bounds {
			p := int32(ix.baseLen + i + j)
			lim := r.limit()
			if b >= lim || r.f.skip(p, r.mp) {
				continue
			}
			r.score(r.mp(p), ix.store.At(i+j), lim, st, lb)
		}
		i += k
	}
}

// probeLeaf runs the approximate phase: the leaf under the query's summary
// (core.Tree.BestLeafApprox, the paper's single probe) is refined exactly as
// the exact phase refines, seeding the BSF with exact distances. seeded is
// the scope's hook (see Scope.Seeded), called once the leaf is refined.
func (ix *Index) probeLeaf(sc *searchScratch, t *core.Tree, stats *QueryStats, r *refiner, seeded func()) {
	if sc.probed = t.BestLeafApprox(sc.qsax, sc.qpaa); sc.probed != nil {
		stats.ProbeLeaves = 1
		lb := ix.getLB()
		ix.refineLeaf(r, sc.probed, stats, lb)
		ix.putLB(lb)
	}
	if seeded != nil {
		seeded()
	}
}

// identPos is the position map of an unsharded query: local positions ARE
// the answer positions.
func identPos(p int32) int32 { return p }

func abs(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

// Scope bounds one query's visible position space and carries its tenant
// identity. The zero Scope answers over nothing appended — use FullScope
// (or AppendCut: -1) for "everything published".
type Scope struct {
	// AppendCut, when ≥ 0, bounds the query to the first AppendCut appended
	// series, so a sharding layer can pin one consistent cross-shard
	// prefix; -1 answers over everything published at call time.
	AppendCut int
	// LowPos, when > 0, excludes answers whose mapped (global) position is
	// below it — the sliding-window lower cut. Composed with AppendCut the
	// query ranges over exactly the global suffix [LowPos, cut).
	LowPos int32
	// Tenant is an opaque tenant ID for fair scheduling: the engine divides
	// pool shares across tenants with live queries, so one tenant's storm
	// cannot starve the rest. "" is the untenanted default (exactly the
	// pre-tenant behavior).
	Tenant string
	// Seeded, when non-nil, is called on the calling goroutine once the
	// approximate phase has fed the shared best-so-far and before traversal
	// starts. A sharding layer over a device blocks in it until every
	// sibling shard has seeded too, so no shard pays device reads for
	// candidates a sibling's seed already excludes.
	Seeded func()
}

// FullScope answers over everything published, untenanted.
var FullScope = Scope{AppendCut: -1}

// qfilter is the per-entry visibility filter one query carries: the
// exclusive local position limit (merged appends beyond the scope's append
// cut), the tombstone set loaded at query start, and the window's lower
// global position. One consistent filter per query — a delete or append
// landing mid-query is invisible, exactly like a mid-query merge.
type qfilter struct {
	posLimit int32
	lowPos   int32
	tombs    *tombSet
}

// skip reports whether the entry at local position p is outside the query's
// scope: past the append cut, tombstoned, or (for window queries) mapping
// below the window's global lower cut.
func (f *qfilter) skip(p int32, mp func(int32) int32) bool {
	if p >= f.posLimit || f.tombs.has(p) {
		return true
	}
	return f.lowPos > 0 && mp(p) < f.lowPos
}

// beginQuery registers a query with the engine's counters. A sub-search —
// one shard's branch of a scatter-gather query, recognizable by its
// non-nil position map — contributes to pool scheduling (FairShare) but
// not to the Queries throughput counter: the sharding layer counts the
// logical query exactly once, and times and counts each sub-search itself.
func (ix *Index) beginQuery(sub bool, tenant string) (end func()) {
	if !sub {
		ix.eng.CountQuery(tenant)
	}
	return ix.eng.BeginSubQuery(tenant)
}

// sharedCut prepares the cross-index search state: the view (its delta
// suffix capped at the scope's append cut when a sharding layer pins this
// query to a consistent global prefix), the position map, and the per-entry
// visibility filter. A merge may already have folded appends beyond the cut
// into the tree snapshot — those entries are filtered by position during
// refinement, so the answer covers exactly the scoped slice of
// [0, baseLen+cut), minus the tombstones published at capture time.
func (ix *Index) sharedCut(mapPos func(int32) int32, scope Scope) (v view, mp func(int32) int32, f qfilter) {
	v = ix.view()
	if scope.AppendCut >= 0 && scope.AppendCut < v.aLive {
		v.aLive = scope.AppendCut
	}
	mp = mapPos
	if mp == nil {
		mp = identPos
	}
	f = qfilter{
		posLimit: int32(ix.baseLen + v.aLive),
		lowPos:   scope.LowPos,
		tombs:    ix.tombs.Load(),
	}
	return v, mp, f
}

// Kind selects what a Query finds. Every kind runs the same pipeline (Run);
// the kind decides only the lower-bound table, the real distance a candidate
// pays, the accumulator it lands in, and whether the exact phase runs.
type Kind int

const (
	// NN is an exact 1-NN query under Euclidean distance.
	NN Kind = iota
	// KNN is an exact k-NN query under Euclidean distance; the k-th best
	// distance plays the best-so-far role.
	KNN
	// DTW is an exact 1-NN query under dynamic time warping with a
	// Sakoe-Chiba band, on the unchanged index (paper §V): node pruning and
	// per-entry filtering use the envelope-based iSAX lower bound, candidates
	// pass an LB_Keogh check, and survivors pay the full dynamic program.
	DTW
	// Approx is the approximate algorithm of the iSAX family: the one leaf
	// that best matches the query's summary and the unmerged delta, with no
	// traversal of the rest of the tree. Its distance upper-bounds the
	// exact answer over everything the query observed.
	Approx
)

// Query is one query: what to find (Kind and its parameters), over which
// positions (Scope, LastN), and with how much of the pool (Workers).
type Query struct {
	Kind   Kind
	Series series.Series
	// K is the neighbour count of a KNN query; K ≤ 0 answers nothing.
	K int
	// Warp is the Sakoe-Chiba half-width of a DTW query; negative means 0.
	Warp int
	// LastN, when > 0, restricts the answer to the most recent LastN series
	// of the prefix the query observes: a sliding window whose lower cut
	// comes from the same capture as its upper one. It can only raise
	// Scope.LowPos. An index resolves it against its own position space, so
	// a sharding layer resolves it into Scope.LowPos itself.
	LastN int
	// Workers caps the threads this query runs on: the caller, which is
	// always its first worker, and at most Workers−1 helper tasks on the
	// pool, submitted only where there is work to share (see
	// queuedSearch). ≤ 0 means a fair share of the pool; a larger value is
	// capped at the pool size.
	Workers int
	Scope   Scope
}

// Validate reports why q cannot run over series of length seriesLen, or nil:
// a wrong length or a non-finite value (series.Check), or an unknown kind.
func (q Query) Validate(seriesLen int) error {
	if err := series.Check(q.Series, seriesLen); err != nil {
		return fmt.Errorf("query %w", err)
	}
	if q.Kind < NN || q.Kind > Approx {
		return fmt.Errorf("unknown query kind %d", q.Kind)
	}
	return nil
}

// Sink is where Run records answers: Best for the 1-NN kinds (NN, DTW,
// Approx), KBest for KNN. A sharding layer hands every shard the same Sink,
// so a bound any shard finds prunes all of them.
type Sink struct {
	Best  *xsync.Best
	KBest *xsync.KBest
}

// NewSink returns an empty accumulator for q's kind.
func NewSink(q Query) Sink {
	if q.Kind == KNN {
		return Sink{KBest: xsync.NewKBest(max(q.K, 0))}
	}
	return Sink{Best: xsync.NewBest()}
}

// Results reads the answer: the k-best set in ascending (distance,
// position) order, or the one best pair — core.NoResult when nothing
// visible qualified.
func (s *Sink) Results() []core.Result {
	if s.KBest != nil {
		var out []core.Result
		for _, e := range s.KBest.Sorted() {
			out = append(out, core.Result{Pos: e.Pos, Dist: e.Dist})
		}
		return out
	}
	d, p := s.Best.Load()
	return []core.Result{{Pos: int32(p), Dist: d}}
}

// First is a 1-NN query's answer out of its results: the only one, or
// core.NoResult when there is none (the query failed). S is the stats type
// of whichever index answered.
func First[S any](rs []core.Result, st S, err error) (core.Result, S, error) {
	if len(rs) == 0 {
		return core.NoResult(), st, err
	}
	return rs[0], st, err
}

// Query answers q over everything the index holds at call time, within
// q.Scope: the tree snapshot plus an exact scan of the unmerged delta. A
// 1-NN kind answers one result, KNN up to K in ascending distance order.
// Workers ≤ 0 takes a fair share of the pool, which all in-flight queries
// share; an explicit value is capped at the pool size. Either way the
// caller is one of the query's workers.
func (ix *Index) Query(q Query) ([]core.Result, *QueryStats, error) {
	sink := NewSink(q)
	stats, err := ix.Run(q, &sink, nil)
	if err != nil {
		return nil, nil, err
	}
	return sink.Results(), stats, nil
}

// Run is the one query pipeline and the injection point a sharding layer
// uses to run one logical query across many indexes: the answer lives in
// the caller-owned sink, so a tight bound found by any shard immediately
// prunes every other shard's traversal, lower-bound filtering and early
// abandoning — not just the merged answer afterwards. Every answer is
// recorded under mapPos (local position → the caller's global position
// space; nil means identity); the caller reads it from sink after the call
// (and after every sibling shard's call, when sharing).
//
// Run validates q (unless mapPos marks it a sub-search of a sharding layer,
// which has), captures its consistent cut (sharedCut), fills the
// kind's lower-bound table, probes the approximate phase's leaf, calls
// q.Scope.Seeded, and hands the rest to the exact phase (queuedSearch). An
// Approx query stops after its probe and never calls Seeded. A fault on
// the way — a cold-device read that exhausted its retries — is contained
// into a typed error, and leaves sink holding a partial answer the caller
// must discard.
func (ix *Index) Run(q Query, sink *Sink, mapPos func(int32) int32) (stats *QueryStats, err error) {
	// A sharding layer (mapPos non-nil) validates q once for all its shards.
	if mapPos == nil {
		if err := q.Validate(ix.cfg.SeriesLen); err != nil {
			return nil, fmt.Errorf("messi: %w", err)
		}
	}
	if q.Kind == KNN && q.K <= 0 {
		return &QueryStats{}, nil
	}
	v, mp, f := ix.sharedCut(mapPos, q.Scope)
	stats = &QueryStats{Observed: v.total(ix.baseLen)}
	if stats.Observed == 0 {
		return stats, nil
	}
	if q.LastN > 0 {
		f.lowPos = max(f.lowPos, int32(max(0, stats.Observed-q.LastN)))
	}
	// Coordinator-side containment: the approximate phase refines leaves on
	// this goroutine, so a cold-device fault here does not pass through any
	// pool-task boundary — recover it into the same typed error shape.
	defer func() {
		if r := recover(); r != nil {
			stats, err = nil, engine.Contain(r)
		}
	}()

	sc := ix.getScratch()
	defer ix.putScratch(sc)
	sc.summarizeQuery(q.Series)
	t := v.snap.tree
	r := ix.newRefiner(q, sink, sc, t.Quantizer(), mp, f)
	if q.Kind == Approx {
		ix.approximate(r, sc, v, mapPos != nil, q.Scope.Tenant, stats)
		return stats, nil
	}
	// Approximate phase: exact distances over the closest leaf.
	ix.probeLeaf(sc, t, stats, r, q.Scope.Seeded)

	if err := ix.queuedSearch(q.Workers, mapPos != nil, q.Scope.Tenant, stats, sc, v, r); err != nil {
		return nil, err
	}
	return stats, nil
}

// Search answers an exact 1-NN query over everything published.
func (ix *Index) Search(q series.Series, workers int) (core.Result, *QueryStats, error) {
	return First(ix.Query(Query{Kind: NN, Series: q, Workers: workers, Scope: FullScope}))
}

// deltaBlock and leafBlock are the work-claiming granularities of phase A:
// series of the delta suffix and leaves of the directory per Fetch&Inc. A
// tree over a scaled-down collection has tens of thousands of tiny leaves,
// and per-leaf claims would serialize on the shared counter's cache line.
const (
	deltaBlock = 1024
	leafBlock  = 256
)

// inlineLeaves and drainBudget decide where a query's work runs; both come
// from one sweep at 200,000 × 256 on mem-1nn over {512, 1024, 2048, 4096}
// leaves × {4, 8, 16} leaves (EXPERIMENTS.md "An easy query pays only for
// what it touches"): every point read 0.066–0.072 ms nn_p50_ms against the
// previous schedule's 0.099, and 1,024 × 16 read lowest. Phase A stays on
// the caller when the root-key groups it keeps hold at most inlineLeaves
// leaves and the delta suffix fits in one deltaBlock. Phase B hands the
// rest of the sorted list to helpers only if live candidates remain after
// the caller has refined drainBudget of them. Below these sizes a pool
// hand-off and its barrier cost more than the work they would share.
const (
	inlineLeaves = 1024
	drainBudget  = 16
)

// schedMode is a test-only seam over those two decisions: schedMeasured
// applies them, schedInline runs every phase on the caller whatever the
// size, and schedHelpers submits workers−1 helpers for every phase that has
// work at all. The schedules differ only in which goroutine does a piece of
// work, so with one worker they do the same work in the same order.
type schedMode int

const (
	schedMeasured schedMode = iota
	schedInline
	schedHelpers
)

// schedule is the schedule every query runs; only tests change it.
var schedule = schedMeasured

// keySlack widens the threshold the root-key filter compares with, so that
// the filter never drops a leaf the envelope bound would list. A leaf's key
// sum and its envelope bound each add one non-negative term per segment, and
// segment by segment the key's term — the smallest cell of a half of the
// symbols — is at most the envelope's, the smallest over a range inside that
// half, as floats: both come from the same one-sided table, which is
// monotone in the symbol. The two sums associate differently (last segment
// first through the doubled tables, four lanes in EnvelopeDist). Adding
// floats never underflows and these tables sit far below overflow, so a sum
// of n non-negative terms computed in any order is within a factor
// (1±2⁻⁵³)ⁿ⁻¹ of the real sum; with at most 16 terms and the final add,
// key ≤ env·(1+2⁻⁵³)¹⁶/(1−2⁻⁵³)¹⁵ < env·(1+2⁻⁴⁸). The product lim·keySlack
// rounds to at least lim·(1+2⁻⁴¹) — or, where lim is subnormal, to at least
// lim, and there the sums are exact and key ≤ env outright. Either way
// env < lim implies key < lim·keySlack.
const keySlack = 1 + 0x1p-40

// span is a run [lo, hi) of directory leaves one phase A claim covers.
type span struct{ lo, hi int32 }

// queuedSearch runs MESSI stage 3 over the snapshot's leaf directory rather
// than its pointer tree. Phase A is one bound pass, a cascade in which each
// step is a lower bound on the next. It starts on the caller with one table
// read per root-key group — the directory is ordered by root key, so the
// leaves sharing their key's high byte h are one run — and drops every group
// whose keyHi[h] is not below the threshold (see keySlack): keyLo is a sum
// of non-negative cells — never NaN, since Query.Validate refuses a
// non-finite query — so keyLo+keyHi rounds to at least keyHi and a dropped
// group holds only leaves the per-leaf key filter would drop. On an easy
// query that leaves a few hundred of ~15,600 leaves. The kept groups, cut
// into spans of at most leafBlock leaves, are claimed with Fetch&Inc; a
// claim reads the threshold once, and for each leaf first sums its two
// root-key table reads — the bound of the one-bit-per-segment word it hangs
// under — then, for what is left, computes vector.EnvelopeDist over the
// leaf's per-segment symbol range, at most the per-entry bound of anything
// stored in it. There is no bound on the leaf's own word: nearly every leaf
// is a root child, whose word is its key, and a deeper word is looser than
// the envelope. A leaf whose envelope bound is below the threshold — the probed
// leaf aside — goes on the claiming worker's own list. Once the spans are
// gone a worker claims blocks of the view's unmerged delta suffix and scans
// them exactly; they share the threshold, so it tightens globally whichever
// side improves the answer first. The caller then folds the lists into one,
// keeps what is still below the threshold as it now stands, and sorts it by
// bound. Phase B claims entries of that list with Fetch&Inc and refines them
// (per-entry bounds, then distances); a worker stops at the first bound not
// below the live threshold, because every later entry is at least as far
// and the threshold only shrinks.
//
// The paper drains a set of locked priority queues here, several of them to
// spread lock contention. The list is built without sharing, ordered once by
// its only writer and read through a cursor, so there is no lock to spread
// and no queue count to tune — and the drain is best-first globally, not
// per queue. r carries the flavor: r.limit reads the live threshold (the BSF
// for 1-NN, the k-th best for k-NN) and r.score pays the real distance (ED
// or DTW). Every worker holds a lower-bound buffer for its batched bound
// computations.
//
// The caller is the query's first worker, and workers counts it: a phase
// submits at most workers−1 helper tasks to the index's shared pool, and
// only where there is work to share (inlineLeaves, drainBudget). An easy
// query therefore runs start to finish on the caller and hands nothing to
// the pool, while with several queries in flight the helpers of the hard
// ones interleave through one run queue. Helpers claim from the caller's
// own cursors, so which goroutine takes a claim never changes what is
// claimed or in which order the list drains. sub marks a sharded
// sub-search (see beginQuery).
//
// A helper that panics — a cold-device *storage.BlockError surfacing inside
// a refinement, typically — is contained at the Group boundary, and so is a
// panic on the caller while helpers run (engine.Group.Do): the caller waits
// for every helper before it returns, so the pooled scratch is never handed
// back under a running helper. queuedSearch returns the first contained
// panic as an error, and the caller must discard the answer: the shared
// best-so-far may be missing contributions from the failed work.
func (ix *Index) queuedSearch(
	workers int,
	sub bool,
	tenant string,
	stats *QueryStats,
	sc *searchScratch,
	v view,
	r *refiner,
) error {
	end := ix.beginQuery(sub, tenant)
	defer end()
	bsf := r.limit
	if workers <= 0 {
		// Unpinned queries take a fair share of the pool: full fan-out when
		// alone, a proportional slice when other queries are active — and,
		// for a tenanted query, a slice of the tenant's share, so one
		// tenant's storm cannot starve the rest. An explicit workers value
		// (the paper's scaling knob) is honored up to the pool size.
		workers = ix.eng.FairShare(tenant)
	} else if workers > ix.eng.Workers() {
		workers = ix.eng.Workers()
	}
	dir, rowLen := v.snap.dir, 2*ix.cfg.Segments
	r.table.FillRootKeys(&sc.keyLo, &sc.keyHi)
	below, above := r.table.Sides()
	card := r.table.Card()

	// The group pass: one read per high byte, and the kept groups cut into
	// spans of at most leafBlock leaves (adjacent groups share a span).
	spans, kept := sc.spans[:0], 0
	keyLim := bsf() * keySlack
	for h := range 256 {
		lo, hi := dir.Groups[h], dir.Groups[h+1]
		if lo == hi || sc.keyHi[h] >= keyLim {
			continue
		}
		kept += int(hi - lo)
		for lo < hi {
			if n := len(spans); n > 0 && spans[n-1].hi == lo && spans[n-1].hi-spans[n-1].lo < leafBlock {
				spans[n-1].hi = min(hi, spans[n-1].lo+leafBlock)
			} else {
				spans = append(spans, span{lo, min(hi, lo+leafBlock)})
			}
			lo = spans[len(spans)-1].hi
		}
	}
	sc.spans = spans

	// What the workers share, as one heap object rather than six.
	var sh struct {
		cursor, deltaCursor   xsync.Counter
		popped, entries, raws atomic.Int64
		home                  atomic.Int32 // directory index of the probed leaf, the query's own
	}
	// A sharding layer's append cut may sit below mergedA (a merge folded
	// appends past the cut into the tree, where the position filter handles
	// them) — there is no delta suffix to scan then.
	deltaLo, deltaHi := v.snap.mergedA, max(v.aLive, v.snap.mergedA)
	deltaBlocks := (deltaHi - deltaLo + deltaBlock - 1) / deltaBlock
	helpers := min(workers-1, len(spans)+deltaBlocks)
	if schedule == schedInline || schedule == schedMeasured && kept <= inlineLeaves && deltaBlocks <= 1 {
		helpers = 0
	}
	for len(sc.parts) <= helpers {
		sc.parts = append(sc.parts, nil)
	}
	err := ix.alongside(helpers, func(t int) {
		part := sc.parts[t][:0]
		for {
			k := int(sh.cursor.Next())
			if k >= len(spans) {
				break
			}
			lim := bsf()
			keyLim := lim * keySlack
			for i := int(spans[k].lo); i < int(spans[k].hi); i++ {
				key := dir.Keys[i]
				if sc.keyLo[key&255]+sc.keyHi[key>>8] >= keyLim {
					continue
				}
				b := vector.EnvelopeDist(below, above, dir.Env[i*rowLen:(i+1)*rowLen], card)
				if b >= lim {
					continue
				}
				if dir.Leaves[i] != sc.probed {
					part = append(part, candidate{bound: b, leaf: int32(i)})
				} else {
					sh.home.Store(int32(i))
				}
			}
		}
		sc.parts[t] = part
		if deltaBlocks == 0 {
			return
		}
		st := QueryStats{}
		lb := ix.getLB()
		for {
			lo := deltaLo + int(sh.deltaCursor.Next())*deltaBlock
			if lo >= deltaHi {
				break
			}
			ix.scanDelta(r, lo, min(lo+deltaBlock, deltaHi), &st, lb)
		}
		ix.putLB(lb)
		sh.entries.Add(int64(st.EntriesChecked))
		sh.raws.Add(int64(st.RawDistances))
	})
	if err != nil {
		return err
	}

	// Fold into parts[0], in place: its own survivors only move down, and
	// the other lists land past what has been read of it.
	lim := bsf()
	cands := sc.parts[0][:0]
	for _, part := range sc.parts[:helpers+1] {
		for _, c := range part {
			if c.bound < lim {
				cands = append(cands, c)
			}
		}
	}
	sc.parts[0] = cands
	// Equal bounds — under DTW every leaf the envelope overlaps is at zero —
	// drain outward from the query's own leaf: its neighbours in the
	// directory share its root key's leading segments' bits and, under one
	// root child, are the leaves a slightly different summary would have
	// routed to, so reaching them first tightens the threshold soonest. The
	// directory index settles the rest, so the order depends only on which
	// leaves survived, not on which worker listed them.
	h := sh.home.Load()
	slices.SortFunc(cands, func(a, b candidate) int {
		switch {
		case a.bound < b.bound:
			return -1
		case a.bound > b.bound:
			return 1
		}
		if d := abs(a.leaf-h) - abs(b.leaf-h); d != 0 {
			return int(d)
		}
		return int(a.leaf - b.leaf)
	})

	// drain refines list entries until the list or the budget runs out (a
	// negative budget never does), reporting whether the list did.
	sh.cursor.Reset()
	drain := func(budget int) (done bool) {
		st := QueryStats{}
		lb := ix.getLB()
		for ; budget != 0; budget-- {
			i := int(sh.cursor.Next())
			if i >= len(cands) || cands[i].bound >= bsf() {
				done = true
				break
			}
			st.LeavesPopped++
			ix.refineLeaf(r, dir.Leaves[cands[i].leaf], &st, lb)
		}
		ix.putLB(lb)
		sh.popped.Add(int64(st.LeavesPopped))
		sh.entries.Add(int64(st.EntriesChecked))
		sh.raws.Add(int64(st.RawDistances))
		return done
	}
	budget := drainBudget
	switch {
	case schedule == schedInline || workers == 1:
		budget = -1
	case schedule == schedHelpers:
		budget = 0
	}
	if len(cands) > 0 && !drain(budget) {
		// Live candidates may remain: the caller and up to workers−1
		// helpers drain the rest.
		next := int(sh.cursor.Value())
		helpers := 0
		if next < len(cands) && cands[next].bound < bsf() {
			helpers = min(workers-1, len(cands)-next)
		}
		if err := ix.alongside(helpers, func(int) { drain(-1) }); err != nil {
			return err
		}
	}

	stats.LeavesInserted = len(cands)
	stats.LeavesPopped = int(sh.popped.Load())
	stats.EntriesChecked += int(sh.entries.Load())
	stats.RawDistances += int(sh.raws.Load())
	return nil
}

// alongside runs work(0) on the caller beside work(1..helpers) on the pool,
// and returns once all of them have: with no helpers it is a plain call, and
// a panic unwinds the caller as it would any call. With helpers, a panic
// anywhere — the caller's included — is contained until every helper has
// finished, then returned as the group's error.
func (ix *Index) alongside(helpers int, work func(t int)) error {
	if helpers <= 0 {
		work(0)
		return nil
	}
	g := ix.eng.NewGroup()
	for t := 1; t <= helpers; t++ {
		g.Submit(func() { work(t) })
	}
	g.Do(func() { work(0) })
	g.Wait()
	return g.Err()
}

// newRefiner fills sc's lower-bound table for q's kind — none for Approx,
// which bounds nothing — and returns the refiner that scores q's candidates
// into sink.
func (ix *Index) newRefiner(q Query, sink *Sink, sc *searchScratch, quant *isax.Quantizer, mp func(int32) int32, f qfilter) *refiner {
	sc.r = refiner{table: sc.table, mp: mp, f: f}
	r := &sc.r
	qs, n := q.Series, ix.cfg.SeriesLen
	switch q.Kind {
	case KNN:
		kb := sink.KBest
		sc.table.FillED(quant, sc.qpaa, n)
		// The k-th best distance plays the BSF role in every pruning decision.
		r.limit = kb.Threshold
		r.score = func(gpos int32, s series.Series, lim float64, st *QueryStats, _ *lbScratch) {
			st.RawDistances++
			kb.Offer(gpos, vector.SquaredEDEarlyAbandon(qs, s, lim))
		}
	case DTW:
		best, window := sink.Best, max(q.Warp, 0)
		env := series.NewEnvelope(qs, window)
		sc.table.FillDTW(quant, paa.Transform(env.Upper, ix.cfg.Segments), paa.Transform(env.Lower, ix.cfg.Segments), n)
		// Candidates that pass the iSAX bound take an LB_Keogh check before the
		// full dynamic program.
		r.limit = best.Distance
		r.score = func(gpos int32, s series.Series, lim float64, st *QueryStats, lb *lbScratch) {
			// >, not >=: LBKeogh abandons only above lim, and at warp 0
			// it equals DTW bit for bit, so a bound at lim may be an
			// exact tie the lower position has to win.
			if series.LBKeogh(env, s, lim) > lim {
				return
			}
			st.RawDistances++
			// <=, as in the ED score: DTW abandons only above lim, so
			// d == lim is an exact tie and Best keeps the lower position.
			if d := series.DTW(qs, s, window, lim, &lb.rows); d <= lim {
				best.Update(d, int64(gpos))
			}
		}
	default: // NN, Approx
		best := sink.Best
		if q.Kind == NN {
			sc.table.FillED(quant, sc.qpaa, n)
		}
		r.limit = best.Distance
		r.score = func(gpos int32, s series.Series, lim float64, st *QueryStats, _ *lbScratch) {
			st.RawDistances++
			// <=, not <: the kernel abandons only above lim, so d == lim
			// is an exact tie with the best-so-far, and Best keeps the
			// lower position — a duplicate of the current answer on another
			// shard must not win or lose by arrival order.
			if d := vector.SquaredEDEarlyAbandon(qs, s, lim); d <= lim {
				best.Update(d, int64(gpos))
			}
		}
	}
	return r
}

// approximate is the body of an Approx query: every visible entry of the
// leaf under the query's summary (core.Tree.BestLeafApprox) and of the
// unmerged delta pays a real distance — ED, which needs no scratch, so the
// score gets a nil lb — with no bound pass and no traversal of the rest of
// the tree. The delta is small by construction — merges keep it under the
// threshold — and scanning it keeps the answer's distance an upper bound on
// the exact answer over everything the query observed. sub marks a sharded
// sub-search (see beginQuery).
func (ix *Index) approximate(r *refiner, sc *searchScratch, v view, sub bool, tenant string, stats *QueryStats) {
	end := ix.beginQuery(sub, tenant)
	defer end()
	if leaf := v.snap.tree.BestLeafApprox(sc.qsax, sc.qpaa); leaf != nil {
		stats.ProbeLeaves = 1
		admit := func(i int) bool { return !r.f.skip(leaf.Pos[i], r.mp) }
		visit := func(i int, s series.Series) { r.score(r.mp(leaf.Pos[i]), s, r.limit(), stats, nil) }
		if ix.readBatch != nil && leaf.Raw == nil {
			// No bound pass here, but the same read discipline: the
			// visible entries of the leaf in one device-ordered batch.
			lb := ix.getLB()
			ix.coldEntries(leaf, lb, admit, visit)
			ix.putLB(lb)
		} else {
			for i := range leaf.Pos {
				if admit(i) {
					visit(i, ix.leafSeries(leaf, i))
				}
			}
		}
	}
	for i := v.snap.mergedA; i < v.aLive; i++ {
		if p := int32(ix.baseLen + i); !r.f.skip(p, r.mp) {
			r.score(r.mp(p), ix.store.At(i), r.limit(), stats, nil)
		}
	}
}
