package dsidx

import (
	"context"

	"dsidx/internal/core"
	"dsidx/internal/engine"
	"dsidx/internal/messi"
	"dsidx/internal/metrics"
	"dsidx/internal/series"
)

// queryBackend is the index under a public one: *messi.Index under MESSI,
// *shard.Sharded under Sharded. Both answer every query kind through one
// Query entry and share the admission, write and stats surface, so the
// public methods over them are written once, on index.
type queryBackend interface {
	Query(q messi.Query) ([]core.Result, *messi.QueryStats, error)
	BatchSearchStats(qs []series.Series) ([]core.Result, []messi.QueryStats, error)
	AdmitTenantContext(ctx context.Context, tenant string) (release func(), err error)
	MaxInFlight() int

	Append(s series.Series) (int, error)
	AppendBatch(ss []series.Series) (int, error)
	AppendWithTTL(s series.Series, deadline int64) (int, error)
	Flush()
	Delete(pos int) (bool, error)
	DeleteRange(lo, hi int) (int, error)
	SetTTL(pos int, deadline int64) error
	ExpireBefore(now int64) int
	Compact()
	Close()
	Encode() []byte

	Count() int
	Tombstoned() int
	Live() int
	IngestStats() messi.IngestStats
	EngineStats() engine.Stats
	TenantStats() []engine.TenantStat
	Registry() *metrics.Registry
}

// index is the surface MESSI and Sharded share, embedded in both so its
// methods are theirs. On a Sharded index every position is global (base
// collection order, then appends in arrival order), every query scatters to
// all shards with one shared best-so-far, and the worker pool and admission
// budget are the one all shards share.
type index struct {
	b queryBackend
}

// Search returns the exact nearest neighbor of q under Euclidean distance.
func (x *index) Search(q Series) (Match, error) { return x.one(QueryRequest{Query: q}, 0) }

// SearchWithWorkers is Search with an explicit worker count (per shard on a
// Sharded index), for scaling studies. The calling goroutine counts as one
// of them: workers = 1 runs the whole search on it.
func (x *index) SearchWithWorkers(q Series, workers int) (Match, error) {
	return x.one(QueryRequest{Query: q}, workers)
}

// SearchKNN returns the exact k nearest neighbors of q in ascending
// distance order; k ≤ 0 returns none.
func (x *index) SearchKNN(q Series, k int) ([]Match, error) {
	return x.run(QueryRequest{Query: q, Kind: QueryKNN, K: k}, 0)
}

// SearchDTW returns the exact nearest neighbor of q under dynamic time
// warping with a Sakoe-Chiba band of half-width window, answered on the
// same index with no rebuild (paper §V).
func (x *index) SearchDTW(q Series, window int) (Match, error) {
	return x.one(QueryRequest{Query: q, Kind: QueryDTW, Window: window}, 0)
}

// SearchApproximate returns the iSAX approximate answer, in microseconds:
// the best series in the one leaf that best matches the query's summary
// (on every shard) and in the unmerged appends. Its distance is an
// upper bound on the exact answer's distance.
func (x *index) SearchApproximate(q Series) (Match, error) {
	return x.one(QueryRequest{Query: q, Kind: QueryApprox}, 0)
}

// SearchWindow returns the exact nearest neighbor of q among the most
// recent n appended-or-built series — a sliding-window query. The window is
// a consistent suffix captured at call time: series landing mid-query are
// invisible, deleted series are skipped, and a window wider than everything
// landed degenerates to Search.
func (x *index) SearchWindow(q Series, n int) (Match, error) {
	return x.one(QueryRequest{Query: q, Kind: QueryWindowNN, LastN: n}, 0)
}

// SearchTenant is Search under an opaque tenant ID: the query is accounted
// to the tenant, and under multi-tenant load its worker share is the
// tenant's slice of the pool rather than the whole of it. Tenant "" is
// exactly Search.
func (x *index) SearchTenant(q Series, tenant string) (Match, error) {
	return x.one(QueryRequest{Query: q, Tenant: tenant}, 0)
}

// SearchKNNTenant is SearchKNN under an opaque tenant ID.
func (x *index) SearchKNNTenant(q Series, k int, tenant string) ([]Match, error) {
	return x.run(QueryRequest{Query: q, Kind: QueryKNN, K: k, Tenant: tenant}, 0)
}

// SearchDTWTenant is SearchDTW under an opaque tenant ID.
func (x *index) SearchDTWTenant(q Series, window int, tenant string) (Match, error) {
	return x.one(QueryRequest{Query: q, Kind: QueryDTW, Window: window, Tenant: tenant}, 0)
}

// SearchApproximateTenant is SearchApproximate under an opaque tenant ID.
func (x *index) SearchApproximateTenant(q Series, tenant string) (Match, error) {
	return x.one(QueryRequest{Query: q, Kind: QueryApprox, Tenant: tenant}, 0)
}

// SearchWindowTenant is SearchWindow under an opaque tenant ID.
func (x *index) SearchWindowTenant(q Series, n int, tenant string) (Match, error) {
	return x.one(QueryRequest{Query: q, Kind: QueryWindowNN, LastN: n, Tenant: tenant}, 0)
}

// one answers a request whose kind has a single match: that match, or the
// no-answer match (-1, +Inf) when the query failed.
func (x *index) one(req QueryRequest, workers int) (Match, error) {
	ms, err := x.run(req, workers)
	if len(ms) == 0 {
		return matchOf(core.NoResult()), err
	}
	return ms[0], err
}

// BatchSearch answers one exact 1-NN query per element of qs, running them
// concurrently on the shared worker pool under admission control. The
// result at index i answers qs[i]. Results are identical to issuing each
// query through Search serially.
func (x *index) BatchSearch(qs []Series) ([]Match, error) {
	ms, _, err := x.BatchSearchStats(qs)
	return ms, err
}

// BatchSearchStats is BatchSearch additionally returning each query's work
// stats (merged across shards on a Sharded index), so batched workloads can
// report pruning ratios the same way single-query experiments do. stats[i]
// describes the query that produced results[i].
func (x *index) BatchSearchStats(qs []Series) ([]Match, []SearchStats, error) {
	rs, sts, err := x.b.BatchSearchStats(qs)
	stats := make([]SearchStats, len(sts))
	for i, st := range sts {
		stats[i] = statsFromQuery(st)
	}
	return matchesOf(rs), stats, err
}

// Append adds one series to the serving index and returns its position
// (positions continue past the build-time collection, in arrival order; a
// Sharded index routes the series to one shard by its policy). The series
// becomes visible to queries before Append returns; a background merge
// folds it into the index tree later. Safe for concurrent use with queries,
// other appends, Flush, Save and Close. A series of the wrong length, or
// holding a NaN or an infinity, is refused with an error and lands nothing.
func (x *index) Append(s Series) (int, error) { return x.b.Append(s) }

// AppendBatch adds a batch of series at consecutive positions, returning
// the position of the first, or lands none if Append would refuse one. The
// batch becomes visible atomically (across all shards): a query sees none
// or all of it.
func (x *index) AppendBatch(ss []Series) (int, error) { return x.b.AppendBatch(ss) }

// Flush synchronously merges every series appended before the call into
// the index tree (every shard's). Queries do not require it — unmerged
// series are already searched exactly — so Flush is about merge timing
// (e.g. before Save, or to bound per-query delta-scan cost ahead of a
// traffic spike).
func (x *index) Flush() { x.b.Flush() }

// Delete removes the series at position pos from every future search: it
// is tombstoned immediately (no search flavor can return it from the
// moment Delete returns) and physically dropped from the tree by the next
// merge or Compact. Positions are never reused. Reports whether this call
// newly deleted it; deleting a deleted position is a no-op.
func (x *index) Delete(pos int) (bool, error) { return x.b.Delete(pos) }

// DeleteRange deletes every series at positions [lo, hi), returning how
// many this call newly deleted. The range must lie within [0, Len()].
func (x *index) DeleteRange(lo, hi int) (int, error) { return x.b.DeleteRange(lo, hi) }

// AppendWithTTL is Append with an expiry deadline attached: once a later
// ExpireBefore(now) observes now at or past the deadline, the series is
// deleted exactly as by Delete. Deadlines are opaque int64s — wall-clock
// nanoseconds, a logical epoch, whatever the caller's clock produces; the
// index never reads a clock itself.
func (x *index) AppendWithTTL(s Series, deadline int64) (int, error) {
	return x.b.AppendWithTTL(s, deadline)
}

// SetTTL sets (or replaces) the expiry deadline on the series at position
// pos; a deadline already past still requires an ExpireBefore call to take
// effect.
func (x *index) SetTTL(pos int, deadline int64) error { return x.b.SetTTL(pos, deadline) }

// ExpireBefore deletes every series whose TTL deadline is at or before
// now, returning how many it newly deleted. The caller owns the clock:
// call it from a ticker for wall-clock TTLs, or at logical epoch
// boundaries.
func (x *index) ExpireBefore(now int64) int { return x.b.ExpireBefore(now) }

// Tombstoned counts deleted (or expired) series; Live counts the rest.
// Len stays the full position space: Len() == Live() + Tombstoned().
func (x *index) Tombstoned() int { return x.b.Tombstoned() }

// Live counts landed-and-not-deleted series.
func (x *index) Live() int { return x.b.Live() }

// Compact synchronously flushes pending appends and rebuilds the index
// tree (every shard's) without its tombstoned entries, reclaiming their
// tree residency. Searches never require it — tombstoned series are
// filtered either way — and it is safe to call concurrently with queries
// and appends.
func (x *index) Compact() { x.b.Compact() }

// Len returns the number of indexed series, including live appends.
func (x *index) Len() int { return x.b.Count() }

// Close stops the index's worker pool. It is idempotent and safe to call
// with queries in flight; queries issued after Close still answer
// correctly, executing serially on the calling goroutine.
func (x *index) Close() { x.b.Close() }

// IngestStats snapshots the write path's counters, summed over shards on a
// Sharded index (MergeThreshold is then the per-shard threshold).
func (x *index) IngestStats() IngestStats { return IngestStats(x.b.IngestStats()) }

// EngineStats snapshots the worker pool's counters — on a Sharded index the
// one pool all shards share, so already the aggregate view. Sample it
// periodically to derive throughput.
func (x *index) EngineStats() EngineStats { return engineStatsOf(x.b.EngineStats()) }

// TenantStats snapshots every tenant ever seen, sorted by ID; untenanted
// traffic never appears. Empty until the first tenanted call.
func (x *index) TenantStats() []TenantStats { return tenantStatsOf(x.b.TenantStats()) }
