// Package dsidx is a Go implementation of the parallel data series indexes
// of "Data Series Indexing Gone Parallel" (Peng, ICDE 2020; the
// ParIS / ParIS+ / MESSI line of work by Peng, Fatourou and Palpanas).
//
// Data series similarity search — finding the series in a large collection
// with the smallest Euclidean (or DTW) distance to a query — is the core
// operation behind clustering, classification, motif and anomaly detection
// over sequence data. This package provides:
//
//   - MESSI: a parallel in-memory iSAX index answering exact 1-NN, k-NN and
//     DTW queries in milliseconds on millions of series.
//   - ParIS and ParIS+: parallel indexes for on-disk collections, with
//     index construction pipelined against disk I/O.
//   - ADSPlus: the serial ADS+ baseline.
//   - UCR-Suite-style scans (serial and parallel) as brute-force baselines.
//   - Deterministic dataset generators for the paper's three workload
//     families, and a storage layer with simulated HDD/SSD device profiles
//     for reproducing the paper's on-disk experiments.
//
// # Quick start
//
//	coll := dsidx.Generate(dsidx.Synthetic, 100_000, 256, 42)
//	idx, err := dsidx.NewMESSI(coll)
//	if err != nil { ... }
//	defer idx.Close()
//	q := dsidx.GenerateQueries(dsidx.Synthetic, 1, 256, 42).At(0)
//	m, err := idx.Search(q)
//	fmt.Printf("nearest series: #%d at distance %.3f\n", m.Pos, m.Distance)
//
// # Concurrent queries
//
// A MESSI index owns a persistent worker pool (sized by WithWorkers) that
// every query shares: rather than one query fanning out over all cores, the
// tasks of all in-flight queries interleave on the pool, so the index
// serves many clients at once without oversubscribing the machine. All
// methods are safe for concurrent use; three idioms cover most workloads:
//
//	// Independent goroutines: just call Search concurrently.
//	go func() { m, _ := idx.Search(q1); ... }()
//	go func() { m, _ := idx.Search(q2); ... }()
//
//	// A fixed batch: one call answers qs[i] into ms[i].
//	ms, err := idx.BatchSearch(qs)
//
//	// A long-running server: stream requests in, responses out.
//	in := make(chan dsidx.QueryRequest)
//	out := idx.Serve(ctx, in)
//	in <- dsidx.QueryRequest{ID: 7, Query: q, Kind: dsidx.QueryKNN, K: 10}
//	resp := <-out // completion order; match by resp.ID
//
// BatchSearch and Serve admit at most WithMaxInFlight queries at a time
// (default 2× workers) — the backpressure that bounds scratch memory under
// bursty traffic. EngineStats exposes the pool's throughput counters.
// Concurrency changes only scheduling, never answers: every result is
// identical to the same query issued alone.
//
// # Live ingestion
//
// A MESSI index also accepts writes while serving: Append and AppendBatch
// add series concurrently with queries. New series land in a delta buffer
// and are summarized on arrival; queries exact-scan the buffer alongside
// the tree, so every answer remains exact over everything the query
// observed. Once the buffer reaches WithMergeThreshold series, a
// background merge (on the same worker pool) folds it into the tree
// without blocking readers. Flush forces a merge; IngestStats reports the
// pending/merged split; Save persists the buffer so no append is lost.
//
//	pos, err := idx.Append(s)        // visible to queries on return
//	m, err := idx.Search(s)          // finds it, merged or not
//	idx.Flush()                      // optional: fold the delta in now
//
// # Sharding
//
// NewSharded partitions the collection across N independent MESSI shards
// (WithShards, WithShardPolicy) that answer as one index: queries scatter
// to every shard with a single shared best-so-far — a tight bound found on
// one shard prunes the others mid-flight — and gather answers in the
// collection's global position space, so results are identical to the
// unsharded index. All shards share one worker pool and one admission
// budget; appends route by policy and publish one consistent cross-shard
// cut. A MESSI is the one-shard case of the same index: its one sub-search
// runs on the calling goroutine. Both persist as a DSS1 manifest over the
// per-shard files (Save / LoadMESSI / OpenSharded); LoadMESSI opens a
// one-shard manifest, OpenSharded any, and both open the single-index files
// a MESSI saved before it was a one-shard Sharded.
//
//	s, err := dsidx.NewSharded(coll, dsidx.WithShards(4))
//	m, err := s.Search(q)            // same answer as the unsharded index
//
// All distances returned through this package are true (not squared)
// distances. Search, SearchKNN and SearchDTW are exact: they return
// provably the nearest series. Only the explicitly named
// SearchApproximate methods trade that guarantee for microsecond
// latencies.
package dsidx

import (
	"math"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/series"
	"dsidx/internal/storage"
)

// Series is a single data series: an ordered sequence of float32 values.
type Series = series.Series

// Collection is a contiguous in-memory set of equal-length series.
type Collection = series.Collection

// NewCollection allocates a collection of n series of the given length.
func NewCollection(n, length int) *Collection { return series.NewCollection(n, length) }

// CollectionFromValues wraps a flat value slice (length must divide it).
func CollectionFromValues(values []float32, length int) (*Collection, error) {
	return series.CollectionFromValues(values, length)
}

// Match is a search answer: the position of the matching series in its
// collection and its true (unsquared) distance to the query.
type Match struct {
	Pos      int
	Distance float64
}

// matchOf converts an internal squared-distance result.
func matchOf(r core.Result) Match {
	return Match{Pos: int(r.Pos), Distance: math.Sqrt(r.Dist)}
}

// answerOf converts a 1-NN answer, dropping the work stats of whichever
// index gave it.
func answerOf[S any](r core.Result, _ S, err error) (Match, error) { return matchOf(r), err }

// matchesOf converts a slice of internal results.
func matchesOf(rs []core.Result) []Match {
	out := make([]Match, len(rs))
	for i, r := range rs {
		out[i] = matchOf(r)
	}
	return out
}

// DatasetKind selects one of the paper's dataset families.
type DatasetKind = gen.Kind

// Dataset families (paper §IV): Synthetic is a random walk; SALD and
// Seismic are synthetic stand-ins for the EEG and seismology collections.
const (
	Synthetic = gen.Synthetic
	SALD      = gen.SALD
	Seismic   = gen.Seismic
)

// Generate deterministically produces n series of the given kind and
// length (length 0 uses the paper's default for the family). The same
// (kind, n, length, seed) always yields the same collection.
func Generate(kind DatasetKind, n, length int, seed int64) *Collection {
	return gen.Generator{Kind: kind, Length: length, Seed: seed}.Collection(n)
}

// GenerateQueries produces n query series from the same family but disjoint
// from any Generate output with the same seed.
func GenerateQueries(kind DatasetKind, n, length int, seed int64) *Collection {
	return gen.Generator{Kind: kind, Length: length, Seed: seed}.Queries(n)
}

// GeneratePerturbedQueries produces n queries by adding relative Gaussian
// noise eps to random members of coll. Perturbed queries have a nearby
// nearest neighbor, reproducing on small collections the pruning regime
// that dense, very large collections exhibit naturally — use them for
// benchmark workloads (see DESIGN.md).
func GeneratePerturbedQueries(coll *Collection, n int, eps float64, seed int64) *Collection {
	return gen.Generator{Seed: seed}.PerturbedQueries(coll, n, eps)
}

// Windows extracts every window of the given length from a long recording,
// advancing by step points and optionally z-normalizing each window — how
// streaming series become indexable collections (paper §II: "for streaming
// series, we create and index subsequences of length n using a sliding
// window"). It returns the windows and each window's start offset in s.
func Windows(s Series, length, step int, znormalize bool) (*Collection, []int, error) {
	return series.Windows(s, length, step, znormalize)
}

// IndexStats describes the shape of a built index tree.
type IndexStats struct {
	Series      int
	RootNodes   int
	InnerNodes  int
	Leaves      int
	MaxDepth    int
	LeafFillAvg float64
}

func statsOf(t *core.Tree) IndexStats {
	st := t.Stats()
	return IndexStats{
		Series:      st.Series,
		RootNodes:   st.RootNodes,
		InnerNodes:  st.Inner,
		Leaves:      st.Leaves,
		MaxDepth:    st.MaxDepth,
		LeafFillAvg: st.FillAvg,
	}
}

// options collects tunables shared by every index constructor.
type options struct {
	segments       int
	maxBits        int
	leafCapacity   int
	workers        int
	batchSeries    int
	maxInFlight    int
	mergeThreshold int
	shards         int
	shardPolicy    ShardPolicy
	shardPolicySet bool
}

// Option customizes index construction.
type Option func(*options)

// WithSegments sets the number of PAA/iSAX segments (default 16, the
// paper's w). The series length must be a multiple of it.
func WithSegments(w int) Option { return func(o *options) { o.segments = w } }

// WithMaxCardinalityBits sets the maximum per-segment cardinality in bits
// (default 8, i.e. 256 regions).
func WithMaxCardinalityBits(b int) Option { return func(o *options) { o.maxBits = b } }

// WithLeafCapacity sets the maximum leaf size before splitting (default 256).
func WithLeafCapacity(c int) Option { return func(o *options) { o.leafCapacity = c } }

// WithWorkers sets the number of worker goroutines for index construction
// and (as the default) query answering. 0 means GOMAXPROCS.
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// WithBatchSeries sets the memory budget, in series, of each ParIS
// bulk-loading cycle (default 65536).
func WithBatchSeries(n int) Option { return func(o *options) { o.batchSeries = n } }

// WithMaxInFlight bounds the number of queries BatchSearch and Serve admit
// simultaneously (default: 2× the worker count). Each admitted query pins a
// pooled scratch buffer, so this is the serving engine's memory/latency
// knob: higher keeps the pool saturated under bursty traffic, lower bounds
// the working set.
func WithMaxInFlight(n int) Option { return func(o *options) { o.maxInFlight = n } }

// WithMergeThreshold sets the delta-buffer size (in series) at which a
// MESSI index schedules a background merge of live appends into its tree
// (default 4096). Queries are exact at any setting — unmerged series are
// exact-scanned — so the threshold only trades merge frequency against
// per-query delta-scan cost.
func WithMergeThreshold(n int) Option { return func(o *options) { o.mergeThreshold = n } }

func buildOptions(opts []Option) options {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// messiOptions is the one translation of the options into every MESSI
// index's configuration — built, loaded, or one shard of a Sharded index.
func (o options) messiOptions() messi.Options {
	return messi.Options{
		Workers:        o.workers,
		MaxInFlight:    o.maxInFlight,
		MergeThreshold: o.mergeThreshold,
	}
}

func (o options) coreConfig() core.Config {
	return core.Config{
		Segments:     o.segments,
		MaxBits:      o.maxBits,
		LeafCapacity: o.leafCapacity,
	}
}

// DiskProfile models a storage device's latency and bandwidth. Reads and
// writes through a DiskCollection sleep according to the profile, so
// experiments on simulated devices reproduce the cost structure of the
// paper's HDD/SSD testbed.
type DiskProfile = storage.Profile

// Predefined device profiles.
var (
	// HDD models a 7200rpm spinning disk (expensive seeks).
	HDD = storage.HDD
	// SSD models a SATA SSD (cheap random access).
	SSD = storage.SSD
	// Unthrottled injects no latency (pure functional testing).
	Unthrottled = storage.Unthrottled
)
