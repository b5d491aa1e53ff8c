package dsidx

import (
	"net/http"
	"time"

	"dsidx/internal/metrics"
	"dsidx/internal/vector"
)

// Observability: every index keeps its throughput, ingestion, cache and
// tuning counters behind two complementary surfaces. Metrics() returns a
// one-call structured snapshot for programmatic use; MetricsHandler
// exposes the same counters in Prometheus text exposition format for
// scraping. Both are pull-based reads of counters the hot paths already
// maintain — neither adds per-query work.

// MetricsSource is an index that can expose its metrics registry: MESSI
// and Sharded implement it. The registry is built lazily on first use and
// lives for the index's lifetime, so handler scrapes are cheap reads.
type MetricsSource interface {
	metricsRegistry() *metrics.Registry
}

// A MESSI scrape is its one shard's: the engine and index families with no
// shard label. A Sharded scrape adds the per-shard and cold-tier families.
func (ix *MESSI) metricsRegistry() *metrics.Registry  { return ix.s.Shard(0).Registry() }
func (s *Sharded) metricsRegistry() *metrics.Registry { return s.s.Registry() }

// VectorImpl reports the distance-kernel implementation that will serve
// the next query: "avx2" on amd64 CPUs where startup feature detection
// found AVX2 support (and ForceScalarKernels is off), "scalar" on every
// other CPU, on builds with the purego build tag, and under
// ForceScalarKernels(true). The implementations are bit-identical, so
// this is a throughput property, never a correctness one.
func VectorImpl() string { return vector.Impl() }

// ForceScalarKernels is the runtime escape hatch for the SIMD distance
// kernels: ForceScalarKernels(true) routes every subsequent kernel call
// to the pure-Go scalar implementation even where AVX2 was detected;
// ForceScalarKernels(false) restores detection's choice. Safe to toggle
// while queries are in flight — answers are bit-identical either way.
// Process-global, like the CPU it describes.
func ForceScalarKernels(v bool) { vector.ForceScalar(v) }

// MetricsHandler returns an http.Handler serving src's metrics in
// Prometheus text exposition format (version 0.0.4). Mount it wherever
// the scraper looks:
//
//	http.Handle("/metrics", dsidx.MetricsHandler(idx))
//
// The handler is safe for concurrent scrapes while the index serves
// queries and ingests appends.
func MetricsHandler(src MetricsSource) http.Handler {
	return src.metricsRegistry().Handler()
}

// ShardStats reports one shard's routing counters.
type ShardStats struct {
	// Shard is the shard number.
	Shard int
	// BaseSeries is the number of build-time series placed in the shard.
	BaseSeries int
	// Appends is the number of live appends routed to the shard.
	Appends int
}

// ColdTierStats reports the out-of-core tier's cache and device counters;
// the zero value when every shard is hot (or the index is not sharded).
type ColdTierStats struct {
	// ColdShards is the number of shards placed on the cold tier.
	ColdShards int
	// Block-cache counters: hits, misses (each a device read), blocks
	// evicted, decoded bytes resident, and the configured budget.
	CacheHits          uint64
	CacheMisses        uint64
	CacheEvictions     uint64
	CacheResidentBytes int64
	CacheBudgetBytes   int64
	// Device counters: read operations, bytes read, non-sequential reads
	// charged seek latency, and modeled device time serving reads.
	DeviceReads     int64
	DeviceBytesRead int64
	DeviceSeeks     int64
	DeviceReadBusy  time.Duration
}

// Metrics is a structured snapshot of every counter surface an index
// maintains, taken in one call. Each section is individually consistent
// (see its type's documentation); sections are sampled back to back, not
// under one global lock.
type Metrics struct {
	Engine EngineStats
	Ingest IngestStats
	// VectorImpl is the distance-kernel implementation serving queries:
	// "avx2" on amd64 CPUs where startup detection found AVX2 (and the
	// ForceScalar escape hatch is off), "scalar" everywhere else. The
	// two implementations are bit-identical, so this changes throughput,
	// never answers.
	VectorImpl string
	// Shards has one entry per shard for a sharded index, nil for MESSI.
	Shards []ShardStats
	// Cold is the out-of-core tier's counters; zero when all-hot.
	Cold ColdTierStats
}

// Metrics snapshots all of the index's counter surfaces in one call.
func (x *index) Metrics() Metrics {
	return Metrics{
		Engine:     x.EngineStats(),
		Ingest:     x.IngestStats(),
		VectorImpl: vector.Impl(),
	}
}

// Metrics snapshots all of the sharded index's counter surfaces in one
// call, per-shard routing counters and the cold tier included.
func (s *Sharded) Metrics() Metrics {
	m := s.index.Metrics()
	m.Shards = make([]ShardStats, s.Shards())
	for si := range m.Shards {
		m.Shards[si] = ShardStats{
			Shard:      si,
			BaseSeries: s.s.ShardBaseLen(si),
			Appends:    s.s.ShardAppends(si),
		}
	}
	cold := s.s.ColdStats()
	m.Cold = ColdTierStats{
		ColdShards:         cold.ColdShards,
		CacheHits:          cold.Cache.Hits,
		CacheMisses:        cold.Cache.Misses,
		CacheEvictions:     cold.Cache.Evictions,
		CacheResidentBytes: cold.Cache.ResidentBytes,
		CacheBudgetBytes:   cold.Cache.CacheBytes,
		DeviceReads:        cold.Device.ReadOps,
		DeviceBytesRead:    cold.Device.BytesRead,
		DeviceSeeks:        cold.Device.Seeks,
		DeviceReadBusy:     cold.Device.ReadBusy,
	}
	return m
}
