package shard

import (
	"dsidx/internal/messi"
	"dsidx/internal/metrics"
)

// ShardAppends returns the number of live appends routed to shard si so
// far (the published cut), independent of merge progress.
func (s *Sharded) ShardAppends(si int) int {
	return int((*s.cuts.Load())[si])
}

// ShardBaseLen returns the number of build-time series placed in shard si.
func (s *Sharded) ShardBaseLen(si int) int { return len(s.baseMap[si]) }

// Registry returns the sharded index's metrics registry, built on first
// call:
//
//   - the engine's families, registered once for the whole pool
//   - every shard's ingest and query families, and its routing and fault
//     counters (series placed, appends routed, storage failures), under a
//     shard="i" label when there is more than one shard
//   - the cold tier's cache and device families — always registered, so
//     a scrape sees the full schema (zero-valued) even on an all-hot
//     build
func (s *Sharded) Registry() *metrics.Registry {
	s.regOnce.Do(func() {
		s.reg = metrics.NewRegistry()
		s.eng.RegisterMetrics(s.reg)
		s.reg.MustRegister(metrics.NewGaugeFunc(metrics.Opts{
			Name: "dsidx_shards",
			Help: "Number of shards.",
		}, func() float64 { return float64(s.n) }))
		for si := range s.n {
			s.registerShard(si)
		}
		cold := func(f func(ColdStats) float64) func() float64 {
			return func() float64 { return f(s.ColdStats()) }
		}
		s.reg.MustRegister(
			metrics.NewGaugeFunc(metrics.Opts{
				Name: "dsidx_cold_shards",
				Help: "Shards placed on the out-of-core tier.",
			}, cold(func(c ColdStats) float64 { return float64(c.ColdShards) })),
			metrics.NewCounterFunc(metrics.Opts{
				Name: "dsidx_cold_cache_hits_total",
				Help: "Block-cache hits in the cold tier.",
			}, cold(func(c ColdStats) float64 { return float64(c.Cache.Hits) })),
			metrics.NewCounterFunc(metrics.Opts{
				Name: "dsidx_cold_cache_misses_total",
				Help: "Block-cache misses (device reads triggered).",
			}, cold(func(c ColdStats) float64 { return float64(c.Cache.Misses) })),
			metrics.NewCounterFunc(metrics.Opts{
				Name: "dsidx_cold_cache_evictions_total",
				Help: "Blocks evicted from the cold tier's cache.",
			}, cold(func(c ColdStats) float64 { return float64(c.Cache.Evictions) })),
			metrics.NewGaugeFunc(metrics.Opts{
				Name: "dsidx_cold_cache_resident_bytes",
				Help: "Decoded bytes currently resident in the block cache.",
			}, cold(func(c ColdStats) float64 { return float64(c.Cache.ResidentBytes) })),
			metrics.NewGaugeFunc(metrics.Opts{
				Name: "dsidx_cold_cache_budget_bytes",
				Help: "Configured block-cache budget.",
			}, cold(func(c ColdStats) float64 { return float64(c.Cache.CacheBytes) })),
			metrics.NewCounterFunc(metrics.Opts{
				Name: "dsidx_cold_device_reads_total",
				Help: "Read operations issued to the cold device.",
			}, cold(func(c ColdStats) float64 { return float64(c.Device.ReadOps) })),
			metrics.NewCounterFunc(metrics.Opts{
				Name: "dsidx_cold_device_read_bytes_total",
				Help: "Bytes read from the cold device.",
			}, cold(func(c ColdStats) float64 { return float64(c.Device.BytesRead) })),
			metrics.NewCounterFunc(metrics.Opts{
				Name: "dsidx_cold_device_seeks_total",
				Help: "Non-sequential reads charged seek latency.",
			}, cold(func(c ColdStats) float64 { return float64(c.Device.Seeks) })),
			metrics.NewCounterFunc(metrics.Opts{
				Name: "dsidx_cold_device_read_busy_seconds_total",
				Help: "Modeled device time spent serving reads.",
			}, cold(func(c ColdStats) float64 { return c.Device.ReadBusy.Seconds() })),
			metrics.NewCounterFunc(metrics.Opts{
				Name: "dsidx_cold_retries_total",
				Help: "Transient cold-read faults retried by the block loaders.",
			}, cold(func(c ColdStats) float64 { return float64(c.Cache.Retries) })),
			metrics.NewCounterFunc(metrics.Opts{
				Name: "dsidx_cold_faults_transient_total",
				Help: "Cold block loads that failed after exhausting transient retries.",
			}, cold(func(c ColdStats) float64 { return float64(c.Cache.TransientFaults) })),
			metrics.NewCounterFunc(metrics.Opts{
				Name: "dsidx_cold_faults_permanent_total",
				Help: "Cold block loads that failed with a permanent device error.",
			}, cold(func(c ColdStats) float64 { return float64(c.Cache.PermanentFaults) })),
		)
	})
	return s.reg
}

// registerShard registers shard si's families.
func (s *Sharded) registerShard(si int) {
	labels := s.shardLabels(si)
	counter := func(name, help string, fn func() float64) metrics.Metric {
		return metrics.NewCounterFunc(metrics.Opts{Name: name, Help: help, Labels: labels}, fn)
	}
	gauge := func(name, help string, fn func() float64) metrics.Metric {
		return metrics.NewGaugeFunc(metrics.Opts{Name: name, Help: help, Labels: labels}, fn)
	}
	ing := func(f func(messi.IngestStats) float64) func() float64 {
		return func() float64 { return f(s.shards[si].IngestStats()) }
	}
	h := &s.health[si]
	s.reg.MustRegister(
		counter("dsidx_ingest_appended_total", "Series accepted by Append/AppendBatch since creation or load.",
			ing(func(st messi.IngestStats) float64 { return float64(st.Appended) })),
		gauge("dsidx_ingest_pending", "Appended series not yet merged into the tree (delta-buffer size).",
			ing(func(st messi.IngestStats) float64 { return float64(st.Pending) })),
		gauge("dsidx_ingest_merged", "Appended series the tree snapshot covers.",
			ing(func(st messi.IngestStats) float64 { return float64(st.Merged) })),
		counter("dsidx_ingest_merges_total", "Completed merge cycles.",
			ing(func(st messi.IngestStats) float64 { return float64(st.Merges) })),
		counter("dsidx_ingest_snapshot_swaps_total", "Tree snapshots atomically installed by merges.",
			ing(func(st messi.IngestStats) float64 { return float64(st.SnapshotSwaps) })),
		gauge("dsidx_ingest_merge_threshold", "Delta size that triggers a background merge.",
			ing(func(st messi.IngestStats) float64 { return float64(st.MergeThreshold) })),
		counter("dsidx_index_queries_total", "Sub-searches the shard ran, one per query that reached it.",
			func() float64 { return float64(h.searches.Load()) }),
		h.queryDur,
		gauge("dsidx_shard_base_series", "Build-time series placed in the shard.",
			func() float64 { return float64(s.ShardBaseLen(si)) }),
		counter("dsidx_shard_appends_total", "Live appends routed to the shard.",
			func() float64 { return float64(s.ShardAppends(si)) }),
		counter("dsidx_shard_failures_total", "Queries the shard failed with a storage-classified error.",
			func() float64 { return float64(h.failures.Load()) }),
	)
}
