package shard

import (
	"strconv"

	"dsidx/internal/metrics"
	"dsidx/internal/storage"
)

// coldFaultTotals sums the fault/retry counters over every live cold
// reader: the shared build-time tier plus any re-staged per-shard readers
// (each re-stage stands up its own). The shared reader appears once even
// though many shards point at it.
func (s *Sharded) coldFaultTotals() (retries, transient, permanent uint64) {
	seen := make(map[*storage.DiskReader]bool)
	add := func(r *storage.DiskReader) {
		if r == nil || seen[r] {
			return
		}
		seen[r] = true
		st := r.Stats()
		retries += st.Retries
		transient += st.TransientFaults
		permanent += st.PermanentFaults
	}
	if s.cold != nil {
		add(s.cold.shared.reader)
		for _, cp := range s.cold.parts {
			if cp != nil {
				add(cp.src.Load().reader)
			}
		}
	}
	return retries, transient, permanent
}

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
//   - the shared engine's families, registered once for the whole pool
//   - every shard's ingest/query families under a shard="i" label
//   - per-shard routing counters (series placed, appends routed)
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
		for si := 0; si < s.n; si++ {
			si := si
			label := metrics.Label{Key: "shard", Value: strconv.Itoa(si)}
			s.shards[si].RegisterMetrics(s.reg, label)
			s.reg.MustRegister(
				metrics.NewGaugeFunc(metrics.Opts{
					Name:   "dsidx_shard_base_series",
					Help:   "Build-time series placed in the shard.",
					Labels: []metrics.Label{label},
				}, func() float64 { return float64(s.ShardBaseLen(si)) }),
				metrics.NewCounterFunc(metrics.Opts{
					Name:   "dsidx_shard_appends_total",
					Help:   "Live appends routed to the shard.",
					Labels: []metrics.Label{label},
				}, func() float64 { return float64(s.ShardAppends(si)) }),
				metrics.NewGaugeFunc(metrics.Opts{
					Name:   "dsidx_shard_state",
					Help:   "Serving state: 0=serving, 1=quarantined, 2=restaging.",
					Labels: []metrics.Label{label},
				}, func() float64 { return float64(s.health[si].state.Load()) }),
				metrics.NewCounterFunc(metrics.Opts{
					Name:   "dsidx_shard_failures_total",
					Help:   "Queries the shard failed with a storage-classified error.",
					Labels: []metrics.Label{label},
				}, func() float64 { return float64(s.health[si].failures.Load()) }),
				metrics.NewCounterFunc(metrics.Opts{
					Name:   "dsidx_shard_quarantines_total",
					Help:   "Serving-to-quarantined transitions.",
					Labels: []metrics.Label{label},
				}, func() float64 { return float64(s.health[si].quarantines.Load()) }),
				metrics.NewCounterFunc(metrics.Opts{
					Name:   "dsidx_shard_restages_total",
					Help:   "Completed re-stages onto a fresh store.",
					Labels: []metrics.Label{label},
				}, func() float64 { return float64(s.health[si].restages.Load()) }),
			)
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
			}, func() float64 { r, _, _ := s.coldFaultTotals(); return float64(r) }),
			metrics.NewCounterFunc(metrics.Opts{
				Name: "dsidx_cold_faults_transient_total",
				Help: "Cold block loads that failed after exhausting transient retries.",
			}, func() float64 { _, t, _ := s.coldFaultTotals(); return float64(t) }),
			metrics.NewCounterFunc(metrics.Opts{
				Name: "dsidx_cold_faults_permanent_total",
				Help: "Cold block loads that failed with a permanent device error.",
			}, func() float64 { _, _, p := s.coldFaultTotals(); return float64(p) }),
		)
	})
	return s.reg
}
