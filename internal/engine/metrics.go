package engine

import (
	"dsidx/internal/metrics"
	"dsidx/internal/vector"
)

// RegisterMetrics wires the engine's stats into r as one metric family
// set, sampled from Stats() at scrape time. Called once per registry —
// a pool shared by N shards registers once, not per shard.
func (e *Engine) RegisterMetrics(r *metrics.Registry) {
	stat := func(f func(Stats) float64) func() float64 {
		return func() float64 { return f(e.Stats()) }
	}
	r.MustRegister(
		metrics.NewGaugeFunc(metrics.Opts{
			Name: "dsidx_engine_workers",
			Help: "Worker goroutines in the shared pool.",
		}, stat(func(s Stats) float64 { return float64(s.Workers) })),
		metrics.NewGaugeFunc(metrics.Opts{
			Name: "dsidx_engine_tasks_pending",
			Help: "Tasks queued but not yet claimed by a worker.",
		}, stat(func(s Stats) float64 { return float64(s.PendingTasks) })),
		metrics.NewGaugeFunc(metrics.Opts{
			Name: "dsidx_engine_queries_inflight",
			Help: "Queries currently admitted.",
		}, stat(func(s Stats) float64 { return float64(s.InFlight) })),
		metrics.NewGaugeFunc(metrics.Opts{
			Name: "dsidx_engine_queries_inflight_peak",
			Help: "High-water mark of admitted queries.",
		}, stat(func(s Stats) float64 { return float64(s.PeakInFlight) })),
		metrics.NewCounterFunc(metrics.Opts{
			Name: "dsidx_engine_queries_total",
			Help: "Logical queries executed since creation.",
		}, stat(func(s Stats) float64 { return float64(s.Queries) })),
		metrics.NewCounterFunc(metrics.Opts{
			Name: "dsidx_engine_tasks_total",
			Help: "Tasks executed by pool workers since creation.",
		}, stat(func(s Stats) float64 { return float64(s.Tasks) })),
		metrics.NewCounterFunc(metrics.Opts{
			Name: "dsidx_engine_admit_waits_total",
			Help: "Admissions that blocked on a full query-slot semaphore.",
		}, stat(func(s Stats) float64 { return float64(s.AdmitWaits) })),
		metrics.NewCounterFunc(metrics.Opts{
			Name: "dsidx_engine_admit_wait_seconds_total",
			Help: "Total seconds spent blocked in admission.",
		}, stat(func(s Stats) float64 { return float64(s.AdmitWaitNanos) / 1e9 })),
		metrics.NewCounterFunc(metrics.Opts{
			Name: "dsidx_engine_submit_fallbacks_total",
			Help: "Optional pool tasks dropped by a full run queue; always 0, since every task is required.",
		}, stat(func(s Stats) float64 { return float64(s.SubmitFallbacks) })),
		metrics.NewCounterFunc(metrics.Opts{
			Name: "dsidx_engine_task_panics_total",
			Help: "Pool tasks whose panic was contained at the worker boundary.",
		}, stat(func(s Stats) float64 { return float64(s.TaskPanics) })),
		metrics.NewCounterFunc(metrics.Opts{
			Name: "dsidx_engine_bg_panics_total",
			Help: "Background jobs (merges) whose panic was contained.",
		}, stat(func(s Stats) float64 { return float64(s.BgPanics) })),
		// Process-global like the pool itself: which distance-kernel
		// implementation serves queries, after CPU detection and the
		// runtime ForceScalar escape hatch.
		metrics.NewGaugeFunc(metrics.Opts{
			Name: "dsidx_vector_simd",
			Help: "Whether the SIMD distance kernels are active (1) or the scalar oracle serves queries (0).",
		}, func() float64 {
			if vector.Impl() == "scalar" {
				return 0
			}
			return 1
		}),
	)
	// Per-tenant families: one sample per tenant ever seen, labeled by the
	// opaque tenant ID. Untenanted ("") traffic never creates a sample —
	// it lives entirely in the global families above.
	tstat := func(f func(TenantStat) float64) func() []metrics.LabeledValue {
		return func() []metrics.LabeledValue {
			ts := e.TenantStats()
			out := make([]metrics.LabeledValue, len(ts))
			for i, t := range ts {
				out[i] = metrics.LabeledValue{Label: t.Tenant, Value: f(t)}
			}
			return out
		}
	}
	r.MustRegister(
		metrics.NewMultiGaugeFunc(metrics.Opts{
			Name: "dsidx_tenant_in_flight",
			Help: "Queries currently admitted, per tenant.",
		}, "tenant", tstat(func(t TenantStat) float64 { return float64(t.InFlight) })),
		metrics.NewMultiGaugeFunc(metrics.Opts{
			Name: "dsidx_tenant_active_queries",
			Help: "Query branches currently executing, per tenant.",
		}, "tenant", tstat(func(t TenantStat) float64 { return float64(t.ActiveQueries) })),
		metrics.NewMultiCounterFunc(metrics.Opts{
			Name: "dsidx_tenant_queries_total",
			Help: "Logical queries executed since creation, per tenant.",
		}, "tenant", tstat(func(t TenantStat) float64 { return float64(t.Queries) })),
		metrics.NewMultiCounterFunc(metrics.Opts{
			Name: "dsidx_tenant_admit_waits_total",
			Help: "Admissions that blocked on the tenant's own gate.",
		}, "tenant", tstat(func(t TenantStat) float64 { return float64(t.AdmitWaits) })),
	)
}
