package messi

import "dsidx/internal/metrics"

// RegisterMetrics wires this index's ingest and query surfaces
// into r, with the given constant labels on every instrument (a
// sharding layer passes shard="i"; a standalone index passes none). The
// engine's families are registered separately — by the index's Registry
// for a standalone index, once for the whole pool by a sharding layer.
func (ix *Index) RegisterMetrics(r *metrics.Registry, labels ...metrics.Label) {
	lbl := func(m metrics.Metric) metrics.Metric {
		if len(labels) == 0 {
			return m
		}
		return metrics.WithLabels(m, labels...)
	}
	ing := func(f func(IngestStats) float64) func() float64 {
		return func() float64 { return f(ix.IngestStats()) }
	}
	r.MustRegister(
		lbl(metrics.NewCounterFunc(metrics.Opts{
			Name: "dsidx_ingest_appended_total",
			Help: "Series accepted by Append/AppendBatch since creation or load.",
		}, ing(func(s IngestStats) float64 { return float64(s.Appended) }))),
		lbl(metrics.NewGaugeFunc(metrics.Opts{
			Name: "dsidx_ingest_pending",
			Help: "Appended series not yet merged into the tree (delta-buffer size).",
		}, ing(func(s IngestStats) float64 { return float64(s.Pending) }))),
		lbl(metrics.NewGaugeFunc(metrics.Opts{
			Name: "dsidx_ingest_merged",
			Help: "Appended series the tree snapshot covers.",
		}, ing(func(s IngestStats) float64 { return float64(s.Merged) }))),
		lbl(metrics.NewCounterFunc(metrics.Opts{
			Name: "dsidx_ingest_merges_total",
			Help: "Completed merge cycles.",
		}, ing(func(s IngestStats) float64 { return float64(s.Merges) }))),
		lbl(metrics.NewCounterFunc(metrics.Opts{
			Name: "dsidx_ingest_snapshot_swaps_total",
			Help: "Tree snapshots atomically installed by merges.",
		}, ing(func(s IngestStats) float64 { return float64(s.SnapshotSwaps) }))),
		lbl(metrics.NewGaugeFunc(metrics.Opts{
			Name: "dsidx_ingest_merge_threshold",
			Help: "Delta size that triggers a background merge.",
		}, ing(func(s IngestStats) float64 { return float64(s.MergeThreshold) }))),
		lbl(metrics.NewCounterFunc(metrics.Opts{
			Name: "dsidx_index_queries_total",
			Help: "Searches served by this index (sub-searches for a sharded index).",
		}, func() float64 { return float64(ix.searches.Load()) })),
		lbl(ix.queryDur),
	)
}

// Registry returns the index's metrics registry — engine families plus
// this index's ingest/query families — built on first call.
func (ix *Index) Registry() *metrics.Registry {
	ix.regOnce.Do(func() {
		ix.reg = metrics.NewRegistry()
		ix.eng.RegisterMetrics(ix.reg)
		ix.RegisterMetrics(ix.reg)
	})
	return ix.reg
}
