package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/series"
)

// BenchHeader is the shared envelope of every machine-readable benchmark
// record dsbench writes (BENCH_*.json): the schema tag plus the workload
// and machine shape every trajectory point needs to be comparable. Records
// embed it, so each schema's JSON keys stay flat and stable — additions
// are fine, renames are not.
type BenchHeader struct {
	Schema      string `json:"schema"`
	GeneratedAt string `json:"generated_at"`
	GOMAXPROCS  int    `json:"gomaxprocs"` // cores actually available
	Workers     int    `json:"workers"`    // index worker-pool size

	SeriesCount int `json:"series_count"`
	SeriesLen   int `json:"series_len"`
	QueryCount  int `json:"query_count"`
}

// header fills the shared envelope for one workload.
func header(schema string, cfg Config, w workload) BenchHeader {
	return BenchHeader{
		Schema:      schema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Workers:     cfg.MaxCores,
		SeriesCount: w.coll.Len(),
		SeriesLen:   w.coll.SeriesLen(),
		QueryCount:  w.queries.Len(),
	}
}

// machineBoundNote is the caveat stamped on every bench record.
const machineBoundNote = "absolute numbers are machine-bound; compare points generated " +
	"on the same hardware (see EXPERIMENTS.md)"

// QueryBenchResult is the machine-readable query-performance record
// dsbench -benchjson writes (BENCH_query.json): one trajectory point of
// the hot-path numbers tracked across PRs.
type QueryBenchResult struct {
	BenchHeader
	// ProbeLeaves is the leaves each exact query probes to seed its
	// best-so-far: 1, the paper's single probe. Trajectory points that
	// read 2 were recorded with two probes per query.
	ProbeLeaves int `json:"probe_leaves"`

	// NsPerQuery is single-stream mean exact-query latency; QPSByInflight
	// is throughput with 1/4/16 (or the configured axis) queries in
	// flight on the shared pool.
	NsPerQuery    float64            `json:"ns_per_query"`
	QPSByInflight map[string]float64 `json:"qps_by_inflight"`

	// Per-query pruning means, from QueryStats: raw distances paid and
	// lower bounds computed per exact query.
	RawDistancesPerQuery   float64 `json:"raw_distances_per_query"`
	EntriesCheckedPerQuery float64 `json:"entries_checked_per_query"`

	// DeleteRate and Tombstoned describe the -deleterate mode: the
	// requested tombstone fraction and the positions actually deleted
	// (evenly spaced, left uncompacted so the measured path is the
	// tombstone-filtered search). Zero for the delete-free baseline.
	DeleteRate float64 `json:"delete_rate,omitempty"`
	Tombstoned int     `json:"tombstoned,omitempty"`

	Note string `json:"note,omitempty"`
}

// searchIndex is the measurement surface shared by a plain index and a
// sharded one: admission-controlled exact search. Both runConcurrent and
// the bench runners measure through it, so the sharded benchmark reuses
// the query benchmark's machinery instead of duplicating it.
type searchIndex interface {
	AdmitTenantContext(ctx context.Context, tenant string) (release func(), err error)
	Search(q series.Series, workers int) (core.Result, *messi.QueryStats, error)
}

// RunQueryBench builds a MESSI index over the configured workload and
// measures the exact-query hot path: latency, the in-flight throughput
// sweep, and the mean pruning stats. It is the programmatic form of the
// dsbench -benchjson flag and the CI bench-smoke step.
func RunQueryBench(cfg Config) (*QueryBenchResult, error) {
	cfg = cfg.Normalize()
	w := newWorkload(cfg, gen.Synthetic)
	ix, err := messi.Build(w.coll, core.Config{LeafCapacity: leafCapacity},
		messi.Options{Workers: cfg.MaxCores, MaxInFlight: maxInt(cfg.InFlightAxis)})
	if err != nil {
		return nil, fmt.Errorf("benchjson: %w", err)
	}
	defer ix.Close()

	// -deleterate mode: tombstone an evenly spaced fraction of the
	// collection, left uncompacted, so the sweep below measures the
	// tombstone-filtered search path under a realistic delete spread.
	tombstoned := 0
	if cfg.DeleteRate > 0 {
		k := int(cfg.DeleteRate * float64(w.coll.Len()))
		for i := 0; i < k; i++ {
			newly, err := ix.Delete(i * w.coll.Len() / k)
			if err != nil {
				return nil, fmt.Errorf("benchjson: deleterate: %w", err)
			}
			if newly {
				tombstoned++
			}
		}
	}

	qs := make([]series.Series, w.queries.Len())
	for i := range qs {
		qs[i] = w.queries.At(i)
	}
	// Warm pools and stats in one pass, collecting the pruning profile.
	_, stats, err := ix.BatchSearchStats(qs)
	if err != nil {
		return nil, fmt.Errorf("benchjson: %w", err)
	}
	var raw, entries int
	for _, st := range stats {
		raw += st.RawDistances
		entries += st.EntriesChecked
	}

	res := &QueryBenchResult{
		BenchHeader:            header("dsidx-bench-query/v1", cfg, w),
		ProbeLeaves:            1,
		QPSByInflight:          make(map[string]float64, len(cfg.InFlightAxis)),
		RawDistancesPerQuery:   float64(raw) / float64(len(qs)),
		EntriesCheckedPerQuery: float64(entries) / float64(len(qs)),
		DeleteRate:             cfg.DeleteRate,
		Tombstoned:             tombstoned,
		Note:                   machineBoundNote,
	}

	ns, qps, err := sweepInflight(ix, w.queries, cfg.InFlightAxis, len(qs))
	if err != nil {
		return nil, fmt.Errorf("benchjson: %w", err)
	}
	res.NsPerQuery, res.QPSByInflight = ns, qps
	return res, nil
}

// sweepInflight measures throughput at each in-flight level and the
// single-stream latency (measured separately if the axis omits 1).
func sweepInflight(ix searchIndex, queries *series.Collection, axis []int, queryCount int) (nsPerQuery float64, qps map[string]float64, err error) {
	qps = make(map[string]float64, len(axis))
	for _, p := range axis {
		total := max(4*p, 2*queryCount)
		elapsed, err := runConcurrent(ix, queries, p, total)
		if err != nil {
			return 0, nil, fmt.Errorf("inflight %d: %w", p, err)
		}
		qps[fmt.Sprint(p)] = float64(total) / elapsed.Seconds()
		if p == 1 {
			nsPerQuery = float64(elapsed.Nanoseconds()) / float64(total)
		}
	}
	if nsPerQuery == 0 {
		total := 2 * queryCount
		elapsed, err := runConcurrent(ix, queries, 1, total)
		if err != nil {
			return 0, nil, fmt.Errorf("inflight 1: %w", err)
		}
		nsPerQuery = float64(elapsed.Nanoseconds()) / float64(total)
	}
	return nsPerQuery, qps, nil
}

// WriteJSON writes the record to path (kept as a method for the dsbench
// entry point; all schemas funnel through WriteBenchJSON).
func (r *QueryBenchResult) WriteJSON(path string) error { return WriteBenchJSON(path, r) }
