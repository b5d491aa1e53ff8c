package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/series"
	"dsidx/internal/xsync"
)

// ConcurrentQPS measures MESSI multi-query throughput on the shared worker
// pool: a fixed stream of queries is answered with 1, 4 and 16 in flight
// (the paper has no such figure — its evaluation is one-query-at-a-time —
// so this experiment is the baseline for the serving-engine extension).
// Expected shape: single-query latency is roughly flat across the sweep
// while QPS grows with in-flight queries until the pool saturates, because
// one query cannot keep every core busy through its serial sections and
// list-drain tail.
func ConcurrentQPS(cfg Config) (*Table, error) {
	cfg = cfg.Normalize()
	w := newWorkload(cfg, gen.Synthetic)
	ix, err := messi.Build(w.coll, core.Config{LeafCapacity: leafCapacity},
		messi.Options{Workers: cfg.MaxCores, MaxInFlight: maxInt(cfg.InFlightAxis)})
	if err != nil {
		return nil, fmt.Errorf("concurrent: %w", err)
	}
	defer ix.Close()

	t := &Table{
		ID:    "concurrent",
		Title: "MESSI multi-query throughput vs in-flight queries (shared pool)",
	}
	qps := make([]float64, 0, len(cfg.InFlightAxis))
	lat := make([]float64, 0, len(cfg.InFlightAxis))
	for _, p := range cfg.InFlightAxis {
		t.Columns = append(t.Columns, fmt.Sprintf("%d in-flight", p))
		// Enough queries per setting that the slowest in-flight level still
		// cycles the pool several times.
		total := max(4*p, 4*cfg.QueryCount)
		elapsed, err := runConcurrent(ix, w.queries, p, total)
		if err != nil {
			return nil, fmt.Errorf("concurrent@%d: %w", p, err)
		}
		qps = append(qps, float64(total)/elapsed.Seconds())
		lat = append(lat, millis(elapsed)/float64(total)*float64(p))
	}
	t.AddRow("throughput [queries/s]", qps...)
	t.AddRow("mean query latency [ms]", lat...)
	st := ix.EngineStats()
	t.Note("shared pool: %d workers, %d tasks executed, peak %d queries in flight",
		st.Workers, st.Tasks, st.PeakInFlight)
	t.Note("expected: latency ~flat across the sweep, QPS grows until the pool saturates")
	return t, nil
}

// runConcurrent answers total queries with exactly inflight query
// goroutines sharing the index's pool, returning the wall time. It
// measures through the searchIndex surface, so plain and sharded indexes
// run the identical harness.
func runConcurrent(ix searchIndex, queries *series.Collection, inflight, total int) (time.Duration, error) {
	var cursor xsync.Counter
	errs := make([]error, inflight)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < inflight; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := int(cursor.Next())
				if i >= total {
					return
				}
				// Admission fails only when its context is done, and this one never is.
				release, _ := ix.AdmitTenantContext(context.TODO(), "")
				_, _, err := ix.Search(queries.At(i%queries.Len()), 0)
				release()
				if err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// maxInt returns the largest element (0 for an empty slice).
func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
