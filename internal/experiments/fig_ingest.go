package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/series"
)

// ingestReaders is the number of query goroutines of the mixed workload.
const ingestReaders = 4

// ingestWindow is the measured interval per append-rate setting — long
// enough that the slowest setting completes several queries and (at the
// higher rates) at least one background merge cycle.
const ingestWindow = 400 * time.Millisecond

// IngestThroughput measures serving under live writes: query throughput
// while an appender streams new series into the index at a fixed rate (the
// paper has no such figure — its indexes are built once and frozen — so
// this experiment is the baseline for the live-ingestion extension). Each
// rate setting runs on a fresh index so tree state is comparable across
// columns. Expected shape: query QPS degrades gracefully as the append
// rate grows — appends cost a summarization plus delta-buffer publication,
// and queries additionally exact-scan the unmerged delta, which background
// merges keep bounded near the merge threshold.
func IngestThroughput(cfg Config) (*Table, error) {
	cfg = cfg.Normalize()
	w := newWorkload(cfg, gen.Synthetic)

	t := &Table{
		ID:    "ingest",
		Title: "MESSI query throughput under live appends (delta buffer + background merge)",
	}
	qps := make([]float64, 0, len(cfg.AppendRates))
	aps := make([]float64, 0, len(cfg.AppendRates))
	mergesRow := make([]float64, 0, len(cfg.AppendRates))
	pendingRow := make([]float64, 0, len(cfg.AppendRates))
	threshold := 0
	for _, rate := range cfg.AppendRates {
		t.Columns = append(t.Columns, fmt.Sprintf("%d appends/s", rate))
		// Fresh series for the appender, disjoint from the built collection.
		pool := gen.Generator{Kind: gen.Synthetic, Length: w.coll.SeriesLen(), Seed: cfg.Seed + 1}.
			Collection(max(1, int(float64(rate)*ingestWindow.Seconds())+1))
		// A threshold well below rate×window makes sure the higher-rate
		// columns measure steady-state serving WITH background merges, not
		// just delta-buffer accumulation.
		ix, err := messi.Build(w.coll, core.Config{LeafCapacity: leafCapacity},
			messi.Options{Workers: cfg.MaxCores, MergeThreshold: 512})
		if err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
		queries, appends, err := runIngestMix(ix, w.queries, pool, rate, ingestWindow)
		if err != nil {
			ix.Close()
			return nil, fmt.Errorf("ingest@%d: %w", rate, err)
		}
		st := ix.IngestStats()
		threshold = st.MergeThreshold
		ix.Close()
		qps = append(qps, float64(queries)/ingestWindow.Seconds())
		aps = append(aps, float64(appends)/ingestWindow.Seconds())
		mergesRow = append(mergesRow, float64(st.Merges))
		pendingRow = append(pendingRow, float64(st.Pending))
	}
	t.AddRow("query throughput [queries/s]", qps...)
	t.AddRow("append throughput [series/s]", aps...)
	t.AddRow("merge cycles", mergesRow...)
	t.AddRow("pending at end [series]", pendingRow...)
	t.Note("%d query goroutines, %v window per setting, merge threshold %d series",
		ingestReaders, ingestWindow, threshold)
	t.Note("expected: query QPS degrades gracefully with the append rate; the delta stays bounded near the threshold")
	return t, nil
}

// runIngestMix runs the mixed read/write load for the window: ingestReaders
// goroutines issue queries back to back while one appender paces appends at
// the target rate. It returns the completed query and append counts.
func runIngestMix(ix *messi.Index, queries, pool *series.Collection, rate int, window time.Duration) (int64, int64, error) {
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	var queryCount, appendCount atomic.Int64
	errs := make([]error, ingestReaders+1)
	for g := 0; g < ingestReaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				// Admission fails only when its context is done, and this one never is.
				release, _ := ix.AdmitTenantContext(context.TODO(), "")
				_, _, err := ix.Search(queries.At(i%queries.Len()), 0)
				release()
				if err != nil {
					errs[g] = err
					return
				}
				queryCount.Add(1)
			}
		}(g)
	}
	if rate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Pace in small batches so high rates do not sleep per series.
			const tick = 5 * time.Millisecond
			perTick := max(1, int(float64(rate)*tick.Seconds()))
			batch := make([]series.Series, 0, perTick)
			next := 0
			for time.Now().Before(deadline) {
				batch = batch[:0]
				for i := 0; i < perTick && next < pool.Len(); i++ {
					batch = append(batch, pool.At(next))
					next++
				}
				if len(batch) == 0 {
					return // pool exhausted: the target rate is reached
				}
				if _, err := ix.AppendBatch(batch); err != nil {
					errs[ingestReaders] = err
					return
				}
				appendCount.Add(int64(len(batch)))
				time.Sleep(tick)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	return queryCount.Load(), appendCount.Load(), nil
}
