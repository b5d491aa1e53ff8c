package paris

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"dsidx/internal/core"
	"dsidx/internal/isax"
	"dsidx/internal/messi"
	"dsidx/internal/paa"
	"dsidx/internal/series"
	"dsidx/internal/vector"
	"dsidx/internal/xsync"
)

// Query is one query: what to find (Kind and its parameters) and on how
// many workers. The kinds are MESSI's and mean the same here.
type Query struct {
	Kind   messi.Kind
	Series series.Series
	// K is the neighbour count of a KNN query; K ≤ 0 answers nothing.
	K int
	// Warp is the Sakoe-Chiba half-width of a DTW query; negative means 0.
	Warp int
	// Workers is the number of lower-bound and real-distance workers; ≤ 0
	// means GOMAXPROCS.
	Workers int
}

// kind is what a query kind supplies to Run: the lower-bound table the scan
// and the refinement prune by, the live pruning threshold (the BSF for the
// 1-NN kinds, the k-th best for KNN), and the score a series pays: its real
// distance at position p under lim, with any improvement recorded in the
// query's sink (rows is the calling worker's series.DTW scratch).
type kind struct {
	table *isax.QueryTable
	limit func() float64
	score func(p int32, s series.Series, lim float64, rows *[]float64)
}

// Run answers q with the ParIS/ParIS+ algorithm (identical for both modes,
// paper §III): exact distances to a few seed series set the threshold, a
// parallel vectorized lower-bound scan over the SAX array fills a lock-free
// candidate list against that fixed threshold, and parallel real-distance
// workers refine the candidates against the live one. An Approx query stops
// after its seeds. A 1-NN kind answers one result (core.NoResult when the
// index is empty), KNN up to K in ascending (distance, position) order.
func (ix *Index) Run(q Query) ([]core.Result, *QueryStats, error) {
	if err := series.Check(q.Series, ix.cfg.SeriesLen); err != nil {
		return nil, nil, fmt.Errorf("paris: query %w", err)
	}
	sink := messi.NewSink(messi.Query{Kind: q.Kind, K: q.K})
	stats := &QueryStats{}
	n := ix.sax.Len()
	if n == 0 || q.Kind == messi.KNN && q.K <= 0 {
		return sink.Results(), stats, nil
	}
	workers := q.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sm := core.NewSummarizer(ix.cfg, ix.tree.Quantizer())
	qsax := make([]uint8, ix.cfg.Segments)
	sm.Summarize(q.Series, qsax)
	qpaa := slices.Clone(sm.PAA(q.Series))
	k, err := ix.newKind(q, sink, qpaa)
	if err != nil {
		return nil, nil, err
	}

	var raw xsync.Counter
	seeds, err := ix.seeds(q, k.table, qsax, qpaa)
	buf, rows := make(series.Series, ix.cfg.SeriesLen), new([]float64)
	for i := 0; err == nil && i < len(seeds); i++ {
		err = ix.pay(k, seeds[i], k.limit(), buf, rows, &raw)
	}
	if err != nil {
		return nil, stats, fmt.Errorf("paris: seeding: %w", err)
	}
	if q.Kind != messi.Approx {
		cand := ix.scan(k.table, k.limit(), workers)
		stats.Candidates, stats.PrunedByScan = len(cand), n-len(cand)
		err = ix.refine(k, cand, workers, &raw)
	}
	stats.RawDistances = int(raw.Value())
	if err != nil {
		return nil, stats, fmt.Errorf("paris: refinement: %w", err)
	}
	return sink.Results(), stats, nil
}

// newKind fills q's lower-bound table and returns the kind that scores q's
// series into sink.
func (ix *Index) newKind(q Query, sink messi.Sink, qpaa []float64) (*kind, error) {
	quant, n, qs := ix.tree.Quantizer(), ix.cfg.SeriesLen, q.Series
	switch q.Kind {
	case messi.NN, messi.Approx:
		best := sink.Best
		return &kind{table: isax.NewQueryTable(quant, qpaa, n), limit: best.Distance,
			score: func(p int32, s series.Series, lim float64, _ *[]float64) {
				// <=, not <: the kernel abandons only above lim, so d == lim
				// is an exact tie, and Best keeps the lower position — the
				// one a serial scan reports.
				if d := vector.SquaredEDEarlyAbandon(qs, s, lim); d <= lim {
					best.Update(d, int64(p))
				}
			}}, nil
	case messi.KNN:
		kb := sink.KBest
		return &kind{table: isax.NewQueryTable(quant, qpaa, n), limit: kb.Threshold,
			score: func(p int32, s series.Series, lim float64, _ *[]float64) {
				kb.Offer(p, vector.SquaredEDEarlyAbandon(qs, s, lim))
			}}, nil
	case messi.DTW:
		best, window := sink.Best, max(q.Warp, 0)
		env := series.NewEnvelope(qs, window)
		table := isax.NewDTWQueryTable(quant, paa.Transform(env.Upper, ix.cfg.Segments),
			paa.Transform(env.Lower, ix.cfg.Segments), n)
		return &kind{table: table, limit: best.Distance,
			score: func(p int32, s series.Series, lim float64, rows *[]float64) {
				// An LB_Keogh check before the dynamic program. Both
				// comparisons let an exact tie through, as in the ED score.
				if series.LBKeogh(env, s, lim) > lim {
					return
				}
				if d := series.DTW(qs, s, window, lim, rows); d <= lim {
					best.Update(d, int64(p))
				}
			}}, nil
	}
	return nil, fmt.Errorf("paris: unknown query kind %d", q.Kind)
}

// seeds returns the positions whose real distances set q's threshold before
// the scan. The 1-NN kinds take "the best candidate series, which is in the
// leaf with the smallest lower bound distance to the query" (paper §III):
// on disk the leaf entry with the best summary bound, one random read; in
// memory every entry of that leaf, since raw values are free to access (as
// in MESSI). On disk, exact 1-NN also refines the four globally
// best-bounded series (SAXArray.TopKByLowerBound), which keeps the seed
// tight at scaled-down leaf sizes. KNN takes the max(K, 4) best-bounded
// series, so its k-th best is finite before the scan, and DTW the four
// best-bounded under its own table.
func (ix *Index) seeds(q Query, table *isax.QueryTable, qsax []uint8, qpaa []float64) ([]int32, error) {
	switch q.Kind {
	case messi.KNN:
		return ix.sax.TopKByLowerBound(table, max(q.K, 4)), nil
	case messi.DTW:
		return ix.sax.TopKByLowerBound(table, 4), nil
	}
	leaf := ix.tree.BestLeafApprox(qsax, qpaa)
	if leaf == nil {
		return nil, nil
	}
	sax, pos, err := core.LoadLeaf(leaf, ix.cfg.Segments, ix.leaves)
	if err != nil || len(pos) == 0 || ix.mem != nil {
		return pos, err
	}
	w := ix.cfg.Segments
	bestEntry, bestLB := 0, isax.Inf
	for i := range pos {
		if lb := table.MinDistSAX(sax[i*w : (i+1)*w]); lb < bestLB {
			bestEntry, bestLB = i, lb
		}
	}
	seeds := []int32{pos[bestEntry]}
	if q.Kind == messi.NN {
		seeds = append(seeds, ix.sax.TopKByLowerBound(table, 4)...)
	}
	return seeds, nil
}

// scan is the lower-bound phase: workers split the SAX array, bound it in
// batches (vector.MinDistBatch) and append every position bounded below
// threshold to a lock-free candidate list. The threshold is the seeds'
// alone: no real distance runs during the scan, so it cannot improve.
func (ix *Index) scan(table *isax.QueryTable, threshold float64, workers int) []int32 {
	n := ix.sax.Len()
	candidates := xsync.NewCandidateList(n)
	var wg sync.WaitGroup
	for _, ch := range xsync.Chunks(n, workers) {
		wg.Add(1)
		go func(ch xsync.Chunk) {
			defer wg.Done()
			const block = 256
			bounds := make([]float64, block)
			for lo := ch.Lo; lo < ch.Hi; lo += block {
				hi := min(lo+block, ch.Hi)
				vector.MinDistBatch(table.Cells(), ix.sax.Range(lo, hi), ix.cfg.Segments, table.Card(), bounds[:hi-lo])
				for i, b := range bounds[:hi-lo] {
					if b < threshold {
						candidates.Append(int32(lo + i))
					}
				}
			}
		}(ch)
	}
	wg.Wait()
	return candidates.Snapshot()
}

// refine is the real-distance phase: workers split the candidate list, and
// on disk each sorts its share by position so its reads run forward through
// the file (ADS+'s skip-sequential order). A candidate is bounded again
// against the live threshold before its series is read.
func (ix *Index) refine(k *kind, cand []int32, workers int, raw *xsync.Counter) error {
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wi, ch := range xsync.Chunks(len(cand), workers) {
		wg.Add(1)
		go func(wi int, mine []int32) {
			defer wg.Done()
			if ix.raw != nil {
				slices.Sort(mine)
			}
			buf, rows := make(series.Series, ix.cfg.SeriesLen), new([]float64)
			for _, p := range mine {
				lim := k.limit()
				if k.table.MinDistSAX(ix.sax.At(int(p))) >= lim {
					continue
				}
				if errs[wi] = ix.pay(k, p, lim, buf, rows, raw); errs[wi] != nil {
					return
				}
			}
		}(wi, cand[ch.Lo:ch.Hi])
	}
	wg.Wait()
	return errors.Join(errs...)
}

// pay reads the series at position p — from RAM without a copy, or from the
// raw file into buf — counts one real distance and scores it under lim.
func (ix *Index) pay(k *kind, p int32, lim float64, buf series.Series, rows *[]float64, raw *xsync.Counter) error {
	s := buf
	if ix.mem != nil {
		s = ix.mem.At(int(p))
	} else if err := ix.raw.ReadSeries(int64(p), buf); err != nil {
		return fmt.Errorf("series %d: %w", p, err)
	}
	raw.Next()
	k.score(p, s, lim, rows)
	return nil
}
