// Package adsplus implements the ADS+ baseline (Zoumpatianos, Idreos,
// Palpanas, VLDBJ 2016) as the paper evaluates it: the state-of-the-art
// *serial* iSAX index that ParIS/ParIS+ are compared against for on-disk
// data. Index creation reads the raw file sequentially and builds the tree
// with a single thread — Figure 4's baseline. Exact query answering is the
// serial skip-sequential algorithm (SIMS): an approximate tree search seeds
// the best-so-far, a scan of the in-memory SAX array prunes by lower bound,
// and surviving candidates are read from disk in position order for exact
// distances. ParIS parallelizes exactly these stages, so SIMS is paris.Run
// on one worker over this package's tree, SAX array, raw file and leaf
// store, and this package is also the single-threaded reference point of
// the scaling figures.
package adsplus

import (
	"fmt"
	"time"

	"dsidx/internal/core"
	"dsidx/internal/messi"
	"dsidx/internal/paris"
	"dsidx/internal/series"
	"dsidx/internal/storage"
)

// BuildStats breaks index creation into the components of Figure 4:
// time spent reading raw data, pure CPU time (summarization + tree
// building), and time writing index leaves.
type BuildStats struct {
	Read  time.Duration
	CPU   time.Duration
	Write time.Duration
	Total time.Duration
}

// QueryStats counts the work of one query, for the pruning-power analyses
// in EXPERIMENTS.md.
type QueryStats = paris.QueryStats

// Index is a built ADS+ index over an on-disk series file.
type Index struct {
	px    *paris.Index
	build BuildStats
}

// BatchSize is the number of series read per sequential batch during index
// creation (the "raw data buffer" granularity).
const BatchSize = 8192

// Build creates an ADS+ index over the series in raw, writing materialized
// leaves through leafStore (which may share the device with raw, as in the
// paper's single-disk setup).
func Build(raw *storage.SeriesFile, leafStore *storage.LeafStore, cfg core.Config) (*Index, error) {
	cfg.SeriesLen = raw.Length()
	tree, err := core.NewTree(cfg)
	if err != nil {
		return nil, fmt.Errorf("adsplus: %w", err)
	}
	cfg = tree.Config()
	sax := core.NewSAXArray(int(raw.Count()), cfg.Segments)
	ix := &Index{px: paris.Over(tree, sax, raw, leafStore)}

	sm := core.NewSummarizer(cfg, tree.Quantizer())
	start := time.Now()
	for lo := int64(0); lo < raw.Count(); lo += BatchSize {
		count := int64(BatchSize)
		if lo+count > raw.Count() {
			count = raw.Count() - lo
		}
		t0 := time.Now()
		batch, err := raw.ReadBatch(lo, count)
		if err != nil {
			return nil, fmt.Errorf("adsplus: reading batch at %d: %w", lo, err)
		}
		ix.build.Read += time.Since(t0)

		t0 = time.Now()
		for i := 0; i < batch.Len(); i++ {
			pos := int32(lo) + int32(i)
			dst := sax.At(int(pos))
			sm.Summarize(batch.At(i), dst)
			tree.Insert(dst, pos)
		}
		ix.build.CPU += time.Since(t0)
	}

	// Materialize leaves (the Write component of Figure 4). The paper's
	// systems interleave flushing with memory pressure; at this repository's
	// scale a single final flush preserves the same total write volume —
	// see DESIGN.md, substitutions.
	t0 := time.Now()
	var flushErr error
	tree.VisitLeaves(func(nd *core.Node) {
		if flushErr == nil {
			flushErr = core.FlushLeaf(nd, cfg.Segments, leafStore)
		}
	})
	if flushErr != nil {
		return nil, fmt.Errorf("adsplus: flushing leaves: %w", flushErr)
	}
	ix.build.Write += time.Since(t0)
	ix.build.Total = time.Since(start)
	return ix, nil
}

// BuildStats returns the creation-time breakdown.
func (ix *Index) BuildStats() BuildStats { return ix.build }

// Tree exposes the underlying tree (read-only) for diagnostics.
func (ix *Index) Tree() *core.Tree { return ix.px.Tree() }

// Count returns the number of indexed series.
func (ix *Index) Count() int { return ix.px.Count() }

// Search answers an exact 1-NN query, returning the position and squared
// Euclidean distance of the nearest series: ParIS's query on one worker.
func (ix *Index) Search(q series.Series) (core.Result, *QueryStats, error) {
	return messi.First(ix.px.Run(paris.Query{Kind: messi.NN, Series: q, Workers: 1}))
}
