package dsidx

import (
	"dsidx/internal/messi"
	"dsidx/internal/paris"
	"dsidx/internal/storage"
)

// ParIS is the parallel on-disk index family (paper §III, Figure 2). The
// Plus variant (ParIS+) overlaps all tree-construction CPU work with the
// coordinator's disk reads, fully masking CPU cost during creation.
type ParIS struct {
	inner *paris.Index
}

// NewParIS builds the index over an on-disk collection using the ParIS
// creation algorithm.
func NewParIS(dc *DiskCollection, opts ...Option) (*ParIS, error) {
	return newParISDisk(dc, paris.ModeParIS, opts)
}

// NewParISPlus builds the index over an on-disk collection using the
// ParIS+ creation algorithm (I/O-masked CPU).
func NewParISPlus(dc *DiskCollection, opts ...Option) (*ParIS, error) {
	return newParISDisk(dc, paris.ModeParISPlus, opts)
}

func newParISDisk(dc *DiskCollection, mode paris.Mode, opts []Option) (*ParIS, error) {
	o := buildOptions(opts)
	inner, err := paris.Build(dc.file, storage.NewLeafStore(dc.disk), o.coreConfig(), paris.Options{
		Mode:        mode,
		Workers:     o.workers,
		BatchSeries: o.batchSeries,
	})
	if err != nil {
		return nil, err
	}
	return &ParIS{inner: inner}, nil
}

// NewParISInMemory builds the in-memory ParIS variant over a RAM collection
// (the comparator of the paper's Figures 7, 9 and 12).
func NewParISInMemory(coll *Collection, opts ...Option) (*ParIS, error) {
	o := buildOptions(opts)
	inner, err := paris.BuildInMemory(coll, o.coreConfig(), paris.Options{
		Mode:    paris.ModeParIS,
		Workers: o.workers,
	})
	if err != nil {
		return nil, err
	}
	return &ParIS{inner: inner}, nil
}

// Search returns the exact nearest neighbor of q under Euclidean distance,
// using the index's configured parallelism.
func (ix *ParIS) Search(q Series) (Match, error) { return ix.SearchWithWorkers(q, 0) }

// SearchWithWorkers is Search with an explicit worker count.
func (ix *ParIS) SearchWithWorkers(q Series, workers int) (Match, error) {
	return answerOf(messi.First(ix.inner.Run(paris.Query{Kind: messi.NN, Series: q, Workers: workers})))
}

// SearchKNN returns the exact k nearest neighbors of q in ascending
// distance order.
func (ix *ParIS) SearchKNN(q Series, k int) ([]Match, error) {
	rs, _, err := ix.inner.Run(paris.Query{Kind: messi.KNN, Series: q, K: k})
	return matchesOf(rs), err
}

// SearchDTW returns the exact nearest neighbor of q under dynamic time
// warping with a Sakoe-Chiba band of half-width window, answered on the
// unchanged index (paper §V).
func (ix *ParIS) SearchDTW(q Series, window int) (Match, error) {
	return answerOf(messi.First(ix.inner.Run(paris.Query{Kind: messi.DTW, Series: q, Warp: window})))
}

// SearchApproximate returns the classic iSAX approximate answer (one
// random read on disk); its distance upper-bounds the exact answer's.
func (ix *ParIS) SearchApproximate(q Series) (Match, error) {
	return answerOf(messi.First(ix.inner.Run(paris.Query{Kind: messi.Approx, Series: q})))
}

// Stats returns the index tree shape.
func (ix *ParIS) Stats() IndexStats { return statsOf(ix.inner.Tree()) }

// Len returns the number of indexed series.
func (ix *ParIS) Len() int { return ix.inner.Count() }
