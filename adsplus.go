package dsidx

import (
	"dsidx/internal/adsplus"
	"dsidx/internal/storage"
)

// ADSPlus is the serial ADS+ baseline index over an on-disk collection: the
// state-of-the-art comparator of the paper's evaluation.
type ADSPlus struct {
	inner *adsplus.Index
}

// NewADSPlus builds an ADS+ index over an on-disk collection.
func NewADSPlus(dc *DiskCollection, opts ...Option) (*ADSPlus, error) {
	o := buildOptions(opts)
	inner, err := adsplus.Build(dc.file, storage.NewLeafStore(dc.disk), o.coreConfig())
	if err != nil {
		return nil, err
	}
	return &ADSPlus{inner: inner}, nil
}

// Search returns the exact nearest neighbor of q under Euclidean distance
// (single-threaded, as ADS+ is a serial index).
func (ix *ADSPlus) Search(q Series) (Match, error) { return answerOf(ix.inner.Search(q)) }

// Stats returns the index tree shape.
func (ix *ADSPlus) Stats() IndexStats { return statsOf(ix.inner.Tree()) }

// Len returns the number of indexed series.
func (ix *ADSPlus) Len() int { return ix.inner.Count() }
