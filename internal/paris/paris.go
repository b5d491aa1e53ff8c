// Package paris implements ParIS and ParIS+ (paper §III, Figure 2), the
// first data series indexes designed for multi-core architectures.
//
// Index creation is a pipeline over an on-disk raw file:
//
//	Stage 1  a Coordinator worker reads raw series into memory blocks;
//	Stage 2  IndexBulkLoading workers summarize blocks into the SAX array
//	         and append series positions to per-root-subtree Receiving
//	         Buffers (RecBufs);
//	Stage 3  IndexConstruction workers turn RecBufs into index subtrees and
//	         materialize leaves to disk.
//
// ParIS runs stage 3 after each memory-budget batch, so tree building CPU
// time is visible in the creation time. ParIS+ moves tree growth into the
// stage-2 workers — they drain RecBufs into subtrees while the coordinator
// is still reading — which completely overlaps CPU work with I/O; its
// stage-3 workers only flush leaves. For in-memory data there is no I/O to
// hide behind, and ParIS+'s repeated subtree visits make it *slower* than
// ParIS — the effect Figure 7 reports.
//
// Query answering (identical for ParIS and ParIS+) is one pipeline, Run,
// for every kind — exact 1-NN, k-NN and DTW, and approximate: exact
// distances to a few seed series (the approximate answer's leaf, or the
// best-bounded series) set a threshold, lower-bound workers scan the
// in-memory SAX array with vectorized kernels against it, appending
// surviving positions to a lock-free candidate list, and real-distance
// workers read the survivors (on disk in position order) and refine the
// answer under early abandoning. A kind supplies only its lower-bound table, its seeds,
// its threshold and its score. ADS+'s serial SIMS is the same pipeline on
// one worker (package adsplus).
package paris

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dsidx/internal/core"
	"dsidx/internal/series"
	"dsidx/internal/storage"
	"dsidx/internal/xsync"
)

// Mode selects the index creation algorithm.
type Mode int

const (
	// ModeParIS builds subtrees in a separate stage after each batch.
	ModeParIS Mode = iota
	// ModeParISPlus grows subtrees inside the bulk-loading workers,
	// overlapping all CPU work with the coordinator's I/O.
	ModeParISPlus
)

// String names the mode as in the paper.
func (m Mode) String() string {
	if m == ModeParISPlus {
		return "ParIS+"
	}
	return "ParIS"
}

// Options configures index creation.
type Options struct {
	Mode Mode
	// Workers is the number of worker goroutines for building (the paper's
	// "number of cores"). 0 means GOMAXPROCS.
	Workers int
	// BatchSeries is the memory budget of one stage-1..3 cycle, in series
	// (the paper iterates "until all available main memory is full").
	// 0 means 65536.
	BatchSeries int
}

// readBlock is the coordinator's read granularity in series, and the block
// in-memory stage-2 workers claim.
const readBlock = 1024

func (o Options) normalize() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.BatchSeries <= 0 {
		o.BatchSeries = 65536
	}
	return o
}

// BuildStats records creation-time accounting. ReadWall is the wall time
// the coordinator spent blocked on the device; TreeWall is the wall time of
// dedicated stage-3 tree building (zero for ParIS+, whose tree work hides
// inside stage 2); FlushWall is leaf materialization.
type BuildStats struct {
	ReadWall  time.Duration
	TreeWall  time.Duration
	FlushWall time.Duration
	Total     time.Duration
}

// QueryStats counts the work of one query.
type QueryStats struct {
	Candidates   int // positions surviving the lower-bound scan
	PrunedByScan int // positions the scan eliminated
	RawDistances int // real distances paid, the seeds' included
}

// recBuf is one receiving buffer: the positions (pointers into the SAX
// array and raw file) of series routed to one root subtree. cnt mirrors
// len(pos) atomically so sweeps can skip empty buffers without locking.
type recBuf struct {
	mu  sync.Mutex
	pos []int32
	cnt atomic.Int32
}

// append adds a position.
func (b *recBuf) append(p int32) {
	b.mu.Lock()
	b.pos = append(b.pos, p)
	b.cnt.Store(int32(len(b.pos)))
	b.mu.Unlock()
}

// drain atomically takes the buffered positions.
func (b *recBuf) drain() []int32 {
	b.mu.Lock()
	out := b.pos
	b.pos = nil
	b.cnt.Store(0)
	b.mu.Unlock()
	return out
}

// empty is a lock-free emptiness hint (exact when no appender is running).
func (b *recBuf) empty() bool { return b.cnt.Load() == 0 }

// Index is a built ParIS or ParIS+ index. The raw data live either in a
// series file behind a (simulated) disk, or in memory (the in-memory ParIS
// variant of Figures 7, 9 and 12).
type Index struct {
	cfg    core.Config
	opt    Options
	tree   *core.Tree
	sax    *core.SAXArray
	raw    *storage.SeriesFile // nil when in-memory
	mem    *series.Collection  // nil when on-disk
	leaves *storage.LeafStore  // nil when in-memory
	build  BuildStats
}

// Mode returns the creation mode the index was built with.
func (ix *Index) Mode() Mode { return ix.opt.Mode }

// Encode serializes the built index (tree + SAX array). Flushed leaf
// references remain valid against the same leaf store / data device.
func (ix *Index) Encode() []byte { return core.EncodeIndex(ix.tree, ix.sax) }

// Decode reconstructs an on-disk index from Encode output over the same
// raw series file and leaf store it was built with.
func Decode(data []byte, raw *storage.SeriesFile, leaves *storage.LeafStore, opt Options) (*Index, error) {
	opt = opt.normalize()
	tree, sax, err := core.DecodeIndex(data)
	if err != nil {
		return nil, fmt.Errorf("paris: %w", err)
	}
	cfg := tree.Config()
	if cfg.SeriesLen != raw.Length() {
		return nil, fmt.Errorf("paris: index is for length-%d series, file has %d",
			cfg.SeriesLen, raw.Length())
	}
	if int64(sax.Len()) != raw.Count() {
		return nil, fmt.Errorf("paris: index covers %d series, file has %d",
			sax.Len(), raw.Count())
	}
	ix := Over(tree, sax, raw, leaves)
	ix.opt = opt
	return ix, nil
}

// Over returns the on-disk index over a tree and SAX array built elsewhere
// — ADS+'s serial builder — with its raw series file and leaf store.
func Over(tree *core.Tree, sax *core.SAXArray, raw *storage.SeriesFile, leaves *storage.LeafStore) *Index {
	return &Index{cfg: tree.Config(), tree: tree, sax: sax, raw: raw, leaves: leaves}
}

// DecodeInMemory reconstructs an in-memory index from Encode output over
// the collection it was built from.
func DecodeInMemory(data []byte, coll *series.Collection, opt Options) (*Index, error) {
	opt = opt.normalize()
	tree, sax, err := core.DecodeIndex(data)
	if err != nil {
		return nil, fmt.Errorf("paris: %w", err)
	}
	cfg := tree.Config()
	if cfg.SeriesLen != coll.SeriesLen() || sax.Len() != coll.Len() {
		return nil, fmt.Errorf("paris: index shape (%d series × %d) does not match collection (%d × %d)",
			sax.Len(), cfg.SeriesLen, coll.Len(), coll.SeriesLen())
	}
	return &Index{cfg: cfg, opt: opt, tree: tree, sax: sax, mem: coll}, nil
}

// Count returns the number of indexed series.
func (ix *Index) Count() int { return ix.sax.Len() }

// Tree exposes the index tree for diagnostics and tests.
func (ix *Index) Tree() *core.Tree { return ix.tree }

// BuildStats returns creation accounting.
func (ix *Index) BuildStats() BuildStats { return ix.build }

// builder carries the shared state of one index creation.
type builder struct {
	ix    *Index
	opt   Options
	bufs  []recBuf
	claim []atomic.Bool // per-key subtree ownership (ParIS+)
}

func newBuilder(ix *Index, opt Options) *builder {
	fan := ix.cfg.RootFanout()
	return &builder{
		ix:    ix,
		opt:   opt,
		bufs:  make([]recBuf, fan),
		claim: make([]atomic.Bool, fan),
	}
}

// loadSeries summarizes one series into the SAX array and routes its
// position to the proper RecBuf. Returns the root key.
func (b *builder) loadSeries(sm *core.Summarizer, s series.Series, pos int32) uint32 {
	dst := b.ix.sax.At(int(pos))
	sm.Summarize(s, dst)
	key := b.ix.tree.RootKey(dst)
	b.bufs[key].append(pos)
	return key
}

// growSubtree drains the RecBuf for key into the tree. The caller must own
// the key (stage-3 Fetch&Inc distribution or a ParIS+ claim).
func (b *builder) growSubtree(key uint32) {
	for _, pos := range b.bufs[key].drain() {
		b.ix.tree.SubtreeInsert(key, b.ix.sax.At(int(pos)), pos)
	}
}

// tryGrow attempts to claim the subtree for key and drain its buffer;
// returns immediately if another worker holds the claim (ParIS+ stage 2).
func (b *builder) tryGrow(key uint32) {
	if !b.claim[key].CompareAndSwap(false, true) {
		return
	}
	b.growSubtree(key)
	b.claim[key].Store(false)
}

// constructAll sweeps every receiving buffer, distributing slot ranges over
// workers with Fetch&Inc, and builds every pending subtree (ParIS stage 3,
// and the final ParIS+ sweep). Stage 2 has finished when this runs, so the
// emptiness hints are exact.
func (b *builder) constructAll(workers int) {
	const stride = 1024 // RecBuf slots claimed per Fetch&Inc
	var cursor xsync.Counter
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Next()) * stride
				if lo >= len(b.bufs) {
					return
				}
				hi := min(lo+stride, len(b.bufs))
				for key := lo; key < hi; key++ {
					if !b.bufs[key].empty() {
						// The claim keeps ParIS+ stragglers out of the
						// same subtree.
						b.tryGrow(uint32(key))
					}
				}
			}
		}()
	}
	wg.Wait()
}

// flushAll materializes every leaf to the leaf store in parallel (ParIS+
// stage 3 proper; the final Write component of Figure 4).
func (b *builder) flushAll(workers int) error {
	if b.ix.leaves == nil {
		return nil
	}
	keys := b.ix.tree.OccupiedKeys()
	var cursor xsync.Counter
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := cursor.Next()
				if int(i) >= len(keys) {
					return
				}
				var err error
				b.ix.tree.Subtree(keys[i]).WalkLeaves(func(n *core.Node) {
					if err == nil {
						err = core.FlushLeaf(n, b.ix.cfg.Segments, b.ix.leaves)
					}
				})
				if err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Build creates a ParIS or ParIS+ index over an on-disk series file,
// materializing leaves through leafStore.
func Build(raw *storage.SeriesFile, leafStore *storage.LeafStore, cfg core.Config, opt Options) (*Index, error) {
	opt = opt.normalize()
	cfg.SeriesLen = raw.Length()
	tree, err := core.NewTree(cfg)
	if err != nil {
		return nil, fmt.Errorf("paris: %w", err)
	}
	cfg = tree.Config()
	n := int(raw.Count())
	ix := &Index{cfg: cfg, opt: opt, tree: tree, sax: core.NewSAXArray(n, cfg.Segments), raw: raw, leaves: leafStore}
	b := newBuilder(ix, opt)

	start := time.Now()

	type block struct {
		start int64
		n     int
		raw   []byte  // little-endian float32 values, decoded by the worker
		bufp  *[]byte // pooled backing buffer, returned after decode
	}

	for batchLo := int64(0); batchLo < raw.Count(); batchLo += int64(opt.BatchSeries) {
		batchHi := batchLo + int64(opt.BatchSeries)
		if batchHi > raw.Count() {
			batchHi = raw.Count()
		}

		// Stage 1: the coordinator streams raw byte blocks while stage-2
		// workers consume them; it performs no CPU work beyond the read
		// itself, as in the paper. Block buffers are pooled — the raw data
		// buffer of the paper is a fixed memory region, not fresh
		// allocations, and reuse keeps the garbage collector out of the
		// measured pipeline.
		bufPool := sync.Pool{New: func() any {
			buf := make([]byte, readBlock*cfg.SeriesLen*4)
			return &buf
		}}
		blocks := make(chan block, 4)
		var readWall atomic.Int64
		var readErr error
		go func() {
			defer close(blocks)
			for lo := batchLo; lo < batchHi; lo += int64(readBlock) {
				hi := lo + int64(readBlock)
				if hi > batchHi {
					hi = batchHi
				}
				bufp := bufPool.Get().(*[]byte)
				buf := (*bufp)[:(hi-lo)*int64(cfg.SeriesLen)*4]
				t0 := time.Now()
				err := raw.ReadBatchBytesInto(buf, lo)
				readWall.Add(int64(time.Since(t0)))
				if err != nil {
					readErr = fmt.Errorf("paris: coordinator read at %d: %w", lo, err)
					return
				}
				blocks <- block{start: lo, n: int(hi - lo), raw: buf, bufp: bufp}
			}
		}()

		// Stage 2: IndexBulkLoading workers decode and summarize.
		var wg sync.WaitGroup
		for w := 0; w < opt.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sm := core.NewSummarizer(cfg, tree.Quantizer())
				values := make([]float32, readBlock*cfg.SeriesLen)
				touched := make(map[uint32]struct{}, 64)
				for blk := range blocks {
					vals := values[:blk.n*cfg.SeriesLen]
					storage.DecodeFloat32(vals, blk.raw)
					bufPool.Put(blk.bufp)
					for i := 0; i < blk.n; i++ {
						s := series.Series(vals[i*cfg.SeriesLen : (i+1)*cfg.SeriesLen])
						key := b.loadSeries(sm, s, int32(blk.start)+int32(i))
						if opt.Mode == ModeParISPlus {
							touched[key] = struct{}{}
						}
					}
					if opt.Mode == ModeParISPlus {
						// ParIS+: grow the subtrees this block touched while
						// the coordinator keeps reading.
						for key := range touched {
							b.tryGrow(key)
							delete(touched, key)
						}
					}
				}
			}()
		}
		wg.Wait()
		if readErr != nil {
			return nil, readErr
		}
		ix.build.ReadWall += time.Duration(readWall.Load())

		// Stage 3 for ParIS: dedicated tree construction. For ParIS+ the
		// trees are already grown except for claim-contention leftovers,
		// which the final sweep below picks up batch by batch.
		t0 := time.Now()
		b.constructAll(opt.Workers)
		if opt.Mode == ModeParIS {
			ix.build.TreeWall += time.Since(t0)
		}
	}

	// Materialize leaves (ParIS+ stage 3 proper; final Write for both).
	t0 := time.Now()
	if err := b.flushAll(opt.Workers); err != nil {
		return nil, fmt.Errorf("paris: flushing leaves: %w", err)
	}
	ix.build.FlushWall = time.Since(t0)
	ix.build.Total = time.Since(start)
	return ix, nil
}

// BuildInMemory creates the in-memory ParIS/ParIS+ variant over a RAM
// collection (Figures 7, 9, 12): no coordinator, no leaf flushing; stage-2
// workers claim fixed-size blocks of the collection with Fetch&Inc.
func BuildInMemory(coll *series.Collection, cfg core.Config, opt Options) (*Index, error) {
	opt = opt.normalize()
	cfg.SeriesLen = coll.SeriesLen()
	tree, err := core.NewTree(cfg)
	if err != nil {
		return nil, fmt.Errorf("paris: %w", err)
	}
	cfg = tree.Config()
	n := coll.Len()
	ix := &Index{cfg: cfg, opt: opt, tree: tree, sax: core.NewSAXArray(n, cfg.Segments), mem: coll}
	b := newBuilder(ix, opt)

	start := time.Now()
	blocks := xsync.Blocks(n, readBlock)
	var cursor xsync.Counter
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sm := core.NewSummarizer(cfg, tree.Quantizer())
			touched := make(map[uint32]struct{}, 64)
			for {
				bi := cursor.Next()
				if int(bi) >= len(blocks) {
					return
				}
				blk := blocks[bi]
				for i := blk.Lo; i < blk.Hi; i++ {
					key := b.loadSeries(sm, coll.At(i), int32(i))
					if opt.Mode == ModeParISPlus {
						touched[key] = struct{}{}
					}
				}
				if opt.Mode == ModeParISPlus {
					for key := range touched {
						b.tryGrow(key)
						delete(touched, key)
					}
				}
			}
		}()
	}
	wg.Wait()

	t0 := time.Now()
	b.constructAll(opt.Workers)
	ix.build.TreeWall = time.Since(t0)
	ix.build.Total = time.Since(start)
	return ix, nil
}
