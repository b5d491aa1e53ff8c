// Package messi implements MESSI (paper §III, Figure 3), the first parallel
// in-memory data series index, extended into a live serving system.
//
// Index creation: the in-memory RawData array is split into fixed-size
// blocks; index workers claim blocks with Fetch&Inc and write each series'
// iSAX summary and root key at its own position, so no two share a buffer
// (the paper splits each per-root-subtree buffer into per-worker parts to
// the same end, footnote 2). One counting pass then groups the positions by
// root key, and workers claim the non-empty keys with Fetch&Inc and build
// their subtrees independently (footnote 3), each from ascending positions:
// the build is a pure function of the collection at every worker count.
//
// Query answering: an approximate search (the one leaf under the query's
// summary, as in the paper) seeds the shared BSF. The exact
// phase then reads the snapshot's leaf directory — every leaf of the tree,
// ordered by root key, with its key and per-segment symbol envelope — not
// the pointer tree: one table read per group of root keys drops the groups
// the BSF already excludes, then workers claim runs of the kept leaves,
// bound them against the live BSF, and list the survivors — minus the
// already-probed one — each on its own. The lists are folded into one,
// filtered against the BSF as it then stands and sorted by bound; workers
// claim its entries in that order through a shared cursor: a claimed leaf
// has its whole summary block lower-bounded in one batched pass
// (bit-identical to the per-entry bounds), then survivors pay an
// early-abandoning real distance read from the leaf's contiguous raw block
// (leaf-ordered storage, unless Options.DisableLeafRaw). The first entry
// whose bound is not below the BSF ends a worker's drain, since every later
// one is at least as far. The calling goroutine is the first worker, and
// helpers join it from the pool only where there is work to share. Compared
// to ParIS, node bounds prune *before* per-series lower bounds and work is
// ordered best-first — the two effects behind Figure 12's speedups; the
// batched bounds and leaf-ordered reads give both phases the sequential
// memory behavior the paper gets from SIMD over flat arrays. The paper walks
// the tree and drains several locked priority queues; queuedSearch's comment
// says why a flat pass and one sorted list replace them here.
//
// Every query kind enters through one pipeline, Index.Run: Index.Query runs
// it over the index alone, and a sharding layer (internal/shard) runs it
// per shard with one shared sink. The public dsidx types reach an Index
// only through that layer — a dsidx.MESSI is its one-shard case. Under it an
// Index is passive: it borrows the layer's worker pool (Options.Engine), and
// the layer times, counts and exports its sub-searches. A standalone Index,
// built or decoded without Options.Engine, creates its own pool, and its
// Close stops it.
//
// Live ingestion: the paper builds the index as a one-shot batch job; this
// implementation additionally accepts new series while queries run (see
// ingest.go). Appends land in a concurrent delta buffer, summarized with
// SAX on arrival; queries union the tree's candidates with an exact scan of
// the delta, so answers stay bit-identical to a serial scan of everything
// the query observed. A background merge — the ParIS+ buffer-fill /
// tree-insert split, run as tasks on the index's worker pool — folds the
// delta into a copied-aside version of the affected subtrees and swaps in
// the merged snapshot atomically, never blocking readers.
package messi

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dsidx/internal/core"
	"dsidx/internal/engine"
	"dsidx/internal/series"
	"dsidx/internal/xsync"
)

// Options configures index creation and query answering.
type Options struct {
	// Workers is the number of index worker goroutines (the paper's
	// "number of cores"). 0 means GOMAXPROCS.
	Workers int
	// MaxInFlight bounds the number of queries the pool's admission control
	// lets in at once — batches and the serving layer admit through it (0
	// means 2×Workers). Directly invoked queries are not admission-controlled.
	MaxInFlight int
	// MergeThreshold is the delta-buffer size (in series) at which a
	// background merge into the tree is scheduled (0 means 4096). Queries
	// stay exact at any threshold — the delta is exact-scanned — so this
	// knob only trades merge frequency against per-query delta-scan cost.
	MergeThreshold int
	// DisableLeafRaw turns off leaf-ordered raw storage. By default every
	// leaf keeps a contiguous copy of its series' values (filled at build,
	// carried through splits and live merges), so leaf refinement streams
	// sequential memory instead of chasing positions through the
	// collection — at the cost of one extra copy of the raw data.
	// Disabling trades that memory back for per-entry random reads; the
	// sharding layer sets it for cold shards, whose values stay on the
	// device.
	DisableLeafRaw bool
	// Engine lends the index an existing worker pool instead of having it
	// create its own — how a sharding layer runs every shard's tasks
	// through one globally governed pool. The index borrows the pool: its
	// Close leaves it running, and the lender closes it after every
	// borrower is done with it. When set, Workers and MaxInFlight describe
	// the lent pool (they do not size a new one).
	Engine *engine.Engine
}

// claimBlock is the work-claiming granularity in series of build stage 1
// and of a merge's buffer fill: small blocks assigned with Fetch&Inc give the
// load balancing the paper describes.
const claimBlock = 1024

func (o Options) normalize() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MergeThreshold <= 0 {
		o.MergeThreshold = 4096
	}
	return o
}

// BuildStats splits creation time into the two phases of Figure 5.
type BuildStats struct {
	Summarize time.Duration // stage 1: iSAX summary computation
	TreeBuild time.Duration // stage 2: subtree construction
	Total     time.Duration
}

// snapshot is one immutable version of the indexed state: a tree covering
// the base collection plus the first mergedA appended series. Queries load
// the current snapshot once and use it throughout, so a concurrent merge
// (which installs a new snapshot, never mutating a published one) is
// invisible to in-flight queries. The flat SAX rows backing the snapshot
// live outside it — baseSAX for the build-time collection, saxLog for
// appends — both immutable below the published counts, so snapshots stay
// small and merges never copy summary data.
type snapshot struct {
	tree *core.Tree
	// dir is tree's leaf directory, the only form of the tree the exact
	// phase of a query traverses (query.go). Built once here because a
	// published tree never changes.
	dir     *core.LeafDirectory
	mergedA int // appended series covered by the tree
}

// publish installs tree, covering the first mergedA appended series, as the
// snapshot new queries load.
func (ix *Index) publish(tree *core.Tree, mergedA int) {
	ix.snap.Store(&snapshot{tree: tree, dir: core.NewLeafDirectory(tree), mergedA: mergedA})
}

// Index is a MESSI index over an in-memory collection, serving exact
// queries while accepting live appends.
//
// Query answering runs on the calling goroutine, with helpers from a
// persistent, index-owned worker pool shared by every in-flight query (see
// internal/engine): Query, Run and Search may be called concurrently from
// any number of goroutines, and the helper tasks of a hard query interleave
// on the pool instead of spawning per-call goroutines. Append and
// AppendBatch (ingest.go) are safe concurrently with all of the above.
// An index that created its own pool owns it, and its Close stops it; an
// index that borrowed one (Options.Engine) never closes it.
type Index struct {
	cfg     core.Config
	opt     Options
	raw     series.Reader // immutable base collection (flat or a view)
	baseLen int
	build   BuildStats

	// readBatch is non-nil when raw is device-backed (resolves a
	// series.BatchReader through any view chain): refinement then runs a
	// leaf's whole bound pass first and hands only the survivors to the
	// reader, in one batch it serves in device order (query.go). Nil for
	// RAM-resident collections — the hot path is untouched.
	readBatch func(pos []int32, want func(k int) bool, visit func(k int, s series.Series))

	// snap is the current tree snapshot; swapped whole by merges.
	snap atomic.Pointer[snapshot]

	// Live-ingestion state (ingest.go). store and saxLog hold appended
	// series (raw values and on-arrival summaries) in stable chunked
	// storage; appended is the published count gating reader visibility
	// into both. baseSAX holds the build-time collection's summaries,
	// immutable after construction.
	baseSAX     *core.SAXArray
	store       *series.Chunked
	saxLog      *series.ChunkedRows[uint8]
	appended    atomic.Int64
	ingestMu    sync.Mutex // serializes appenders
	ingestSM    *core.Summarizer
	ingestBf    []uint8
	mergeMu     sync.Mutex // serializes merges (background and Flush)
	merging     atomic.Bool
	merges      atomic.Uint64
	mergeAborts atomic.Uint64 // merge cycles abandoned after a contained task panic
	// restored is the appended count carried in from Decode, so
	// IngestStats.Appended counts only series accepted since this Index
	// was created or loaded. Written once before the index is shared.
	restored int64
	// snapSwaps counts snapshot installs (merge cycles that actually
	// published a new tree).
	snapSwaps atomic.Uint64

	// Delete/TTL state (tombstone.go). tombs is the published copy-on-write
	// tombstone set every search consults; tombMu serializes mutators and
	// guards ttls, the pending per-position expiry deadlines.
	tombs  atomic.Pointer[tombSet]
	tombMu sync.Mutex
	ttls   []ttlEntry

	eng     *engine.Engine
	scratch sync.Pool // *searchScratch, sized for cfg/opt
	lbPool  sync.Pool // *lbScratch, one per concurrently running task
}

// initLive gives a constructed index its ingestion state, its worker pool
// (the borrowed Options.Engine, or a new one it owns) and its scratch pools.
func (ix *Index) initLive(tree *core.Tree, baseSAX *core.SAXArray, mergedA int) {
	ix.baseLen = ix.raw.Len()
	ix.baseSAX = baseSAX
	if ix.store == nil {
		ix.store = series.NewChunked(ix.cfg.SeriesLen, 0)
		ix.saxLog = series.NewChunkedRows[uint8](ix.cfg.Segments, 0)
	}
	ix.ingestSM = core.NewSummarizer(ix.cfg, tree.Quantizer())
	ix.ingestBf = make([]uint8, ix.cfg.Segments)
	ix.readBatch = series.ResolveBatchReader(ix.raw)
	ix.publish(tree, mergedA)
	ix.eng = ix.opt.Engine
	if ix.eng == nil {
		ix.eng = engine.New(engine.Options{Workers: ix.opt.Workers, MaxInFlight: ix.opt.MaxInFlight})
	}
	ix.scratch.New = func() any { return ix.newScratch() }
	ix.lbPool.New = func() any { return &lbScratch{} }
}

// Close stops the worker pool the index created, after any in-flight
// background merge completes (the pool stays live for it); a borrowed pool
// (Options.Engine) is left to its lender. Close is idempotent and safe to
// call concurrently with appends and queries; after the pool stops, queries
// execute serially on the calling goroutine, appends still land in the
// delta buffer, and merges happen only through Flush.
func (ix *Index) Close() {
	if ix.opt.Engine == nil {
		ix.eng.Close()
	}
}

// EngineStats snapshots the shared pool's throughput counters.
func (ix *Index) EngineStats() engine.Stats { return ix.eng.Stats() }

// MergeAborts counts merge cycles abandoned after a contained task panic
// (the previous snapshot kept serving).
func (ix *Index) MergeAborts() uint64 { return ix.mergeAborts.Load() }

// Build creates a MESSI index over coll — any read-only collection: the
// flat in-memory RawData array of the paper, or a position-remapping
// series.View over someone else's collection (how a sharding layer builds
// each shard over its slice of the base data without copying it). The
// index retains coll and reads it on every unmaterialized refinement, so
// it must stay immutable for the index's lifetime. A collection holding a
// NaN or an infinity is refused with a *NonFiniteError.
func Build(coll series.Reader, cfg core.Config, opt Options) (*Index, error) {
	opt = opt.normalize()
	cfg.SeriesLen = coll.SeriesLen()
	tree, err := core.NewTree(cfg)
	if err != nil {
		return nil, fmt.Errorf("messi: %w", err)
	}
	cfg = tree.Config()
	n := coll.Len()
	ix := &Index{cfg: cfg, opt: opt, raw: coll}
	sax := core.NewSAXArray(n, cfg.Segments)

	start := time.Now()

	// Stage 1: summarization. Each series' summary and root key land at its
	// own position: no shared buffer, no synchronization (footnote 2).
	// The PAA each series is summarized from doubles as the input check: a
	// float64 mean of float32 values cannot overflow, so a segment's mean is
	// finite exactly when every value in the segment is.
	blocks := xsync.Blocks(n, claimBlock)
	keys := make([]uint32, n)
	bad := make([]int, opt.Workers) // bad[w] = lowest non-finite position worker w met
	var blockCursor xsync.Counter
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			quant := tree.Quantizer()
			sm := core.NewSummarizer(cfg, quant)
			bad[w] = n
			for {
				bi := blockCursor.Next()
				if int(bi) >= len(blocks) {
					break
				}
				blk := blocks[bi]
				for i := blk.Lo; i < blk.Hi; i++ {
					dst := sax.At(i)
					coeffs := sm.PAA(coll.At(i))
					if !finite(coeffs) {
						bad[w] = min(bad[w], i)
						continue
					}
					quant.SymbolsInto(coeffs, dst)
					keys[i] = tree.RootKey(dst)
				}
			}
		}(w)
	}
	wg.Wait()
	if first := slices.Min(bad); first < n {
		return nil, &NonFiniteError{Pos: first}
	}
	ix.build.Summarize = time.Since(start)

	// Stage 2: a counting sort of the positions by root key (begin[k] counts
	// key k, the prefix sums make it the run's end, and placing positions
	// backwards walks it to the start), then one worker per non-empty key,
	// claimed in ascending order. No step depends on the schedule, so builds
	// over identical content (a view vs a flat copy) encode byte-identically.
	t0 := time.Now()
	begin := make([]int32, cfg.RootFanout()+1)
	for _, k := range keys {
		begin[k]++
	}
	for k := 1; k < len(begin); k++ {
		begin[k] += begin[k-1]
	}
	order := make([]int32, n)
	for i := n - 1; i >= 0; i-- { // backwards, so each key's positions ascend
		begin[keys[i]]--
		order[begin[keys[i]]] = int32(i)
	}
	var occupied []uint32
	for k := range cfg.RootFanout() {
		if begin[k+1] > begin[k] {
			occupied = append(occupied, uint32(k))
		}
	}
	var keyCursor xsync.Counter
	wg = sync.WaitGroup{}
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ki := keyCursor.Next()
				if int(ki) >= len(occupied) {
					return
				}
				key := occupied[ki]
				for _, pos := range order[begin[key]:begin[key+1]] {
					tree.SubtreeInsert(key, sax.At(int(pos)), pos)
				}
				// Leaf-ordered storage: once the subtree's shape is final
				// (no more splits), copy each leaf's series into one
				// contiguous block — materializing after the build avoids
				// re-copying raw values through every intermediate split.
				if !opt.DisableLeafRaw {
					tree.Subtree(key).MaterializeLeaves(cfg.SeriesLen,
						func(pos int32) []float32 { return coll.At(int(pos)) })
				}
			}
		}()
	}
	wg.Wait()
	tree.SortOccupied()
	ix.build.TreeBuild = time.Since(t0)
	ix.build.Total = time.Since(start)
	ix.initLive(tree, sax, 0)
	return ix, nil
}

// NonFiniteError is Build's and Decode's refusal of a collection that holds
// a NaN or an infinity: Pos is the lowest such series' position in the
// collection they were given.
type NonFiniteError struct{ Pos int }

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("messi: series %d holds a NaN or an infinity", e.Pos)
}

// finite reports whether every PAA coefficient is a finite number. Their
// sum cannot overflow (each is a mean of float32 values), so it is finite
// exactly when they all are; and x−x is 0 for a finite x, NaN otherwise.
func finite(coeffs []float64) bool {
	var sum float64
	for _, c := range coeffs {
		sum += c
	}
	return sum-sum == 0
}

// Count returns the number of series the index answers over: the base
// collection plus every published append (merged or not).
func (ix *Index) Count() int { return ix.baseLen + int(ix.appended.Load()) }

// Tree exposes the current snapshot's tree for diagnostics and tests. It
// covers the base collection plus the merged part of the delta buffer.
func (ix *Index) Tree() *core.Tree { return ix.snap.Load().tree }

// BuildStats returns the creation-phase breakdown of Figure 5.
func (ix *Index) BuildStats() BuildStats { return ix.build }

// Raw returns the immutable base collection the index was built over —
// the caller's flat collection, or the view a sharding layer built this
// shard through. Appended series live in the index's own stable storage
// (see At).
func (ix *Index) Raw() series.Reader { return ix.raw }

// Rebase swaps the reader the base values are read through for one holding
// the same series at the same positions — how a tiering layer moves a built
// index's base onto a device once the build no longer needs it in RAM. It
// is not safe concurrently with anything else: call it before the index is
// shared.
func (ix *Index) Rebase(raw series.Reader) {
	if raw.Len() != ix.baseLen || raw.SeriesLen() != ix.cfg.SeriesLen {
		panic(fmt.Sprintf("messi: rebase onto %d×%d, index base is %d×%d",
			raw.Len(), raw.SeriesLen(), ix.baseLen, ix.cfg.SeriesLen))
	}
	ix.raw = raw
	ix.readBatch = series.ResolveBatchReader(raw)
}

// At returns the series at a global position: the base collection for
// positions below its length, the append store above. Every position a
// query result reports resolves through here.
func (ix *Index) At(pos int) series.Series {
	if pos < ix.baseLen {
		return ix.raw.At(pos)
	}
	return ix.store.At(pos - ix.baseLen)
}
