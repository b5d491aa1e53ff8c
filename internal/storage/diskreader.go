package storage

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"dsidx/internal/series"
)

// DiskReader serves a series collection straight off a device through a
// fixed-budget block cache, implementing series.Reader so an index builds
// over and refines against cold data with no index-side changes — the
// out-of-core tier behind shard.Options.ColdStorage. The tree, SAX
// summaries and any materialized hot leaf blocks stay resident in RAM;
// only the base values live on the device.
//
// The cache holds aligned runs of BlockSeries consecutive series (LRU over
// whole blocks, bounded by CacheBytes), so one device read amortizes over a
// run and repeated refinement of hot leaves does not pay device time twice.
// Loads are single-flight: concurrent At and ReadBatch calls for the same
// cold block share one device read, and ReadBatch fetches adjacent cold
// blocks in a single read.
//
// At returns slices into cached blocks; eviction only drops the cache's
// reference, so values a caller still holds stay valid (the Reader contract:
// retainers must copy). A device I/O error in At fails the access, not the
// process: transient faults are retried with capped exponential backoff per
// the reader's RetryPolicy, and on exhaustion (or a permanent fault) At
// panics with a typed *BlockError — the Reader surface has no error channel,
// so the error rides a panic that the engine's task boundaries recover into
// a per-query error. Nothing poisons the cache: a failed block is dropped,
// so a later access retries the device.
type DiskReader struct {
	file        *SeriesFile
	count       int
	length      int
	blockSeries int
	budget      int64
	retry       RetryPolicy

	// The counters live under mu with the block map, so a Stats snapshot
	// is one consistent cut of the cache: a resident block's miss is
	// always counted in the same snapshot that sees it resident. (They
	// were previously bumped outside the lock, which let a snapshot see
	// the block before its miss.)
	mu                      sync.Mutex
	hits, misses, evictions uint64
	retries                 uint64
	transient, permanent    uint64
	blocks                  map[int]*cacheBlock
	lru                     cacheBlock // sentinel: lru.next is most recent, lru.prev least
	resident                int64

	// bufs recycles the encoded-bytes staging buffer of a device read (a
	// *[]byte): only the decoded values outlive a load.
	bufs sync.Pool
}

// DefaultCacheBytes and DefaultBlockSeries are the DiskReaderOptions zero
// defaults: a 4 MiB budget over 8-series blocks. The block size is the
// winner of BenchmarkColdBlockSweep (internal/shard; table in
// EXPERIMENTS.md): with the device file in leaf order a query's candidates
// arrive in leaf-sized runs, and a block much longer than a run only adds
// bytes nobody refines — 64-series blocks read 3.3× the bytes of 8-series
// ones for 0.73× the reads, and cost more device time in total.
const (
	DefaultCacheBytes  = 4 << 20
	DefaultBlockSeries = 8
)

// RetryPolicy governs how a DiskReader re-reads a block after a transient
// device fault: up to MaxRetries re-reads, sleeping RetryBackoff before the
// first and doubling per attempt (1, 2, 4 ms: ~7 ms in all). Permanent
// faults and unclassified errors are never retried — only failures the
// store explicitly marked transient (see IsTransient).
type RetryPolicy struct {
	// Sleep replaces time.Sleep (nil means time.Sleep), letting tests run
	// backoff schedules instantly while still observing them.
	Sleep func(time.Duration)
}

// The retry schedule: three quick re-reads after the first failure.
const (
	MaxRetries   = 3
	RetryBackoff = time.Millisecond
)

func (p RetryPolicy) normalize() RetryPolicy {
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// DiskReaderOptions sizes the block cache and configures fault handling.
type DiskReaderOptions struct {
	// CacheBytes is the cache budget in bytes of decoded values (0 means
	// DefaultCacheBytes). The budget is raised to at least one block.
	CacheBytes int64
	// BlockSeries is the number of consecutive series per cached block —
	// the device-read batch size (0 means DefaultBlockSeries).
	BlockSeries int
	// Retry governs transient-fault re-reads (the zero value sleeps for
	// real).
	Retry RetryPolicy
}

// CacheStats is a snapshot of the block cache's counters.
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	ResidentBytes int64
	CacheBytes    int64
	BlockSeries   int
	// Retries counts block re-reads after transient faults;
	// TransientFaults and PermanentFaults count block loads that failed
	// with each class after retries were exhausted (or skipped).
	Retries         uint64
	TransientFaults uint64
	PermanentFaults uint64
}

// HitRate returns hits/(hits+misses), 0 before any access.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// BlockError is the typed panic payload of a DiskReader access that failed
// after retries: the block, the fault class of the final attempt, and the
// underlying error. The engine's task boundaries recover it into a
// per-query error; the shard layer counts it in the failing shard's health,
// by class.
type BlockError struct {
	Block int
	Class FaultClass
	Err   error
}

func (e *BlockError) Error() string {
	return fmt.Sprintf("storage: disk reader block %d (%s): %v", e.Block, e.Class, e.Err)
}

func (e *BlockError) Unwrap() error { return e.Err }

// cacheBlock is one aligned run of decoded series. vals and err are written
// by the single loading goroutine before ready closes and only read after
// it, so waiters need no lock.
type cacheBlock struct {
	idx        int
	bytes      int64
	vals       []float32
	err        *BlockError
	ready      chan struct{}
	prev, next *cacheBlock
}

// NewDiskReader wraps an open series file in a block cache.
func NewDiskReader(f *SeriesFile, opt DiskReaderOptions) (*DiskReader, error) {
	if f.Count() > math.MaxInt32 {
		return nil, fmt.Errorf("storage: %d series exceed int32 positions", f.Count())
	}
	if opt.BlockSeries <= 0 {
		opt.BlockSeries = DefaultBlockSeries
	}
	if opt.CacheBytes <= 0 {
		opt.CacheBytes = DefaultCacheBytes
	}
	r := &DiskReader{
		file:        f,
		count:       int(f.Count()),
		length:      f.Length(),
		blockSeries: opt.BlockSeries,
		budget:      opt.CacheBytes,
		retry:       opt.Retry.normalize(),
		blocks:      make(map[int]*cacheBlock),
	}
	// The block being returned must be cacheable, or every access at a
	// sub-block budget would evict what it just loaded.
	if minBudget := int64(opt.BlockSeries) * int64(f.Length()) * 4; r.budget < minBudget {
		r.budget = minBudget
	}
	r.lru.prev, r.lru.next = &r.lru, &r.lru
	return r, nil
}

var (
	_ series.Reader      = (*DiskReader)(nil)
	_ series.BatchReader = (*DiskReader)(nil)
)

// Len returns the number of series.
func (r *DiskReader) Len() int { return r.count }

// SeriesLen returns the number of points per series.
func (r *DiskReader) SeriesLen() int { return r.length }

// At returns series i, reading its block off the device if cold. The
// returned slice aliases the cached block; it stays valid after eviction
// (the backing array lives while referenced) but callers that retain it
// must copy, per the Reader contract. A device fault that survives the
// retry policy panics with *BlockError; engine task boundaries recover it
// into a per-query error.
func (r *DiskReader) At(i int) series.Series {
	var one [1]*cacheBlock
	idx := i / r.blockSeries
	if err := r.acquire(idx, one[:]); err != nil {
		panic(err)
	}
	return r.seriesIn(one[0], i)
}

// seriesIn slices series i out of the block that holds it.
func (r *DiskReader) seriesIn(b *cacheBlock, i int) series.Series {
	lo := (i % r.blockSeries) * r.length
	return series.Series(b.vals[lo : lo+r.length : lo+r.length])
}

// ReadBatch implements series.BatchReader, the read path of a query that
// has already run its lower bounds: the candidates are visited in ascending
// device order, candidates sharing a block or sitting in adjacent blocks
// form one run, and the cold blocks of a run are fetched with a single
// device read. want is consulted as a run is assembled and again before each
// visit, so a candidate the query's tightening threshold has meanwhile
// pruned neither extends a run nor costs a read of its own; a run none of
// whose candidates is wanted is never touched. Faults surface exactly as in
// At: a *BlockError panic.
func (r *DiskReader) ReadBatch(pos []int32, want func(k int) bool, visit func(k int, s series.Series)) {
	var orderBuf [16]int32
	order := orderBuf[:0]
	for k := range pos {
		order = append(order, int32(k))
	}
	slices.SortFunc(order, func(a, b int32) int { return int(pos[a]) - int(pos[b]) })
	var runBuf [4]*cacheBlock
	for i := 0; i < len(order); {
		if !want(int(order[i])) {
			i++
			continue
		}
		first := int(pos[order[i]]) / r.blockSeries
		last, j := first, i+1
		for ; j < len(order); j++ {
			if !want(int(order[j])) {
				continue
			}
			b := int(pos[order[j]]) / r.blockSeries
			if b > last+1 {
				break
			}
			last = b
		}
		run := runBuf[:]
		if n := last - first + 1; n <= len(runBuf) {
			run = run[:n]
		} else {
			run = make([]*cacheBlock, n)
		}
		if err := r.acquire(first, run); err != nil {
			panic(err)
		}
		for ; i < j; i++ {
			k := int(order[i])
			if want(k) {
				p := int(pos[k])
				visit(k, r.seriesIn(run[p/r.blockSeries-first], p))
			}
		}
	}
}

// Stats snapshots the cache counters — one consistent cut under the
// cache lock, so Evictions never exceeds Misses, ResidentBytes matches
// the counted blocks, and monotonic counters never regress between
// snapshots.
func (r *DiskReader) Stats() CacheStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return CacheStats{
		Hits:            r.hits,
		Misses:          r.misses,
		Evictions:       r.evictions,
		ResidentBytes:   r.resident,
		CacheBytes:      r.budget,
		BlockSeries:     r.blockSeries,
		Retries:         r.retries,
		TransientFaults: r.transient,
		PermanentFaults: r.permanent,
	}
}

// acquire fills out with the consecutive blocks first, first+1, …, each
// loaded once no matter how many goroutines ask: a miss installs a
// not-yet-ready entry under the lock, every maximal stretch of adjacent
// misses is then read off the device in one operation outside it, and
// concurrent callers that find an entry wait on its ready channel. A caller
// loads its own misses before waiting on anyone else's, so two overlapping
// acquires cannot wait on each other. A failed load is reported to the
// loader and every waiter alike, and its entries are dropped so the next
// access re-reads the device.
func (r *DiskReader) acquire(first int, out []*cacheBlock) error {
	var mineBuf [4]bool
	mine := mineBuf[:0]
	if len(out) > len(mineBuf) {
		mine = make([]bool, 0, len(out))
	}
	missed := false
	r.mu.Lock()
	for i := range out {
		idx := first + i
		b, ok := r.blocks[idx]
		if ok {
			r.moveToFront(b)
			r.hits++
		} else {
			start := idx * r.blockSeries
			b = &cacheBlock{
				idx:   idx,
				bytes: int64(min(r.blockSeries, r.count-start)) * int64(r.length) * 4,
				ready: make(chan struct{}),
			}
			r.blocks[idx] = b
			r.pushFront(b)
			r.resident += b.bytes
			r.misses++
			missed = true
		}
		out[i] = b
		mine = append(mine, !ok)
	}
	if missed {
		r.evictLocked(out[len(out)-1])
	}
	r.mu.Unlock()

	for i := 0; missed && i < len(out); {
		if !mine[i] {
			i++
			continue
		}
		j := i + 1
		for j < len(out) && mine[j] {
			j++
		}
		r.loadRun(out[i:j])
		i = j
	}
	for _, b := range out {
		<-b.ready
		if b.err != nil {
			return b.err
		}
	}
	return nil
}

// loadRun reads the adjacent not-yet-ready blocks run with one device
// operation and publishes them. The encoded bytes pass through a pooled
// buffer; each block decodes into an array of its own, so evicting one block
// of a run frees its memory. A coalesced read that fails is repeated block
// by block, so only the block the device cannot deliver fails, under its own
// index, and its healthy neighbours load.
func (r *DiskReader) loadRun(run []*cacheBlock) {
	var total int64
	for _, b := range run {
		total += b.bytes
	}
	bp, _ := r.bufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	if int64(cap(*bp)) < total {
		*bp = make([]byte, total)
	}
	buf := (*bp)[:total]
	defer r.bufs.Put(bp)

	if err := r.load(buf, int64(run[0].idx)*int64(r.blockSeries)); err != nil {
		if len(run) > 1 {
			for i := range run {
				r.loadRun(run[i : i+1])
			}
			return
		}
		b := run[0]
		class := FaultPermanent
		if IsTransient(err) {
			class = FaultTransient
		}
		b.err = &BlockError{Block: b.idx, Class: class, Err: err}
		r.mu.Lock()
		if class == FaultTransient {
			r.transient++
		} else {
			r.permanent++
		}
		// Drop the failed entry (unless eviction already did, or a later
		// miss replaced it) so a retry re-reads the device.
		if r.blocks[b.idx] == b {
			delete(r.blocks, b.idx)
			r.unlink(b)
			r.resident -= b.bytes
		}
		r.mu.Unlock()
		close(b.ready)
		return
	}
	for _, b := range run {
		b.vals = make([]float32, b.bytes/4)
		DecodeFloat32(b.vals, buf[:b.bytes])
		buf = buf[b.bytes:]
		close(b.ready)
	}
}

// load performs the device read with the retry policy: transient faults
// are re-read up to MaxRetries times under exponential backoff; anything
// else fails immediately.
func (r *DiskReader) load(buf []byte, start int64) error {
	backoff := RetryBackoff
	for attempt := 0; ; attempt++ {
		err := r.file.ReadBatchBytesInto(buf, start)
		if err == nil {
			return nil
		}
		if !IsTransient(err) || attempt >= MaxRetries {
			return err
		}
		r.mu.Lock()
		r.retries++
		r.mu.Unlock()
		r.retry.Sleep(backoff)
		backoff *= 2
	}
}

// evictLocked drops least-recently-used blocks until the budget holds,
// never evicting keep (the block the caller is about to return). Evicting
// a block that is still loading is safe: its loader and waiters hold their
// own reference; only the cache forgets it.
func (r *DiskReader) evictLocked(keep *cacheBlock) {
	for r.resident > r.budget {
		b := r.lru.prev
		if b == &r.lru || b == keep {
			return
		}
		delete(r.blocks, b.idx)
		r.unlink(b)
		r.resident -= b.bytes
		r.evictions++
	}
}

func (r *DiskReader) pushFront(b *cacheBlock) {
	b.prev, b.next = &r.lru, r.lru.next
	b.prev.next, b.next.prev = b, b
}

func (r *DiskReader) unlink(b *cacheBlock) {
	b.prev.next, b.next.prev = b.next, b.prev
	b.prev, b.next = nil, nil
}

func (r *DiskReader) moveToFront(b *cacheBlock) {
	if r.lru.next == b {
		return
	}
	b.prev.next, b.next.prev = b.next, b.prev
	r.pushFront(b)
}
