package series

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ChunkedRows is an append-only store of fixed-width rows that supports
// concurrent readers while writers append — the storage engine behind the
// live-ingestion write path. Rows live in fixed-size chunks that are
// allocated once and never moved, so a row view returned by At remains
// valid — and bit-identical — forever, no matter how much the store grows
// afterwards (a flat slice cannot offer that: growing it reallocates the
// backing array under concurrent readers). The chunk directory grows
// copy-on-write behind an atomic pointer.
//
// Concurrency contract: Append is safe for concurrent use (appends are
// serialized internally and positions are assigned in publication order).
// At(i) is safe concurrently with appends for any i below a Len value the
// reader has already observed: Len's atomic load acquires every row write
// published before it. Callers may also gate visibility with their own
// published counter (the index's append count), as long as rows are
// appended before that counter advances.
type ChunkedRows[T any] struct {
	width    int // elements per row
	chunkCap int // rows per chunk

	mu  sync.Mutex // serializes appenders
	dir atomic.Pointer[[][]T]
	n   atomic.Int64
}

// defaultChunkCap is the chunk size in rows when NewChunkedRows is given 0:
// large enough to amortize directory growth, small enough that a mostly
// idle delta buffer does not pin megabytes.
const defaultChunkCap = 1024

// NewChunkedRows creates an empty store of rows with the given width.
// chunkCap is the chunk size in rows (0 means 1024).
func NewChunkedRows[T any](width, chunkCap int) *ChunkedRows[T] {
	if width <= 0 {
		panic(fmt.Sprintf("series: invalid chunked row width %d", width))
	}
	if chunkCap <= 0 {
		chunkCap = defaultChunkCap
	}
	c := &ChunkedRows[T]{width: width, chunkCap: chunkCap}
	empty := make([][]T, 0)
	c.dir.Store(&empty)
	return c
}

// Len returns the number of appended rows. The load acquires: every write
// of rows [0, Len) is visible to the caller afterwards.
func (c *ChunkedRows[T]) Len() int { return int(c.n.Load()) }

// Width returns the number of elements in each row.
func (c *ChunkedRows[T]) Width() int { return c.width }

// Append copies row into the store and returns its position. Positions are
// assigned and published in order: when Append returns p, every row in
// [0, p] is visible to readers.
func (c *ChunkedRows[T]) Append(row []T) int {
	if len(row) != c.width {
		panic(fmt.Sprintf("series: ChunkedRows.Append width mismatch %d != %d", len(row), c.width))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := int(c.n.Load())
	ci := n / c.chunkCap
	dir := *c.dir.Load()
	if ci == len(dir) {
		// Grow the directory copy-on-write so readers holding the old
		// directory keep a consistent view; chunks themselves never move.
		grown := make([][]T, len(dir)+1)
		copy(grown, dir)
		grown[len(dir)] = make([]T, c.chunkCap*c.width)
		c.dir.Store(&grown)
		dir = grown
	}
	off := (n % c.chunkCap) * c.width
	copy(dir[ci][off:off+c.width], row)
	c.n.Store(int64(n + 1)) // release: row values precede the new length
	return n
}

// At returns row i as a capacity-capped view into its chunk. The view is
// stable: chunks are never reallocated. i must be below a Len value the
// caller observed.
func (c *ChunkedRows[T]) At(i int) []T {
	dir := *c.dir.Load()
	ci := i / c.chunkCap
	off := (i % c.chunkCap) * c.width
	return dir[ci][off : off+c.width : off+c.width]
}

// Run returns the longest contiguous run of rows starting at lo and
// capped at hi: rows [lo, lo+k) share one chunk, so they come back as a
// single flat slice of k*width elements (capacity-capped). Batched
// scans walk [lo, hi) in runs instead of chasing At row by row. lo must
// be below a Len value the caller observed; hi must not exceed one.
func (c *ChunkedRows[T]) Run(lo, hi int) (rows []T, k int) {
	dir := *c.dir.Load()
	ci := lo / c.chunkCap
	off := lo % c.chunkCap
	k = min(hi-lo, c.chunkCap-off)
	return dir[ci][off*c.width : (off+k)*c.width : (off+k)*c.width], k
}

// Chunked is an append-only collection of equal-length series over a
// ChunkedRows store: the concurrent-append counterpart of Collection used
// by the serving engine's write path.
type Chunked struct {
	rows *ChunkedRows[float32]
}

// NewChunked creates an empty chunked collection of series with the given
// length. chunkCap is the chunk size in series (0 means 1024).
func NewChunked(length, chunkCap int) *Chunked {
	return &Chunked{rows: NewChunkedRows[float32](length, chunkCap)}
}

// Len returns the number of appended series (see ChunkedRows.Len for the
// visibility guarantee).
func (c *Chunked) Len() int { return c.rows.Len() }

// SeriesLen returns the number of points in each series.
func (c *Chunked) SeriesLen() int { return c.rows.Width() }

// Append copies s into the collection and returns its position.
func (c *Chunked) Append(s Series) int { return c.rows.Append(s) }

// At returns series i as a stable view into its chunk.
func (c *Chunked) At(i int) Series { return Series(c.rows.At(i)) }
