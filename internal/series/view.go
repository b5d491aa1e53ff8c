package series

import "fmt"

// Reader is the read-only surface an index build consumes: a fixed set of
// equal-length series addressable by position. Collection implements it
// with flat contiguous storage; View implements it by remapping positions
// into another Reader's position space. Index packages accept a Reader so
// a sharding layer can build each shard directly over its slice of the
// caller's collection — no per-shard copy, the base values stay resident
// exactly once (the in-memory premise of MESSI's RawData array).
//
// Implementations must be immutable for the lifetime of any index built
// over them: At(i) must keep returning the same values, and Len must not
// shrink. At returns a live view of the underlying storage; callers that
// retain values across other operations must copy them (index builds do —
// leaf materialization copies into leaf-owned blocks).
//
// At is not required to be RAM-resident or uniform-cost: a device-backed
// Reader (storage.DiskReader) may pay a device read on a cache miss, and
// may panic on a device I/O error — there is deliberately no error return,
// so in-memory implementations stay allocation- and branch-free. Readers
// whose At can be slow should implement BatchReader (batch.go), which
// latency-sensitive callers discover via ResolveBatchReader to read a
// pruned candidate set in device order; everyone else remains oblivious.
type Reader interface {
	// Len returns the number of series.
	Len() int
	// SeriesLen returns the number of points in each series.
	SeriesLen() int
	// At returns the i-th series.
	At(i int) Series
}

// Collection satisfies Reader by construction; assert it here so the
// contract cannot drift.
var _ Reader = (*Collection)(nil)
var _ Reader = (*View)(nil)

// View is a position-remapping, read-only collection: series i of the view
// is series pos[i] of the base Reader. It holds no series data of its own —
// 4 bytes per member against a full copy of the values — which is what lets
// a sharded build index N partitions of one collection while the raw data
// stays resident once.
//
// The view shares pos with the caller (shard layers already own exactly
// this local→global map); neither side may mutate it afterwards.
type View struct {
	base Reader
	pos  []int32
}

// NewView wraps base with the given local→global position map. It panics
// if any position is out of base's range: views are built from maps the
// caller derived from the same base, so an out-of-range entry is a bug,
// not an input error.
func NewView(base Reader, pos []int32) *View {
	n := base.Len()
	for i, p := range pos {
		if p < 0 || int(p) >= n {
			panic(fmt.Sprintf("series: view position %d of %d maps to %d, base has %d", i, len(pos), p, n))
		}
	}
	return &View{base: base, pos: pos}
}

// Len returns the number of series in the view.
func (v *View) Len() int { return len(v.pos) }

// SeriesLen returns the number of points in each series.
func (v *View) SeriesLen() int { return v.base.SeriesLen() }

// At returns the i-th series of the view: series pos[i] of the base.
func (v *View) At(i int) Series { return v.base.At(int(v.pos[i])) }

// Positions exposes the local→global map: view series i is base series
// Positions()[i]. Callers must not mutate it.
func (v *View) Positions() []int32 { return v.pos }

// Base returns the Reader the view remaps into.
func (v *View) Base() Reader { return v.base }
