package shard

import (
	"fmt"
	"sort"
	"sync/atomic"

	"dsidx/internal/core"
	"dsidx/internal/series"
	"dsidx/internal/storage"
)

// The out-of-core tier. Cold shards are built (or decoded) over the in-RAM
// collection like hot ones; once their trees exist, stageCold writes their
// base series to ONE shared series file, shard after shard, each shard in
// the order of its tree's leaves — so the members of a leaf, and the leaves
// of a subtree, are neighbours on the device and a query's surviving
// candidates coalesce into few contiguous reads (the sort-and-coalesce
// lives in storage.DiskReader.ReadBatch). Nothing depends on that
// contiguity for correctness: later splits only subdivide a run, and a
// scattered candidate set is merely more reads.
//
// The only resident state the layout adds is slot, 4 bytes per base series:
// the device slot of every global base position. Every cold read resolves
// through it — a shard's refinement (coldPart), a global Sharded.At on an
// all-cold index (coldTier.At), a re-stage (region) — so there is exactly
// one position translation, local → global → slot, in each direction.

// coldTier is the device state behind every cold shard.
type coldTier struct {
	// shared is the build-time device: one disk, one series file, one
	// block-cached reader, holding every cold shard's region.
	shared *coldSrc
	// slot[g] is the slot of global base position g in the shared file; -1
	// for positions of hot shards.
	slot []int32
	// regions[si] is the first slot of shard si's region, regions[si+1] its
	// end: regions are concatenated in shard order, a hot shard's is empty.
	regions []int32
	// parts[si] is the swappable device binding cold shard si reads through
	// (nil for hot shards).
	parts []*coldPart
}

// coldSrc is one device a cold shard can be bound to: the reader its reads
// resolve through, the disk that models its latency, and the slot its file
// starts at — 0 for the shared tier, the shard's region start for a
// re-staged file, which holds that region alone in the same order.
type coldSrc struct {
	reader *storage.DiskReader
	disk   *storage.Disk
	off    int32
}

// coldPart is what a cold shard's view remaps into. It accepts GLOBAL base
// positions (the shard's view translates local→global through baseMap
// first) and resolves them against the current source as slot[g] - off. The
// source swap is a single atomic pointer store, so a re-stage never
// rebuilds the shard's messi index: in-flight queries keep reading the old
// (possibly dead, but contained) source and new ones see the fresh store.
type coldPart struct {
	tier *coldTier
	src  atomic.Pointer[coldSrc]
}

var (
	_ series.Reader      = (*coldPart)(nil)
	_ series.BatchReader = (*coldPart)(nil)
	_ series.Reader      = (*coldTier)(nil)
)

// Len spans the whole global base position space so the shard's remapping
// view validates; only the shard's own positions are ever requested.
func (p *coldPart) Len() int       { return len(p.tier.slot) }
func (p *coldPart) SeriesLen() int { return p.tier.SeriesLen() }

func (p *coldPart) At(g int) series.Series {
	src := p.src.Load()
	return src.reader.At(int(p.tier.slot[g] - src.off))
}

// ReadBatch implements series.BatchReader over global positions: resolve to
// slots (in place — pos is scratch) and let the reader order and coalesce.
func (p *coldPart) ReadBatch(pos []int32, want func(k int) bool, visit func(k int, s series.Series)) {
	src := p.src.Load()
	for i, g := range pos {
		pos[i] = p.tier.slot[g] - src.off
	}
	src.reader.ReadBatch(pos, want, visit)
}

// Len, SeriesLen and At make the tier itself the base reader of an all-cold
// index: a global position resolves to its slot, the slot to the shard
// whose region holds it, and the read goes to that shard's CURRENT source —
// so global reads follow a re-stage too.
func (t *coldTier) Len() int       { return len(t.slot) }
func (t *coldTier) SeriesLen() int { return t.shared.reader.SeriesLen() }

func (t *coldTier) At(g int) series.Series {
	sl := t.slot[g]
	si := sort.Search(len(t.parts), func(i int) bool { return t.regions[i+1] > sl })
	src := t.parts[si].src.Load()
	return src.reader.At(int(sl - src.off))
}

// region returns the global base positions of shard si in slot order — the
// inverse of slot over the shard's region, rebuilt on demand (a re-stage is
// rare; the table is resident, its inverse is not).
func (t *coldTier) region(baseMap []int32, si int) []int32 {
	lo := t.regions[si]
	order := make([]int32, t.regions[si+1]-lo)
	for _, g := range baseMap {
		order[t.slot[g]-lo] = g
	}
	return order
}

// placeCold records which shards the configuration places cold; with none,
// no tier exists at all.
func (s *Sharded) placeCold(cs *ColdStorage) {
	cold := make([]bool, s.n)
	any := false
	for si := range cold {
		cold[si] = cs.Cold == nil || cs.Cold(si)
		any = any || cold[si]
	}
	if !any {
		return // every shard placed hot: no tier to set up
	}
	s.cold = &coldTier{}
	s.coldShards = cold
}

// stageCold moves the cold shards' base values onto the device: it lays the
// shards out in leaf order (leaf.Pos order inside a leaf; merged appends,
// positions past the base, are skipped — they stay in the shard's in-RAM
// store), builds the slot table, writes the shared file, and rebases every
// cold shard's index from its in-RAM view onto a view over its coldPart.
// When every shard is cold the tier also replaces the
// flat collection as the index's base reader, so nothing references the
// caller's collection anymore — global position reads resolve through the
// cache too — and base residency shrinks to the cache budget plus the slot
// table.
func (s *Sharded) stageCold() error {
	t := s.cold
	t.slot = make([]int32, s.baseLen)
	for g := range t.slot {
		t.slot[g] = -1
	}
	t.regions = make([]int32, s.n+1)
	order := make([]int32, 0, s.baseLen)
	all := true
	for si := 0; si < s.n; si++ {
		t.regions[si] = int32(len(order))
		if !s.coldShards[si] {
			all = false
			continue
		}
		bm := s.baseMap[si]
		place := func(g int32) {
			t.slot[g] = int32(len(order))
			order = append(order, g)
		}
		s.shards[si].Tree().VisitLeaves(func(leaf *core.Node) {
			for _, p := range leaf.Pos {
				if int(p) < len(bm) {
					place(bm[p])
				}
			}
		})
		// A compacted index has physically dropped its tombstoned series
		// from the tree, but their positions still resolve: they go last.
		for _, g := range bm {
			if t.slot[g] < 0 {
				place(g)
			}
		}
	}
	t.regions[s.n] = int32(len(order))

	shared, err := stage(s.opt.ColdStorage, s.base, order)
	if err != nil {
		return fmt.Errorf("shard: staging cold tier: %w", err)
	}
	t.shared = shared
	t.parts = make([]*coldPart, s.n)
	for si := range t.parts {
		if s.coldShards[si] {
			t.parts[si] = &coldPart{tier: t}
			t.parts[si].src.Store(shared)
			s.shards[si].Rebase(series.NewView(t.parts[si], s.baseMap[si]))
		}
	}
	if all {
		s.base = t
	}
	return nil
}

// stage writes src's series at the global positions order, in that order,
// to a fresh store as one series file and stands up a block-cached reader
// over it — the one staging path, shared by the build (every cold shard's
// region, concatenated) and a re-stage (one shard's region). The write runs
// at latency scale 0: staging is construction, not a measured query.
func stage(cs *ColdStorage, src series.Reader, order []int32) (*coldSrc, error) {
	store := storage.Store(storage.NewMemStore())
	if cs.NewStore != nil {
		st, err := cs.NewStore()
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		store = st
	}
	profile := cs.Profile
	if profile == (storage.Profile{}) {
		profile = storage.Unthrottled
	}
	disk := storage.NewDisk(store, profile)
	disk.SetScale(0)
	f, err := storage.CreateSeriesFile(disk, src.SeriesLen())
	if err != nil {
		return nil, err
	}
	// Gather into batches so the simulated device sees a realistic
	// sequential stream instead of one write per series.
	const batch = 4096
	buf := series.NewCollection(min(batch, len(order)), src.SeriesLen())
	for lo := 0; lo < len(order); lo += batch {
		n := min(batch, len(order)-lo)
		for i, g := range order[lo : lo+n] {
			buf.Set(i, src.At(int(g)))
		}
		if err := f.Append(buf.Slice(0, n)); err != nil {
			return nil, err
		}
	}
	reader, err := storage.NewDiskReader(f, storage.DiskReaderOptions{
		CacheBytes:  cs.CacheBytes,
		BlockSeries: cs.BlockSeries,
		Retry:       cs.Retry,
	})
	if err != nil {
		return nil, err
	}
	disk.SetScale(1)
	return &coldSrc{reader: reader, disk: disk}, nil
}
