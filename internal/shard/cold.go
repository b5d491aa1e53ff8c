package shard

import (
	"fmt"

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
// through it — a shard's refinement (through its view) and a global
// Sharded.At on an all-cold index alike — so there is exactly one position
// translation, local → global → slot.

// coldTier is the device behind every cold shard: one disk, one series
// file, one block-cached reader. It reads GLOBAL base positions, so it is a
// series.Reader over the whole base: each cold shard's view remaps its
// local positions into it, and on an all-cold index it is the base reader
// itself.
type coldTier struct {
	reader *storage.DiskReader
	disk   *storage.Disk
	// slot[g] is the slot of global base position g in the file; -1 for
	// positions of hot shards.
	slot []int32
}

var (
	_ series.Reader      = (*coldTier)(nil)
	_ series.BatchReader = (*coldTier)(nil)
)

func (t *coldTier) Len() int               { return len(t.slot) }
func (t *coldTier) SeriesLen() int         { return t.reader.SeriesLen() }
func (t *coldTier) At(g int) series.Series { return t.reader.At(int(t.slot[g])) }

// ReadBatch implements series.BatchReader over global positions: resolve to
// slots (in place — pos is scratch) and let the reader order and coalesce.
func (t *coldTier) ReadBatch(pos []int32, want func(k int) bool, visit func(k int, s series.Series)) {
	for i, g := range pos {
		pos[i] = t.slot[g]
	}
	t.reader.ReadBatch(pos, want, visit)
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
// store), builds the slot table, writes the file, and rebases every cold
// shard's index from its in-RAM view onto a view over the tier. When every
// shard is cold the tier also replaces the flat collection as the index's
// base reader, so nothing references the caller's collection anymore —
// global position reads resolve through the cache too — and base residency
// shrinks to the cache budget plus the slot table.
func (s *Sharded) stageCold() error {
	t := s.cold
	t.slot = make([]int32, s.baseLen)
	for g := range t.slot {
		t.slot[g] = -1
	}
	order := make([]int32, 0, s.baseLen)
	place := func(g int32) {
		t.slot[g] = int32(len(order))
		order = append(order, g)
	}
	all := true
	for si := 0; si < s.n; si++ {
		if !s.coldShards[si] {
			all = false
			continue
		}
		bm := s.baseMap[si]
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
	if err := t.stage(s.opt.ColdStorage, s.base, order); err != nil {
		return fmt.Errorf("shard: staging cold tier: %w", err)
	}
	for si, cold := range s.coldShards {
		if cold {
			s.shards[si].Rebase(series.NewView(t, s.baseMap[si]))
		}
	}
	if all {
		s.base = t
	}
	return nil
}

// stage writes src's series at the global positions order, in that order,
// to the configured store as one series file and stands up the block-cached
// reader over it. The write runs at latency scale 0: staging is
// construction, not a measured query.
func (t *coldTier) stage(cs *ColdStorage, src series.Reader, order []int32) error {
	store := cs.Store
	if store == nil {
		store = storage.NewMemStore()
	}
	profile := cs.Profile
	if profile == (storage.Profile{}) {
		profile = storage.Unthrottled
	}
	disk := storage.NewDisk(store, profile)
	disk.SetScale(0)
	f, err := storage.CreateSeriesFile(disk, src.SeriesLen())
	if err != nil {
		return err
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
			return err
		}
	}
	reader, err := storage.NewDiskReader(f, storage.DiskReaderOptions{
		CacheBytes:  cs.CacheBytes,
		BlockSeries: cs.BlockSeries,
		Retry:       cs.Retry,
	})
	if err != nil {
		return err
	}
	disk.SetScale(1)
	t.reader, t.disk = reader, disk
	return nil
}
