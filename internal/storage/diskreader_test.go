package storage

import (
	"slices"
	"sync"
	"testing"

	"dsidx/internal/series"
)

func newTestReader(t *testing.T, n, length int, opt DiskReaderOptions) (*DiskReader, *series.Collection) {
	t.Helper()
	coll := makeCollection(n, length)
	f, err := WriteCollection(NewMemStore(), coll)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewDiskReader(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r, coll
}

func TestDiskReaderMatchesCollection(t *testing.T) {
	// A budget of 2 blocks over 100 series forces constant eviction; every
	// series must still read back exactly, in any access order.
	r, coll := newTestReader(t, 100, 16, DiskReaderOptions{BlockSeries: 8, CacheBytes: 2 * 8 * 16 * 4})
	if r.Len() != coll.Len() || r.SeriesLen() != coll.SeriesLen() {
		t.Fatalf("shape = (%d,%d), want (%d,%d)", r.Len(), r.SeriesLen(), coll.Len(), coll.SeriesLen())
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < coll.Len(); i++ {
			// Alternate direction so the second pass runs anti-LRU.
			j := i
			if pass == 1 {
				j = coll.Len() - 1 - i
			}
			got, want := r.At(j), coll.At(j)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("pass %d series %d differs at %d: %v != %v", pass, j, k, got[k], want[k])
				}
			}
		}
	}
	st := r.Stats()
	if st.Evictions == 0 {
		t.Error("2-block budget over 13 blocks evicted nothing")
	}
	if st.ResidentBytes > st.CacheBytes {
		t.Errorf("resident %d exceeds budget %d", st.ResidentBytes, st.CacheBytes)
	}
}

func TestDiskReaderCacheCounters(t *testing.T) {
	r, _ := newTestReader(t, 64, 8, DiskReaderOptions{BlockSeries: 16})
	// First touch of a block: miss. Same block again: hits.
	r.At(0)
	r.At(1)
	r.At(15)
	r.At(16) // second block
	st := r.Stats()
	if st.Misses != 2 || st.Hits != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/2", st.Hits, st.Misses)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", got)
	}
	if st.Evictions != 0 {
		t.Fatalf("evictions = %d with default budget", st.Evictions)
	}
}

func TestDiskReaderBudgetClamp(t *testing.T) {
	// A budget below one block is raised to one block, so a load can never
	// evict the block it is returning.
	r, coll := newTestReader(t, 32, 8, DiskReaderOptions{BlockSeries: 16, CacheBytes: 1})
	if want := int64(16 * 8 * 4); r.Stats().CacheBytes != want {
		t.Fatalf("CacheBytes = %d, want clamped %d", r.Stats().CacheBytes, want)
	}
	for i := 0; i < coll.Len(); i++ {
		if got, want := r.At(i), coll.At(i); got[0] != want[0] {
			t.Fatalf("series %d = %v, want %v", i, got[0], want[0])
		}
	}
}

// TestDiskReaderReadBatch pins the survivor read path: candidates come back
// in device order whatever order they were handed in, candidates in one
// block or in adjacent blocks cost one device read, a refused candidate is
// never visited, and a run with no wanted candidate is never read.
func TestDiskReaderReadBatch(t *testing.T) {
	const n, length, blockSeries = 64, 8, 8
	coll := makeCollection(n, length)
	disk := NewDisk(NewMemStore(), Unthrottled)
	f, err := WriteCollection(disk, coll)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewDiskReader(f, DiskReaderOptions{BlockSeries: blockSeries})
	if err != nil {
		t.Fatal(err)
	}
	disk.ResetMetrics()

	// Blocks 0,1 (adjacent: one read), 5 (one read), 3 (refused: no read).
	pos := []int32{40, 9, 2, 10, 0, 1, 24}
	refused := 6
	var order []int32
	r.ReadBatch(slices.Clone(pos),
		func(k int) bool { return k != refused },
		func(k int, s series.Series) {
			if want := coll.At(int(pos[k])); !slices.Equal(s, want) {
				t.Errorf("k=%d (series %d) = %v, want %v", k, pos[k], s, want)
			}
			order = append(order, pos[k])
		})
	if want := []int32{0, 1, 2, 9, 10, 40}; !slices.Equal(order, want) {
		t.Fatalf("visit order %v, want ascending device order %v", order, want)
	}
	st := r.Stats()
	if st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("hits/misses = %d/%d, want 0/3 (blocks 0, 1, 5)", st.Hits, st.Misses)
	}
	if m := disk.Metrics(); m.ReadOps != 2 || m.BytesRead != 3*blockSeries*length*4 {
		t.Fatalf("device: %d reads, %d bytes; want 2 reads (blocks 0+1 coalesced, block 5), %d bytes",
			m.ReadOps, m.BytesRead, 3*blockSeries*length*4)
	}
	// The loaded blocks are now hits; a cold block between two cached ones
	// is still a single read of its own.
	r.ReadBatch([]int32{0, 9, 16}, func(int) bool { return true }, func(int, series.Series) {})
	if st = r.Stats(); st.Misses != 4 || st.Hits != 2 {
		t.Fatalf("second batch: hits/misses = %d/%d, want 2/4", st.Hits, st.Misses)
	}
	if ops := disk.Metrics().ReadOps; ops != 3 {
		t.Fatalf("second batch: %d device reads in total, want 3", ops)
	}
	// A refused candidate does not extend a run: 24 (block 3) is wanted, its
	// neighbour 32 (block 4) is not — one block is read, not two.
	r.ReadBatch([]int32{24, 32}, func(k int) bool { return k == 0 },
		func(k int, _ series.Series) {
			if k != 0 {
				t.Error("refused candidate visited")
			}
		})
	if st = r.Stats(); st.Misses != 5 {
		t.Fatalf("refused neighbour: %d misses, want 5 (block 3 only)", st.Misses)
	}
	if m := disk.Metrics(); m.ReadOps != 4 || m.BytesRead != 5*blockSeries*length*4 {
		t.Fatalf("refused neighbour: %d device reads, %d bytes; want 4 reads, %d bytes",
			m.ReadOps, m.BytesRead, 5*blockSeries*length*4)
	}
	// Nothing wanted: nothing touched.
	r.ReadBatch([]int32{32, 33, 56}, func(int) bool { return false },
		func(k int, _ series.Series) { t.Errorf("refused k=%d visited", k) })
	if ops := disk.Metrics().ReadOps; ops != 4 {
		t.Fatalf("all-refused batch read the device: %d reads, want 4", ops)
	}
}

// TestDiskReaderReadBatchOverBudget: a run longer than the cache budget
// still delivers every candidate — the caller holds its blocks while the
// cache forgets all but the budget's worth.
func TestDiskReaderReadBatchOverBudget(t *testing.T) {
	r, coll := newTestReader(t, 64, 8, DiskReaderOptions{BlockSeries: 4, CacheBytes: 1})
	pos := make([]int32, 40)
	for i := range pos {
		pos[i] = int32(i)
	}
	seen := 0
	r.ReadBatch(slices.Clone(pos), func(int) bool { return true }, func(k int, s series.Series) {
		if !slices.Equal(s, coll.At(k)) {
			t.Errorf("series %d = %v, want %v", k, s, coll.At(k))
		}
		seen++
	})
	if seen != len(pos) {
		t.Fatalf("visited %d of %d", seen, len(pos))
	}
	if st := r.Stats(); st.ResidentBytes > st.CacheBytes || st.Evictions != 9 {
		t.Fatalf("after a 10-block run through a 1-block cache: resident %d of %d, %d evictions (want 9)",
			st.ResidentBytes, st.CacheBytes, st.Evictions)
	}
}

// TestDiskReaderReadBatchSingleFlight races overlapping batch reads and
// plain At calls over one cold region: every value must come back correct
// and, with room for everything, each block must be loaded exactly once —
// a run that overlaps another reader's pending blocks waits for them
// instead of reading them again, and nobody deadlocks.
func TestDiskReaderReadBatchSingleFlight(t *testing.T) {
	const n, length, blockSeries = 256, 8, 4
	coll := makeCollection(n, length)
	disk := NewDisk(NewMemStore(), Unthrottled)
	f, err := WriteCollection(disk, coll)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewDiskReader(f, DiskReaderOptions{BlockSeries: blockSeries})
	if err != nil {
		t.Fatal(err)
	}
	disk.ResetMetrics()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Windows of 24 series starting every 8, offset per goroutine,
			// so neighbouring goroutines' runs overlap by several blocks.
			for lo := w % 8; lo+24 <= n; lo += 8 {
				pos := make([]int32, 0, 12)
				for p := lo; p < lo+24; p += 2 {
					pos = append(pos, int32(p))
				}
				src := slices.Clone(pos)
				r.ReadBatch(pos, func(int) bool { return true }, func(k int, s series.Series) {
					if !slices.Equal(s, coll.At(int(src[k]))) {
						t.Errorf("series %d read back wrong", src[k])
					}
				})
				if got := r.At(lo + 1); !slices.Equal(got, coll.At(lo+1)) {
					t.Errorf("At(%d) read back wrong", lo+1)
				}
			}
		}()
	}
	wg.Wait()
	if st := r.Stats(); st.Misses != n/blockSeries {
		t.Fatalf("misses = %d under 8 racing readers, want %d (single-flight)", st.Misses, n/blockSeries)
	}
	if m := disk.Metrics(); m.ReadOps > n/blockSeries || m.BytesRead != n*length*4 {
		t.Fatalf("device: %d reads, %d bytes; want ≤ %d reads and exactly %d bytes",
			m.ReadOps, m.BytesRead, n/blockSeries, n*length*4)
	}
}

// TestDiskReaderSingleFlight hammers one cold region from many goroutines:
// values must come back correct and each block must be read off the device
// exactly once (misses == block count despite the concurrency).
func TestDiskReaderSingleFlight(t *testing.T) {
	const n, length, blockSeries = 256, 8, 16
	coll := makeCollection(n, length)
	disk := NewDisk(NewMemStore(), Unthrottled)
	f, err := WriteCollection(disk, coll)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewDiskReader(f, DiskReaderOptions{BlockSeries: blockSeries})
	if err != nil {
		t.Fatal(err)
	}
	disk.ResetMetrics() // drop the staging writes; count only cache loads

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if got, want := r.At(i), coll.At(i); got[3] != want[3] {
					t.Errorf("series %d = %v, want %v", i, got[3], want[3])
					return
				}
			}
		}()
	}
	wg.Wait()
	st := r.Stats()
	if want := uint64(n / blockSeries); st.Misses != want {
		t.Fatalf("misses = %d under 8 readers, want %d (single-flight)", st.Misses, want)
	}
	if ops := disk.Metrics().ReadOps; ops != int64(n/blockSeries) {
		t.Fatalf("device read ops = %d, want %d", ops, n/blockSeries)
	}
}

// TestDiskReaderDifferentialFileStore reads the same collection through a
// DiskReader over a FileStore and over a MemStore: every series must be
// bit-identical to the source — the float32 → LE bytes → float32 round trip
// is exact on both backends.
func TestDiskReaderDifferentialFileStore(t *testing.T) {
	coll := makeCollection(50, 24)
	fs, err := OpenFileStore(t.TempDir() + "/series.dsf")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	readers := make([]*DiskReader, 2)
	for i, store := range []Store{fs, Store(NewMemStore())} {
		f, err := WriteCollection(store, coll)
		if err != nil {
			t.Fatal(err)
		}
		readers[i], err = NewDiskReader(f, DiskReaderOptions{BlockSeries: 7, CacheBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < coll.Len(); i++ {
		want := coll.At(i)
		a, b := readers[0].At(i), readers[1].At(i)
		for k := range want {
			if a[k] != want[k] || b[k] != want[k] {
				t.Fatalf("series %d point %d: file %v, mem %v, want %v", i, k, a[k], b[k], want[k])
			}
		}
	}
}
