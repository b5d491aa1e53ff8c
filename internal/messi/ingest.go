package messi

// Live ingestion: Append/AppendBatch accept new series while queries run.
//
// The write path extends the ParIS+ split between buffer filling and tree
// construction into an always-on pipeline:
//
//   - Appends land in a delta buffer — stable chunked storage for raw
//     values plus each series' full-cardinality SAX summary, computed on
//     arrival. Publication is a single atomic count: a query that observes
//     count a sees the values and summaries of every appended series below
//     a (release/acquire on the counter), and nothing ever moves.
//   - Queries union the current tree snapshot's candidates with an exact
//     scan of the unmerged delta suffix (query.go), so every answer is
//     bit-identical to a serial scan of the prefix the query observed.
//   - When the unmerged suffix reaches Options.MergeThreshold, a background
//     merge is scheduled: a buffer-fill phase groups the pending summaries
//     by root subtree (workers claim blocks with Fetch&Inc, each filling
//     its own parts — the paper's footnote-2 design), then a tree-insert
//     phase clones each affected subtree aside, inserts the new entries,
//     and installs the results into a shell copy of the tree. Both phases
//     run as tasks on the index's shared worker pool. The merged snapshot
//     is swapped in atomically; in-flight queries keep the snapshot they
//     loaded and never observe a half-merged tree.
//
// Consistency guarantees, concretely: Append returns position p only after
// series ≤ p are visible; a query observes some prefix [0, T) with T at
// least the count published before the call; merges never change answers,
// only which data structure serves them.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"dsidx/internal/core"
	"dsidx/internal/series"
	"dsidx/internal/xsync"
)

// The saxLog field (a series.ChunkedRows of summary bytes) stores the
// on-arrival summaries of appended series aligned with the series store:
// row i is the summary of appended series i. Writers append under the
// index's ingest mutex; readers may access any row below a published
// appended count.

// Append adds one series to the index and returns its position. The series
// is summarized with SAX on arrival and becomes visible to queries before
// Append returns; a background merge folds it into the tree later. Safe for
// concurrent use with queries, other appends, Flush and Close.
func (ix *Index) Append(s series.Series) (int, error) {
	if err := series.Check(s, ix.cfg.SeriesLen); err != nil {
		return 0, fmt.Errorf("messi: append %w", err)
	}
	ix.ingestMu.Lock()
	pos := ix.baseLen + int(ix.appended.Load())
	ix.ingestSM.Summarize(s, ix.ingestBf)
	ix.store.Append(s)
	ix.saxLog.Append(ix.ingestBf)
	ix.appended.Add(1) // publish: values and summary precede the count
	ix.ingestMu.Unlock()
	ix.maybeScheduleMerge()
	return pos, nil
}

// AppendBatch adds a batch of series, returning the position of the first;
// the batch occupies consecutive positions and becomes visible atomically
// (a query sees either none or all of it). A batch holding one invalid
// series lands nothing.
func (ix *Index) AppendBatch(ss []series.Series) (int, error) {
	for i, s := range ss {
		if err := series.Check(s, ix.cfg.SeriesLen); err != nil {
			return 0, fmt.Errorf("messi: append batch series %d %w", i, err)
		}
	}
	ix.ingestMu.Lock()
	start := ix.baseLen + int(ix.appended.Load())
	for _, s := range ss {
		ix.ingestSM.Summarize(s, ix.ingestBf)
		ix.store.Append(s)
		ix.saxLog.Append(ix.ingestBf)
	}
	ix.appended.Add(int64(len(ss)))
	ix.ingestMu.Unlock()
	ix.maybeScheduleMerge()
	return start, nil
}

// Pending returns the number of appended series not yet merged into the
// tree (exact-scanned by queries in the meantime). Loading the snapshot
// before the counter keeps the result non-negative when racing a
// completing merge (mergedA never exceeds a count published before it).
func (ix *Index) Pending() int {
	mergedA := ix.snap.Load().mergedA
	return int(ix.appended.Load()) - mergedA
}

// IngestStats is a snapshot of the write path's counters. Snapshots are
// internally consistent even while appenders and merges run: on a
// freshly created index Appended == Merged + Pending holds exactly, on a
// loaded one Appended counts only post-load appends (so Merged + Pending
// - Appended is the restored count, a constant). The race-stress test in
// ingest_stats_test.go pins these invariants.
type IngestStats struct {
	// Appended counts series accepted by Append/AppendBatch since the index
	// was created (or loaded).
	Appended uint64
	// Pending is the current delta-buffer size: appended series the tree
	// does not cover yet.
	Pending int
	// Merged is the number of appended series the tree covers.
	Merged int
	// Merges counts completed merge cycles (Health.MergeAborts counts the
	// abandoned ones).
	Merges uint64
	// SnapshotSwaps counts atomically installed tree snapshots — merge
	// cycles that published a new tree.
	SnapshotSwaps uint64
	// MergeThreshold is the delta size that triggers a background merge
	// (Options.MergeThreshold after defaulting).
	MergeThreshold int
	// Live and Tombstoned split the served position space: Live series a
	// full search ranges over, Tombstoned positions deleted or TTL-expired
	// (tombstone.go). Their sum is the index Count().
	Live       int
	Tombstoned int
}

// IngestStats snapshots the write path's counters.
//
// Every field is derived from two loads — the snapshot pointer, then the
// published append count — in that order, so the arithmetic relations
// between Appended, Pending and Merged hold in every snapshot. (The
// previous implementation read an independent lifetime-appends counter
// first, which could run behind the published count it was compared
// against and make Appended < Merged + Pending under concurrent
// appends.)
func (ix *Index) IngestStats() IngestStats {
	snap := ix.snap.Load()
	a := ix.appended.Load() // after snap: a >= snap.mergedA
	tombstoned := ix.tombs.Load().count()
	return IngestStats{
		Appended:       uint64(a - ix.restored),
		Pending:        int(a) - snap.mergedA,
		Merged:         snap.mergedA,
		Merges:         ix.merges.Load(),
		SnapshotSwaps:  ix.snapSwaps.Load(),
		MergeThreshold: ix.opt.MergeThreshold,
		Live:           ix.baseLen + int(a) - tombstoned,
		Tombstoned:     tombstoned,
	}
}

// maybeScheduleMerge starts the background merge job if the delta has
// reached the threshold and no job is active. After Close the job cannot be
// scheduled (the engine refuses background work during shutdown); the delta
// keeps absorbing appends and Flush remains available.
func (ix *Index) maybeScheduleMerge() {
	if ix.Pending() < ix.opt.MergeThreshold {
		return
	}
	if !ix.merging.CompareAndSwap(false, true) {
		return
	}
	if !ix.eng.Go(ix.backgroundMerge) {
		ix.merging.Store(false)
	}
}

// backgroundMerge drains the delta while it stays above the threshold. The
// deactivate-recheck loop closes the window where an append lands after the
// last merge but before the active flag drops, which would otherwise strand
// a full delta with no scheduled job. The job also exits as soon as the
// engine starts closing: Close waits for background jobs, and a sustained
// append stream could otherwise keep Pending above the threshold forever
// and deadlock the shutdown; whatever remains in the delta stays exactly
// searchable and mergeable via Flush.
func (ix *Index) backgroundMerge() {
	for {
		for ix.Pending() >= ix.opt.MergeThreshold && !ix.eng.Closing() {
			if !ix.mergeOnce() {
				// A merge task panicked; the cycle was aborted without
				// installing anything. Give up this job instead of
				// hot-looping on a persistent failure — the next append
				// (or Flush) schedules a fresh attempt.
				ix.merging.Store(false)
				return
			}
		}
		ix.merging.Store(false)
		if ix.eng.Closing() || ix.Pending() < ix.opt.MergeThreshold ||
			!ix.merging.CompareAndSwap(false, true) {
			return
		}
	}
}

// Flush merges every series appended before the call into the tree,
// synchronously. Concurrent appends may leave new pending series behind;
// concurrent background merges are coordinated with, not duplicated. A
// merge cycle aborted by a contained task panic stops the Flush early —
// the pending delta stays exactly searchable, and Health.MergeAborts
// records the failure.
func (ix *Index) Flush() {
	target := int(ix.appended.Load())
	for ix.snap.Load().mergedA < target {
		if !ix.mergeOnce() {
			return
		}
	}
}

// mergeOnce folds the published delta suffix into the tree: buffer-fill
// groups pending entries by root subtree, tree-insert rebuilds affected
// subtrees aside, and the new snapshot is installed atomically. Merges are
// serialized; queries are never blocked — they either hold the old
// snapshot or pick up the new one on their next call.
//
// It reports whether the cycle completed. A panic in either phase's tasks
// is contained at the Group boundary; the cycle is then aborted before the
// snapshot install — the half-built tree is discarded, the previous
// snapshot keeps serving, the delta stays exact-searchable — and
// MergeAborts is bumped.
func (ix *Index) mergeOnce() bool {
	ix.mergeMu.Lock()
	defer ix.mergeMu.Unlock()
	old := ix.snap.Load()
	total := int(ix.appended.Load())
	lo := old.mergedA
	if lo >= total {
		return true // a concurrent mergeOnce already covered this suffix
	}
	// One tombstone snapshot for the whole cycle: rebuilt subtrees drop
	// entries it marks, and marked pending entries are not inserted. Bits
	// set after this load stay in the published set — queries filter them —
	// so a racing Delete loses nothing.
	tombs := ix.tombs.Load()
	pending := total - lo
	blocks := xsync.Blocks(pending, claimBlock)
	workers := min(ix.eng.Workers(), len(blocks))

	// Phase 1 — buffer fill (ParIS+ stage 1): workers claim blocks of the
	// delta suffix with Fetch&Inc and group positions by root key into
	// their own parts; no synchronization on the buffers themselves.
	parts := make([]map[uint32][]int32, workers)
	var cursor xsync.Counter
	g := ix.eng.NewGroup()
	for wk := 0; wk < workers; wk++ {
		wk := wk
		g.Submit(func() {
			mine := make(map[uint32][]int32, 64)
			for {
				bi := cursor.Next()
				if int(bi) >= len(blocks) {
					break
				}
				blk := blocks[bi]
				for i := blk.Lo; i < blk.Hi; i++ {
					ai := int32(lo + i)
					key := old.tree.RootKey(ix.saxLog.At(int(ai)))
					mine[key] = append(mine[key], ai)
				}
			}
			parts[wk] = mine
		})
	}
	g.Wait()
	if g.Err() != nil {
		ix.mergeAborts.Add(1)
		return false
	}

	keySet := make(map[uint32]struct{}, 64)
	for _, part := range parts {
		for key := range part {
			keySet[key] = struct{}{}
		}
	}
	keys := make([]uint32, 0, len(keySet))
	for key := range keySet {
		keys = append(keys, key)
	}
	// Sorted claim order keeps serial merges deterministic (see the same
	// step in Build): newly created subtrees land in the occupied list in
	// key order, so equivalent indexes keep encoding identically.
	slices.Sort(keys)

	// Phase 2 — tree insert (ParIS+ stage 2): workers claim affected root
	// keys with Fetch&Inc; each clones the old subtree aside, inserts the
	// new entries, and installs the result into a shell copy of the tree.
	// Untouched subtrees are shared between the old and new snapshot. On a
	// materialized index the inserts carry each merged series' raw values
	// into the destination leaf (and through any splits), so leaf-ordered
	// storage survives merge cycles: a refined leaf streams its merged-in
	// entries exactly like its build-time ones.
	next := old.tree.CloneShell()
	var keyCursor xsync.Counter
	g = ix.eng.NewGroup()
	for wk := 0; wk < min(ix.eng.Workers(), len(keys)); wk++ {
		g.Submit(func() {
			for {
				ki := keyCursor.Next()
				if int(ki) >= len(keys) {
					return
				}
				key := keys[ki]
				if tombs.count() > 0 {
					// Rebuilding anyway — drop tombstoned entries from the
					// copy (deletes compact for free on subtrees merges
					// touch; Compact sweeps the rest).
					next.SetSubtree(key, old.tree.CloneSubtreeFiltered(key, tombs.has))
				} else {
					next.SetSubtree(key, old.tree.Subtree(key).Clone())
				}
				for _, part := range parts {
					for _, ai := range part[key] {
						if tombs.has(int32(ix.baseLen) + ai) {
							continue // deleted while pending: never enters the tree
						}
						if ix.opt.DisableLeafRaw {
							next.SubtreeInsert(key, ix.saxLog.At(int(ai)), int32(ix.baseLen)+ai)
						} else {
							next.SubtreeInsertRaw(key, ix.saxLog.At(int(ai)), int32(ix.baseLen)+ai,
								ix.store.At(int(ai)))
						}
					}
				}
			}
		})
	}
	g.Wait()
	if g.Err() != nil {
		// A tree-insert task panicked: next may hold half-inserted
		// subtrees. Installing it would serve silently wrong answers —
		// dropping it serves the previous snapshot, still exact.
		ix.mergeAborts.Add(1)
		return false
	}

	// No summary copying: the flat SAX rows of the merged prefix stay in
	// baseSAX and the saxLog, both immutable below the published counts;
	// Encode materializes a flat array from them on demand.
	ix.publish(next, total)
	ix.snapSwaps.Add(1)
	ix.merges.Add(1)
	return true
}

// Index persistence ("DSL1" live format): the core DSI1 blob (tree + SAX
// array over base + merged appends) wrapped with the append store, so the
// delta buffer — merged or not — survives Save/Load. The base collection is
// still not included and must be supplied again to Decode; appended series
// ARE included, because they exist nowhere else.
//
//	magic "DSL1", u32 version=1
//	u64 appended (A), u64 mergedA (≤ A)
//	u64 blobLen, blob (core DSI1 index over baseLen+mergedA series)
//	A × seriesLen float32 LE appended values
//	A × segments appended summary bytes
//
// An index with no appended series encodes as a bare DSI1 blob,
// byte-compatible with files written before live ingestion existed; Decode
// accepts both.

const (
	liveMagic   = "DSL1"
	liveVersion = 1
)

// Encode serializes the index — tree, SAX array and the append store (its
// raw values and summaries) — so the delta buffer survives Save/Load. The
// base collection is not included and must be supplied again to Decode.
// Encode never stalls appenders: the snapshot load is consistent on its
// own, loading the published count after it guarantees a ≥ mergedA, and
// every store/log row below that count is immutable, so concurrent appends
// simply fall outside this save. Delete/TTL state is read under its own
// short mutex and wraps the result in a DST1 envelope (tombstone.go) only
// when non-empty, so indexes without deletes keep their legacy encoding.
func (ix *Index) Encode() []byte {
	inner := ix.encodeLive()
	ix.tombMu.Lock()
	tombs := ix.tombs.Load()
	ttls := slices.Clone(ix.ttls)
	ix.tombMu.Unlock()
	if tombs.count() == 0 && len(ttls) == 0 {
		return inner
	}
	// Canonical TTL order: equivalent delete states encode identically no
	// matter the SetTTL call order (positions are unique in ttls).
	slices.SortFunc(ttls, func(a, b ttlEntry) int { return int(a.pos) - int(b.pos) })
	var buf bytes.Buffer
	buf.WriteString(tombMagic)
	_ = binary.Write(&buf, binary.LittleEndian, uint32(tombVersion))
	pos := tombs.positions() // ascending
	_ = binary.Write(&buf, binary.LittleEndian, uint32(len(pos)))
	for _, p := range pos {
		_ = binary.Write(&buf, binary.LittleEndian, uint32(p))
	}
	_ = binary.Write(&buf, binary.LittleEndian, uint32(len(ttls)))
	for _, e := range ttls {
		_ = binary.Write(&buf, binary.LittleEndian, uint32(e.pos))
		_ = binary.Write(&buf, binary.LittleEndian, uint64(e.deadline))
	}
	_ = binary.Write(&buf, binary.LittleEndian, uint64(len(inner)))
	buf.Write(inner)
	return buf.Bytes()
}

// encodeLive is the pre-delete encoding: the DSL1 live wrapper, or a bare
// DSI1 blob when nothing was ever appended.
func (ix *Index) encodeLive() []byte {
	snap := ix.snap.Load()
	a := int(ix.appended.Load())
	w := ix.cfg.Segments
	// Materialize the flat SAX array of the merged prefix for the core
	// blob: the base collection's summaries followed by the merged slice of
	// the append log. This is the only place that needs the flat form, so
	// merges never copy summary data.
	data := make([]uint8, (ix.baseLen+snap.mergedA)*w)
	copy(data, ix.baseSAX.Data)
	for i := 0; i < snap.mergedA; i++ {
		copy(data[(ix.baseLen+i)*w:], ix.saxLog.At(i))
	}
	blob := core.EncodeIndex(snap.tree, &core.SAXArray{W: w, Data: data})
	if a == 0 {
		return blob
	}
	var buf bytes.Buffer
	buf.WriteString(liveMagic)
	_ = binary.Write(&buf, binary.LittleEndian, uint32(liveVersion))
	_ = binary.Write(&buf, binary.LittleEndian, uint64(a))
	_ = binary.Write(&buf, binary.LittleEndian, uint64(snap.mergedA))
	_ = binary.Write(&buf, binary.LittleEndian, uint64(len(blob)))
	buf.Write(blob)
	vals := make([]byte, 4*ix.cfg.SeriesLen)
	for i := 0; i < a; i++ {
		s := ix.store.At(i)
		for j, v := range s {
			binary.LittleEndian.PutUint32(vals[4*j:], math.Float32bits(v))
		}
		buf.Write(vals)
	}
	for i := 0; i < a; i++ {
		buf.Write(ix.saxLog.At(i))
	}
	return buf.Bytes()
}

// Decode reconstructs an index from Encode output over the same base
// collection it was built from — the same Reader shape too: an index built
// through a position-remapping view decodes through the replayed view, so
// loading is as zero-copy as building. The append store and the
// merged/pending split are restored exactly as saved. As in Build, a
// collection holding a NaN or an infinity is refused with a
// *NonFiniteError.
func Decode(data []byte, coll series.Reader, opt Options) (*Index, error) {
	opt = opt.normalize()
	inner, tombPos, ttls, err := splitTomb(data)
	if err != nil {
		return nil, err
	}
	blob, tail, a, mergedA, err := splitLive(inner)
	if err != nil {
		return nil, err
	}
	tree, sax, err := core.DecodeIndex(blob)
	if err != nil {
		return nil, fmt.Errorf("messi: %w", err)
	}
	cfg := tree.Config()
	if cfg.SeriesLen != coll.SeriesLen() {
		return nil, fmt.Errorf("messi: index is for length-%d series, collection has %d",
			cfg.SeriesLen, coll.SeriesLen())
	}
	if sax.Len() != coll.Len()+mergedA {
		return nil, fmt.Errorf("messi: index covers %d series, collection has %d (+%d merged appends)",
			sax.Len(), coll.Len(), mergedA)
	}
	for i := 0; i < coll.Len(); i++ {
		if series.Check(coll.At(i), cfg.SeriesLen) != nil {
			return nil, &NonFiniteError{Pos: i}
		}
	}
	valBytes := a * cfg.SeriesLen * 4
	if len(tail) != valBytes+a*cfg.Segments {
		return nil, fmt.Errorf("messi: corrupt append store: %d bytes for %d series of length %d",
			len(tail), a, cfg.SeriesLen)
	}
	vals, sums := tail[:valBytes], tail[valBytes:]
	// Summary symbols index per-query lookup tables of 2^MaxBits cells, so
	// an out-of-range byte in a corrupt file must fail here, not panic in
	// the first delta scan.
	for i, s := range sums {
		if int(s) >= 1<<cfg.MaxBits {
			return nil, fmt.Errorf("messi: corrupt append store: summary %d symbol %d exceeds cardinality %d",
				i/cfg.Segments, s, 1<<cfg.MaxBits)
		}
	}
	ix := &Index{cfg: cfg, opt: opt, raw: coll}
	ix.store = series.NewChunked(cfg.SeriesLen, 0)
	ix.saxLog = series.NewChunkedRows[uint8](cfg.Segments, 0)
	s := make(series.Series, cfg.SeriesLen)
	for i := 0; i < a; i++ {
		base := i * cfg.SeriesLen * 4
		for j := 0; j < cfg.SeriesLen; j++ {
			s[j] = math.Float32frombits(binary.LittleEndian.Uint32(vals[base+4*j:]))
		}
		ix.store.Append(s)
		ix.saxLog.Append(sums[i*cfg.Segments : (i+1)*cfg.Segments])
	}
	ix.appended.Store(int64(a))
	ix.restored = int64(a) // IngestStats.Appended counts post-load appends only
	// The serialized form carries no leaf raw blocks (values exist in the
	// collection and append store already, and the format predates the
	// layout) — rebuild leaf-ordered storage from them, resolving merged
	// append positions through the restored store. One linear pass at load
	// time buys every query the sequential refinement layout.
	if !opt.DisableLeafRaw {
		for _, key := range tree.OccupiedKeys() {
			tree.Subtree(key).MaterializeLeaves(cfg.SeriesLen, func(pos int32) []float32 {
				if int(pos) < coll.Len() {
					return coll.At(int(pos))
				}
				return ix.store.At(int(pos) - coll.Len())
			})
		}
	}
	// Restore delete/TTL state before the index can merge or serve: the
	// envelope's positions must land inside the restored position space.
	if len(tombPos) > 0 || len(ttls) > 0 {
		limit := coll.Len() + a
		ts := (*tombSet)(nil).clone(limit)
		for _, p := range tombPos {
			if int(p) >= limit {
				return nil, corruptf("messi: tombstone position %d outside %d series", p, limit)
			}
			ts.set(p)
		}
		for _, e := range ttls {
			if int(e.pos) >= limit {
				return nil, corruptf("messi: ttl position %d outside %d series", e.pos, limit)
			}
		}
		if ts.n > 0 {
			ix.tombs.Store(ts)
		}
		ix.ttls = ttls
	}
	// The decoded flat SAX array covers base + merged appends; the index
	// keeps only the immutable base prefix (merged summaries live in the
	// saxLog, re-appended above).
	baseSAX := &core.SAXArray{W: cfg.Segments, Data: sax.Data[:coll.Len()*cfg.Segments]}
	ix.initLive(tree, baseSAX, mergedA)
	// A restored delta may already exceed the threshold; without this, a
	// read-only workload would pay the full delta scan forever (merges are
	// otherwise only scheduled from the append path).
	ix.maybeScheduleMerge()
	return ix, nil
}

// splitLive separates a serialized index into its core blob and the append
// store's raw bytes (values followed by summaries — split by the caller
// once the blob's config is known). Bare DSI1 blobs pass through unchanged
// with an empty append store.
func splitLive(data []byte) (blob, tail []byte, appended, mergedA int, err error) {
	if !bytes.HasPrefix(data, []byte(liveMagic)) {
		return data, nil, 0, 0, nil
	}
	const header = 4 + 4 + 8 + 8 + 8
	if len(data) < header {
		return nil, nil, 0, 0, fmt.Errorf("messi: truncated live index header (%d bytes)", len(data))
	}
	version := binary.LittleEndian.Uint32(data[4:])
	if version != liveVersion {
		return nil, nil, 0, 0, fmt.Errorf("messi: unsupported live index version %d", version)
	}
	a := binary.LittleEndian.Uint64(data[8:])
	merged := binary.LittleEndian.Uint64(data[16:])
	blobLen := binary.LittleEndian.Uint64(data[24:])
	rest := uint64(len(data) - header)
	if blobLen > rest || merged > a || a > rest {
		return nil, nil, 0, 0, fmt.Errorf("messi: corrupt live index header (a=%d merged=%d blob=%d of %d)",
			a, merged, blobLen, rest)
	}
	blob = data[header : header+int(blobLen)]
	return blob, data[header+int(blobLen):], int(a), int(merged), nil
}

// splitTomb peels the optional DST1 delete/TTL envelope (tombstone.go) off a
// serialized index. Files without the envelope — every file written before
// deletes existed, and every current file with no delete state — pass
// through unchanged with zero tombstones. All structural failures wrap
// storage.ErrCorrupt; position range checks against the restored series
// count happen in Decode once the inner image is parsed.
func splitTomb(data []byte) (inner []byte, tombs []int32, ttls []ttlEntry, err error) {
	if !bytes.HasPrefix(data, []byte(tombMagic)) {
		return data, nil, nil, nil
	}
	off := len(tombMagic)
	u32 := func(what string) (uint32, error) {
		if len(data)-off < 4 {
			return 0, corruptf("messi: truncated tombstone envelope at %s", what)
		}
		v := binary.LittleEndian.Uint32(data[off:])
		off += 4
		return v, nil
	}
	u64 := func(what string) (uint64, error) {
		if len(data)-off < 8 {
			return 0, corruptf("messi: truncated tombstone envelope at %s", what)
		}
		v := binary.LittleEndian.Uint64(data[off:])
		off += 8
		return v, nil
	}
	version, err := u32("version")
	if err != nil {
		return nil, nil, nil, err
	}
	if version != tombVersion {
		return nil, nil, nil, corruptf("messi: unsupported tombstone envelope version %d", version)
	}
	tombCount, err := u32("tombstone count")
	if err != nil {
		return nil, nil, nil, err
	}
	if uint64(tombCount)*4 > uint64(len(data)-off) {
		return nil, nil, nil, corruptf("messi: tombstone count %d exceeds envelope size", tombCount)
	}
	tombs = make([]int32, tombCount)
	for i := range tombs {
		p, _ := u32("tombstone position")
		if int64(p) > int64(1)<<30 {
			return nil, nil, nil, corruptf("messi: tombstone position %d out of range", p)
		}
		if i > 0 && int32(p) <= tombs[i-1] {
			return nil, nil, nil, corruptf("messi: tombstone positions not strictly ascending at %d", p)
		}
		tombs[i] = int32(p)
	}
	ttlCount, err := u32("ttl count")
	if err != nil {
		return nil, nil, nil, err
	}
	if uint64(ttlCount)*12 > uint64(len(data)-off) {
		return nil, nil, nil, corruptf("messi: ttl count %d exceeds envelope size", ttlCount)
	}
	ttls = make([]ttlEntry, ttlCount)
	for i := range ttls {
		p, _ := u32("ttl position")
		d, _ := u64("ttl deadline")
		if int64(p) > int64(1)<<30 {
			return nil, nil, nil, corruptf("messi: ttl position %d out of range", p)
		}
		if i > 0 && int32(p) <= ttls[i-1].pos {
			return nil, nil, nil, corruptf("messi: ttl positions not strictly ascending at %d", p)
		}
		ttls[i] = ttlEntry{pos: int32(p), deadline: int64(d)}
	}
	innerLen, err := u64("inner length")
	if err != nil {
		return nil, nil, nil, err
	}
	if innerLen != uint64(len(data)-off) {
		return nil, nil, nil, corruptf("messi: tombstone envelope inner length %d, %d bytes remain",
			innerLen, len(data)-off)
	}
	return data[off:], tombs, ttls, nil
}
