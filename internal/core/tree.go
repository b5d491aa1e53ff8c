package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"dsidx/internal/isax"
)

// Tree is the iSAX index tree. The conceptual root is the Roots array: one
// slot per combination of the first bit of each segment (2^Segments slots),
// created lazily as series arrive.
//
// Concurrency contract: distinct root subtrees may be built concurrently by
// distinct goroutines with no locking (this is the parallelization unit of
// both ParIS and MESSI); a single subtree must never be mutated
// concurrently. Registering a new root child takes a short mutex.
type Tree struct {
	cfg   Config
	quant *isax.Quantizer

	roots []*Node

	mu       sync.Mutex
	occupied []uint32 // keys of non-nil root children, in creation order
}

// NewTree creates an empty tree for the configuration (defaults applied).
func NewTree(cfg Config) (*Tree, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	quant, err := isax.NewQuantizer(cfg.MaxBits)
	if err != nil {
		return nil, err
	}
	return &Tree{cfg: cfg, quant: quant, roots: make([]*Node, cfg.RootFanout())}, nil
}

// Config returns the normalized configuration.
func (t *Tree) Config() Config { return t.cfg }

// Quantizer returns the shared quantizer.
func (t *Tree) Quantizer() *isax.Quantizer { return t.quant }

// RootKey computes the root-subtree key of a full-cardinality summary.
func (t *Tree) RootKey(sax []uint8) uint32 { return isax.RootKey(sax, t.cfg.MaxBits) }

// Subtree returns the root child for key, or nil.
func (t *Tree) Subtree(key uint32) *Node { return t.roots[key] }

// ensureRoot returns the root child for key, creating and registering it if
// needed. Only the goroutine owning the key may call it.
func (t *Tree) ensureRoot(key uint32) *Node {
	if n := t.roots[key]; n != nil {
		return n
	}
	n := &Node{Word: isax.RootWordFromKey(key, t.cfg.Segments)}
	t.roots[key] = n
	t.mu.Lock()
	t.occupied = append(t.occupied, key)
	t.mu.Unlock()
	return n
}

// CloneShell returns a new tree sharing every subtree pointer (and the
// quantizer) with t. The live-merge path mutates the shell only through
// SetSubtree and SubtreeInsert on subtrees it has cloned or created first,
// so t — and any query still traversing it — is never touched.
func (t *Tree) CloneShell() *Tree {
	t.mu.Lock()
	occ := make([]uint32, len(t.occupied))
	copy(occ, t.occupied)
	t.mu.Unlock()
	roots := make([]*Node, len(t.roots))
	copy(roots, t.roots)
	return &Tree{cfg: t.cfg, quant: t.quant, roots: roots, occupied: occ}
}

// SetSubtree installs n as the root child for key, registering the key if
// it was previously empty. A nil n is a no-op. Distinct keys may be set by
// distinct goroutines concurrently (the merge parallelization unit, like
// subtree building); the same key must not.
func (t *Tree) SetSubtree(key uint32, n *Node) {
	if n == nil {
		return
	}
	fresh := t.roots[key] == nil
	t.roots[key] = n
	if fresh {
		t.mu.Lock()
		t.occupied = append(t.occupied, key)
		t.mu.Unlock()
	}
}

// CloneSubtreeFiltered returns a deep copy of the root subtree for key with
// every entry whose position satisfies drop removed. The copy is rebuilt by
// re-inserting the surviving entries (leaf order) into a fresh root child:
// filtering in place cannot work, because CheckInvariants pins every inner
// node's children to exact Word.Child forms — an inner node whose side
// empties out must disappear, and only a rebuild keeps the word chain
// valid. Returns nil when the subtree does not exist; returns a plain
// Clone when the subtree holds flushed leaves (their entries live on disk
// and cannot be filtered here). The caller owns the result, exactly as
// with Clone — the merge path filters tombstoned series out of a subtree
// while copying it aside.
func (t *Tree) CloneSubtreeFiltered(key uint32, drop func(pos int32) bool) *Node {
	old := t.roots[key]
	if old == nil {
		return nil
	}
	flushed := false
	old.WalkLeaves(func(leaf *Node) {
		if leaf.Flushed {
			flushed = true
		}
	})
	if flushed {
		return old.Clone()
	}
	w, sl := t.cfg.Segments, t.cfg.SeriesLen
	fresh := &Node{Word: isax.RootWordFromKey(key, w)}
	old.WalkLeaves(func(leaf *Node) {
		for i := 0; i < leaf.Count; i++ {
			if drop(leaf.Pos[i]) {
				continue
			}
			fresh.insert(t.cfg, leaf.entrySAX(i, w), leaf.Pos[i], leaf.EntryRaw(i, sl))
		}
	})
	return fresh
}

// SubtreeInsert inserts a summary into the subtree for key, which the
// caller has already computed (and owns). sax is copied.
func (t *Tree) SubtreeInsert(key uint32, sax []uint8, pos int32) {
	t.ensureRoot(key).insert(t.cfg, sax, pos, nil)
}

// SubtreeInsertRaw is SubtreeInsert carrying the series' raw values into
// the destination leaf, for trees with materialized (leaf-ordered) raw
// storage. sax and raw are copied. Every insert into a materialized tree
// must use this form, or leaves would hold fewer raw blocks than entries.
func (t *Tree) SubtreeInsertRaw(key uint32, sax []uint8, pos int32, raw []float32) {
	t.ensureRoot(key).insert(t.cfg, sax, pos, raw)
}

// Insert routes a summary to its root subtree and inserts it. Convenience
// for serial builders (ADS+); not safe for concurrent use.
func (t *Tree) Insert(sax []uint8, pos int32) {
	t.SubtreeInsert(t.RootKey(sax), sax, pos)
}

// OccupiedKeys returns a snapshot of the keys of existing root subtrees.
func (t *Tree) OccupiedKeys() []uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]uint32, len(t.occupied))
	copy(out, t.occupied)
	return out
}

// SortOccupied puts OccupiedKeys in ascending key order. Subtrees built
// concurrently register in whatever order their goroutines first reach
// them; a bulk build sorts once they are done, so what the tree encodes
// does not depend on the schedule.
func (t *Tree) SortOccupied() {
	t.mu.Lock()
	slices.Sort(t.occupied)
	t.mu.Unlock()
}

// Count returns the total number of indexed series.
func (t *Tree) Count() int {
	total := 0
	for _, key := range t.OccupiedKeys() {
		total += t.roots[key].Count
	}
	return total
}

// VisitLeaves calls fn on every leaf of the tree.
func (t *Tree) VisitLeaves(fn func(*Node)) {
	for _, key := range t.OccupiedKeys() {
		t.roots[key].WalkLeaves(fn)
	}
}

// BestLeafApprox descends the tree following the query's summary and
// returns the leaf whose word is closest to the query — the approximate
// search that seeds the BSF in every index's exact algorithm ("the leaf
// with the smallest lower bound distance to the query", paper §III).
// Returns nil for an empty tree.
func (t *Tree) BestLeafApprox(querySAX []uint8, queryPAA []float64) *Node {
	node := t.roots[t.RootKey(querySAX)]
	if node == nil {
		// The query's own root region is empty: fall back to the occupied
		// root child with the smallest lower bound (they are 1-bit words,
		// so this scan is cheap relative to a query).
		best, bestDist := uint32(0), math.Inf(1)
		keys := t.OccupiedKeys()
		if len(keys) == 0 {
			return nil
		}
		for _, key := range keys {
			d := isax.MinDist(t.quant, queryPAA, t.roots[key].Word, t.cfg.SeriesLen)
			if d < bestDist {
				best, bestDist = key, d
			}
		}
		node = t.roots[best]
	}
	for !node.IsLeaf() {
		node = node.route(querySAX, t.cfg.MaxBits)
	}
	return node
}

// MaterializeLeaves fills every leaf below n with its entries' raw values
// in leaf order: fetch resolves a stored position to that series' values
// (sl points each), and the leaf's Raw block is laid out entry-aligned
// with SAX/Pos. fetch may read through any backing — a flat collection,
// an append store, or a position-remapping series.View — because the
// values are copied into the leaf-owned block here; the materialized tree
// never aliases the storage fetch resolved through. Leaves already
// materialized are skipped, so the walk is idempotent; flushed leaves
// have no in-memory entries and are skipped too. Callers own the subtree
// (build and merge both materialize before publishing a snapshot).
func (n *Node) MaterializeLeaves(sl int, fetch func(pos int32) []float32) {
	n.WalkLeaves(func(leaf *Node) {
		if leaf.Raw != nil || leaf.Flushed || leaf.Count == 0 {
			return
		}
		raw := make([]float32, leaf.Count*sl)
		for i, p := range leaf.Pos {
			copy(raw[i*sl:(i+1)*sl], fetch(p))
		}
		leaf.Raw = raw
	})
}

// Stats summarizes tree shape for diagnostics and tests.
type Stats struct {
	Series    int
	RootNodes int
	Inner     int
	Leaves    int
	MaxDepth  int
	// FillAvg is the mean leaf occupancy as a fraction of capacity.
	FillAvg float64
}

// Stats walks the tree and returns shape statistics.
func (t *Tree) Stats() Stats {
	var st Stats
	var walk func(n *Node, depth int)
	totalFill := 0.0
	walk = func(n *Node, depth int) {
		if depth > st.MaxDepth {
			st.MaxDepth = depth
		}
		if n.IsLeaf() {
			st.Leaves++
			totalFill += float64(n.Count) / float64(t.cfg.LeafCapacity)
			return
		}
		st.Inner++
		walk(n.Left, depth+1)
		walk(n.Right, depth+1)
	}
	for _, key := range t.OccupiedKeys() {
		st.RootNodes++
		st.Series += t.roots[key].Count
		walk(t.roots[key], 1)
	}
	if st.Leaves > 0 {
		st.FillAvg = totalFill / float64(st.Leaves)
	}
	return st
}

// CheckInvariants validates the structural invariants of the whole tree:
// every leaf entry is contained in its leaf's word and in every ancestor's
// word, counts are consistent, and children's words refine their parent's.
// Tests call this after concurrent builds.
func (t *Tree) CheckInvariants() error {
	w := t.cfg.Segments
	var check func(n *Node, ancestors []isax.Word) error
	check = func(n *Node, ancestors []isax.Word) error {
		if n.IsLeaf() {
			if len(n.Pos) != n.Count || len(n.SAX) != n.Count*w {
				if !n.Flushed {
					return fmt.Errorf("leaf %v: count %d vs %d pos, %d sax bytes",
						n.Word, n.Count, len(n.Pos), len(n.SAX))
				}
			}
			if n.Raw != nil && len(n.Raw) != n.Count*t.cfg.SeriesLen {
				return fmt.Errorf("leaf %v: %d raw values for %d entries of length %d",
					n.Word, len(n.Raw), n.Count, t.cfg.SeriesLen)
			}
			for i := 0; i < len(n.Pos); i++ {
				sax := n.entrySAX(i, w)
				if !n.Word.Contains(sax, t.cfg.MaxBits) {
					return fmt.Errorf("leaf %v: entry %d not contained", n.Word, i)
				}
				for _, a := range ancestors {
					if !a.Contains(sax, t.cfg.MaxBits) {
						return fmt.Errorf("ancestor %v does not contain entry of leaf %v", a, n.Word)
					}
				}
			}
			return nil
		}
		if n.Left == nil || n.Right == nil {
			return fmt.Errorf("inner %v: missing child", n.Word)
		}
		if n.Left.Count+n.Right.Count != n.Count {
			return fmt.Errorf("inner %v: count %d != %d+%d",
				n.Word, n.Count, n.Left.Count, n.Right.Count)
		}
		if n.Left.Count == 0 || n.Right.Count == 0 {
			return fmt.Errorf("inner %v: empty child after split", n.Word)
		}
		wantL, wantR := n.Word.Child(n.SplitSeg, 0), n.Word.Child(n.SplitSeg, 1)
		if !n.Left.Word.Equal(wantL) || !n.Right.Word.Equal(wantR) {
			return fmt.Errorf("inner %v: children words %v/%v, want %v/%v",
				n.Word, n.Left.Word, n.Right.Word, wantL, wantR)
		}
		anc := make([]isax.Word, len(ancestors)+1)
		copy(anc, ancestors)
		anc[len(ancestors)] = n.Word
		if err := check(n.Left, anc); err != nil {
			return err
		}
		return check(n.Right, anc)
	}
	for _, key := range t.OccupiedKeys() {
		n := t.roots[key]
		if got := isax.RootWordFromKey(key, t.cfg.Segments); !n.Word.Equal(got) {
			return fmt.Errorf("root %d word %v != %v", key, n.Word, got)
		}
		if err := check(n, nil); err != nil {
			return fmt.Errorf("subtree %d: %w", key, err)
		}
	}
	return nil
}
