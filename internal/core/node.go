package core

import (
	"dsidx/internal/isax"
	"dsidx/internal/storage"
)

// Node is a tree node: a leaf holding entries, or an inner node with two
// children produced by a split. The conceptual root is not a Node — the
// Tree keeps an array of root children keyed by the first bit of each
// segment.
type Node struct {
	// Word is the iSAX word covering every series below this node.
	Word isax.Word
	// Count is the number of series stored below this node.
	Count int

	// Inner-node fields: SplitSeg is the segment whose cardinality was
	// promoted by the split; Left receives entries whose next bit is 0,
	// Right those with 1. Both are non-nil for inner nodes (one may be an
	// empty leaf only transiently; splits that cannot separate entries are
	// not performed).
	SplitSeg    int
	Left, Right *Node

	// Leaf fields: SAX holds Count full-cardinality summaries back-to-back
	// (stride = segments); Pos holds the positions of the raw series.
	SAX []uint8
	Pos []int32
	// Raw optionally holds the leaf's raw series values back-to-back
	// (stride = series length), aligned with SAX/Pos: entry i occupies
	// [i*n, (i+1)*n). A materialized leaf lets refinement read candidates
	// sequentially instead of chasing Pos through the collection — the
	// cache behavior MESSI's SIMD scans depend on. MaterializeLeaves fills
	// it, exactly sized, once a subtree's shape is final; inserts and
	// splits never carry it. Either every leaf of a tree is materialized or
	// none is; Pos remains the source of truth for reported result
	// positions.
	Raw []float32

	// Flushed leaf state (ParIS): when a leaf has been materialized to
	// disk, SAX/Pos are released and Ref locates the blob.
	Flushed bool
	Ref     storage.LeafRef
}

// IsLeaf reports whether n is a leaf.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// appendEntry adds one (summary, position) entry to a leaf.
func (n *Node) appendEntry(sax []uint8, pos int32) {
	n.SAX = append(n.SAX, sax...)
	n.Pos = append(n.Pos, pos)
	n.Count++
}

// entrySAX returns the i-th summary stored in a leaf.
func (n *Node) entrySAX(i, w int) []uint8 { return n.SAX[i*w : (i+1)*w] }

// EntryRaw returns the i-th materialized series of a leaf (series length
// sl), or nil if the leaf is not materialized.
func (n *Node) EntryRaw(i, sl int) []float32 {
	if n.Raw == nil {
		return nil
	}
	return n.Raw[i*sl : (i+1)*sl : (i+1)*sl]
}

// route returns the child of an inner node that covers the given summary.
func (n *Node) route(sax []uint8, maxBits int) *Node {
	if n.Word.PrefixBitAt(n.SplitSeg, sax[n.SplitSeg], maxBits) == 0 {
		return n.Left
	}
	return n.Right
}

// splittable reports whether some segment of a leaf's word can still be
// promoted and actually separates the leaf's entries (a split where every
// entry lands on one side makes no progress; duplicated summaries can make
// every segment useless, in which case the leaf is allowed to overflow).
func (n *Node) splittable(cfg Config) (seg int, ok bool) {
	w := cfg.Segments
	bestImbalance := n.Count + 1
	bestSeg := -1
	for s := 0; s < w; s++ {
		if int(n.Word.Bits[s]) >= cfg.MaxBits {
			continue
		}
		ones := 0
		for i := 0; i < n.Count; i++ {
			if n.Word.PrefixBitAt(s, n.entrySAX(i, w)[s], cfg.MaxBits) == 1 {
				ones++
			}
		}
		zeros := n.Count - ones
		if ones == 0 || zeros == 0 {
			continue // does not separate
		}
		imbalance := ones - zeros
		if imbalance < 0 {
			imbalance = -imbalance
		}
		if imbalance < bestImbalance {
			bestImbalance, bestSeg = imbalance, s
		}
	}
	return bestSeg, bestSeg >= 0
}

// separates reports whether sax's next bit differs from the leaf's first
// entry's on some segment that can still be promoted.
func (n *Node) separates(cfg Config, sax []uint8) bool {
	first := n.entrySAX(0, cfg.Segments)
	for s := range cfg.Segments {
		if int(n.Word.Bits[s]) < cfg.MaxBits &&
			n.Word.PrefixBitAt(s, sax[s], cfg.MaxBits) != n.Word.PrefixBitAt(s, first[s], cfg.MaxBits) {
			return true
		}
	}
	return false
}

// split turns an over-capacity leaf into an inner node with two leaves,
// promoting segment seg by one bit and redistributing the entries. The
// paper (after [8], [12]) picks the segment "that will result in the most
// balanced split"; splittable made that choice.
func (n *Node) split(cfg Config, seg int) {
	w := cfg.Segments
	left := &Node{Word: n.Word.Child(seg, 0)}
	right := &Node{Word: n.Word.Child(seg, 1)}
	for i := 0; i < n.Count; i++ {
		sax := n.entrySAX(i, w)
		if n.Word.PrefixBitAt(seg, sax[seg], cfg.MaxBits) == 0 {
			left.appendEntry(sax, n.Pos[i])
		} else {
			right.appendEntry(sax, n.Pos[i])
		}
	}
	n.SplitSeg = seg
	n.Left, n.Right = left, right
	n.SAX, n.Pos = nil, nil
}

// insert adds an entry below n, splitting leaves that exceed capacity.
// Called only by the goroutine owning this root subtree, before it is
// materialized.
func (n *Node) insert(cfg Config, sax []uint8, pos int32) {
	node := n
	for !node.IsLeaf() {
		node.Count++
		node = node.route(sax, cfg.MaxBits)
	}
	node.appendEntry(sax, pos)
	if node.Count > cfg.LeafCapacity+1 && !node.separates(cfg, sax) {
		// The leaf already overflowed, so no promotable segment separated
		// its entries, and the new one sides with them on every segment:
		// it stays one leaf, and splittable need not scan it again.
		return
	}
	for node.Count > cfg.LeafCapacity {
		seg, ok := node.splittable(cfg)
		if !ok {
			return // duplicates exhausted every segment; allow overflow
		}
		node.split(cfg, seg)
		// After one split both children are at most the old size; only one
		// can still exceed capacity. Descend into it if so.
		if node.Left.Count > cfg.LeafCapacity {
			node = node.Left
		} else if node.Right.Count > cfg.LeafCapacity {
			node = node.Right
		} else {
			return
		}
	}
}

// WalkLeaves invokes fn on every leaf below n in depth-first order.
func (n *Node) WalkLeaves(fn func(*Node)) {
	if n == nil {
		return
	}
	if n.IsLeaf() {
		fn(n)
		return
	}
	n.Left.WalkLeaves(fn)
	n.Right.WalkLeaves(fn)
}
