package core

import "dsidx/internal/isax"

// LeafDirectory is the flat form of an immutable tree that exact search
// traverses instead of the pointers: every leaf, in VisitLeaves order, with
// its word already resolved to cell indexes of a query's isax.MultiTable.
// A leaf's word bound is at least every ancestor's, so bounding all leaves
// in one pass over Cells keeps exactly the leaves a pruned descent would
// reach. It describes the tree as it was when built: build one per published
// snapshot, after the last insert.
type LeafDirectory struct {
	Leaves []*Node
	// Cells holds Segments indexes per leaf, rows back to back in Leaves
	// order: row i is isax.WordCells(Leaves[i].Word), the input of
	// vector.WordDistBatch.
	Cells []uint16
}

// NewLeafDirectory lists t's leaves. Two walks — count, then fill — so both
// arrays are allocated once at their final size.
func NewLeafDirectory(t *Tree) *LeafDirectory {
	n := 0
	t.VisitLeaves(func(*Node) { n++ })
	w := t.cfg.Segments
	d := &LeafDirectory{Leaves: make([]*Node, 0, n), Cells: make([]uint16, n*w)}
	t.VisitLeaves(func(leaf *Node) {
		i := len(d.Leaves)
		d.Leaves = append(d.Leaves, leaf)
		isax.WordCells(leaf.Word, d.Cells[i*w:(i+1)*w])
	})
	return d
}
