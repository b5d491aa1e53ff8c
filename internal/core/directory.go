package core

import "encoding/binary"

// LeafDirectory is the flat form of an immutable tree that exact search
// traverses instead of the pointers: every leaf, ordered by root key and,
// under one root child, in WalkLeaves order, with the two summaries a query
// bounds it by. Keys[i] is the leaf's root key (isax.RootKey's bit order;
// MaxSegments = 16 bits), the coarsest word it hangs under: two table reads
// bound it, and rule out most leaves. Because the keys ascend, the leaves
// whose key has high byte h are one run, Leaves[Groups[h]:Groups[h+1]]
// (Groups[256] = len(Leaves)), and a query can rule out a whole run on the
// high byte's table read alone. Env holds 2·Segments bytes per leaf, rows
// back to back: the smallest full-cardinality symbol of each segment over
// the leaf's SAX block, then the largest — the input of vector.EnvelopeDist,
// a bound on what is in the leaf rather than on where it hangs, so at least
// the root word's and at most any entry's. An empty leaf's row is inverted
// (every min above every max), which that kernel bounds to +Inf. The
// directory describes the tree as it was when built: build one per
// published snapshot, after the last insert.
type LeafDirectory struct {
	Leaves []*Node
	Keys   []uint16
	Env    []uint8
	Groups [257]int32
}

// NewLeafDirectory lists t's leaves. Two walks, both over the root children
// in creation order — the order their nodes were allocated in, which a walk
// in key order would visit scattered: the first counts each one's leaves, a
// pass over the counts in key order turns them into each root child's first
// row and the group offsets, and the second walk fills the rows, reading
// every summary in the tree once. The arrays are allocated once, at their
// final size.
func NewLeafDirectory(t *Tree) *LeafDirectory {
	occupied := t.OccupiedKeys()
	first := make([]int32, len(t.roots))
	for _, key := range occupied {
		t.roots[key].WalkLeaves(func(*Node) { first[key]++ })
	}
	d := &LeafDirectory{}
	n := int32(0)
	for key, count := range first {
		first[key] = n
		n += count
		d.Groups[key>>8+1] = n
	}
	for h := range 256 {
		d.Groups[h+1] = max(d.Groups[h+1], d.Groups[h])
	}
	w := t.cfg.Segments
	d.Leaves, d.Keys, d.Env = make([]*Node, n), make([]uint16, n), make([]uint8, int(n)*2*w)
	for _, key := range occupied {
		i := first[key]
		t.roots[key].WalkLeaves(func(leaf *Node) {
			row := d.Env[int(i)*2*w:][:2*w]
			d.Leaves[i], d.Keys[i] = leaf, uint16(key)
			envelope(leaf.SAX[:leaf.Count*w], row[:w], row[w:])
			i++
		})
	}
	return d
}

// envelope writes the per-segment minimum and maximum over sax, summaries of
// len(lo) segments back to back; none leaves the inverted, empty envelope.
// Whole 8-segment words take the byte-parallel path. Every summary of one
// leaf has the same top bit in a segment — the leaf's root key, or zero
// below eight bits of cardinality — so seeded with the first summary the
// lanes compare on their low seven bits alone: with the top bits set aside,
// (x|H) − (y&^H) cannot borrow across lanes and leaves a lane's bit 7 set
// iff x's low bits are at least y's.
func envelope(sax, lo, hi []uint8) {
	w := len(lo)
	if len(sax) == 0 || w%8 != 0 {
		for j := range lo {
			lo[j], hi[j] = 0xFF, 0
		}
		for ; len(sax) >= w; sax = sax[w:] {
			for j, s := range sax[:w] {
				lo[j], hi[j] = min(lo[j], s), max(hi[j], s)
			}
		}
		return
	}
	const H = 0x8080808080808080
	for k := 0; k < w; k += 8 {
		mn := binary.LittleEndian.Uint64(sax[k:])
		mx := mn
		for i := k + w; i+8 <= len(sax); i += w {
			x := binary.LittleEndian.Uint64(sax[i:])
			keepMin := (((mn | H) - (x &^ H)) & H >> 7) * 0xFF // lanes where mn ≥ x
			keepMax := (((x | H) - (mx &^ H)) & H >> 7) * 0xFF // lanes where x ≥ mx
			mn, mx = mn^(mn^x)&keepMin, mx^(mx^x)&keepMax
		}
		binary.LittleEndian.PutUint64(lo[k:], mn)
		binary.LittleEndian.PutUint64(hi[k:], mx)
	}
}
