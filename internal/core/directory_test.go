package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"dsidx/internal/gen"
	"dsidx/internal/isax"
	"dsidx/internal/vector"
)

// checkDirectoryRows recomputes every row of d from its leaf, one byte at a
// time: the root key from the leaf's word, the envelope from its entries. The
// order is root keys ascending, each root child's leaves in WalkLeaves order,
// and Groups[h] counts the leaves whose key's high byte is below h.
func checkDirectoryRows(t *testing.T, tree *Tree, d *LeafDirectory) {
	t.Helper()
	var leaves []*Node
	keys := tree.OccupiedKeys()
	slices.Sort(keys)
	var groups [257]int32
	for _, key := range keys {
		tree.roots[key].WalkLeaves(func(n *Node) { leaves = append(leaves, n) })
		groups[key>>8+1] = int32(len(leaves))
	}
	for h := range 256 {
		groups[h+1] = max(groups[h+1], groups[h])
	}
	var visited int
	tree.VisitLeaves(func(*Node) { visited++ })
	w := tree.Config().Segments
	if visited != len(leaves) || !slices.Equal(leaves, d.Leaves) || len(d.Keys) != len(leaves) || len(d.Env) != len(leaves)*2*w {
		t.Fatalf("directory of %d leaves, %d keys, %d envelope bytes for a tree of %d leaves of %d segments, or in another order",
			len(d.Leaves), len(d.Keys), len(d.Env), len(leaves), w)
	}
	if d.Groups != groups {
		t.Fatalf("group offsets %v, want %v", d.Groups, groups)
	}
	for i, leaf := range leaves {
		var key uint32
		for j, sym := range leaf.Word.Symbols {
			key = key<<1 | uint32(sym>>(leaf.Word.Bits[j]-1))
		}
		if uint32(d.Keys[i]) != key {
			t.Fatalf("leaf %d (%v): key %#x, want %#x", i, leaf.Word, d.Keys[i], key)
		}
		want := bytes.Repeat([]byte{0xFF}, w)
		want = append(want, make([]byte, w)...)
		for e := 0; e < leaf.Count; e++ {
			for j, s := range leaf.entrySAX(e, w) {
				want[j], want[w+j] = min(want[j], s), max(want[w+j], s)
			}
		}
		if got := d.Env[i*2*w : (i+1)*2*w]; !bytes.Equal(got, want) {
			t.Fatalf("leaf %d of %d entries: envelope %v, want %v", i, leaf.Count, got, want)
		}
		if leaf.Count > 0 && isax.RootKey(want[:w], tree.Config().MaxBits) != key {
			t.Fatalf("leaf %d: entries' root key differs from the word's", i)
		}
	}
}

func TestLeafDirectoryRowsMatchLeaves(t *testing.T) {
	for _, cfg := range []Config{
		testConfig(),
		{SeriesLen: 256, Segments: 8, MaxBits: 8, LeafCapacity: 5},
		{SeriesLen: 60, Segments: 12, MaxBits: 6, LeafCapacity: 3},
		{SeriesLen: 64, Segments: 4, MaxBits: 4, LeafCapacity: 2},
	} {
		tree, _, _ := buildTestTree(t, 3000, cfg)
		checkDirectoryRows(t, tree, NewLeafDirectory(tree))
	}
}

// A key whose subtree is written with no live positions keeps its place in
// the directory, an empty leaf with a row no query can list: its bound is
// +Inf, which is below no threshold — not even the +Inf of a query that has
// found nothing yet.
func TestLeafDirectoryEmptyLeafIsNeverListed(t *testing.T) {
	tree, _, _ := buildTestTree(t, 500, testConfig())
	next := tree.CloneShell()
	for _, key := range tree.OccupiedKeys() {
		next.WriteSubtree(key, nil, nil)
	}
	d := NewLeafDirectory(next)
	if len(d.Leaves) == 0 {
		t.Fatal("no empty leaves to test")
	}
	checkDirectoryRows(t, next, d)
	cfg := next.Config()
	coeffs := make([]float64, cfg.Segments)
	below, above := isax.NewQueryTable(next.Quantizer(), coeffs, cfg.SeriesLen).Sides()
	for i, leaf := range d.Leaves {
		b := vector.EnvelopeDist(below, above, d.Env[i*2*cfg.Segments:(i+1)*2*cfg.Segments], 1<<cfg.MaxBits)
		if leaf.Count != 0 || b < math.Inf(1) {
			t.Fatalf("leaf %d holds %d entries and bounds to %v, want an empty leaf at +Inf", i, leaf.Count, b)
		}
	}
}

// Every pair of symbols that can share a leaf's segment — equal top bits —
// through the byte-parallel path, with the mirrored pair in the next lane so
// a borrow across lanes would show.
func TestEnvelopeEveryPair(t *testing.T) {
	for _, top := range []uint8{0, 0x80} {
		for x := uint8(0); x < 128; x++ {
			for y := uint8(0); y < 128; y++ {
				sax := make([]uint8, 24)
				sax[3], sax[4], sax[8+3], sax[8+4] = top|x, top|y, top|y, top|x
				sax[16+3], sax[16+4] = top|x, top|x
				var lo, hi [8]uint8
				envelope(sax, lo[:], hi[:])
				wantLo, wantHi := [8]uint8{3: top | min(x, y), 4: top | min(x, y)}, [8]uint8{3: top | max(x, y), 4: top | max(x, y)}
				if lo != wantLo || hi != wantHi {
					t.Fatalf("symbols %#x, %#x: envelope %v..%v, want %v..%v", top|x, top|y, lo, hi, wantLo, wantHi)
				}
			}
		}
	}
}

func BenchmarkNewLeafDirectory(b *testing.B) {
	cfg := Config{SeriesLen: 256, Segments: 16, MaxBits: 8, LeafCapacity: 256}
	tree, err := NewTree(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// mem-1nn's shape: 200,000 summaries of random-walk series.
	sm := NewSummarizer(tree.Config(), tree.Quantizer())
	sax := make([]uint8, cfg.Segments)
	g := gen.Generator{Kind: gen.Synthetic, Length: cfg.SeriesLen, Seed: 2020}
	for i := 0; i < 200_000; i++ {
		sm.Summarize(g.Series(int64(i)), sax)
		tree.Insert(sax, int32(i))
	}
	var d *LeafDirectory
	for b.Loop() {
		d = NewLeafDirectory(tree)
	}
	b.ReportMetric(float64(len(d.Leaves)), "leaves")
}
