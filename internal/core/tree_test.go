package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"dsidx/internal/gen"
	"dsidx/internal/paa"
	"dsidx/internal/series"
)

func testConfig() Config {
	return Config{SeriesLen: 256, Segments: 16, MaxBits: 8, LeafCapacity: 16}
}

func buildTestTree(t *testing.T, n int, cfg Config) (*Tree, *series.Collection, *SAXArray) {
	t.Helper()
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Generator{Kind: gen.Synthetic, Length: cfg.SeriesLen, Seed: 77}
	coll := g.Collection(n)
	sm := NewSummarizer(tree.Config(), tree.Quantizer())
	sax := NewSAXArray(n, tree.Config().Segments)
	for i := 0; i < n; i++ {
		sm.Summarize(coll.At(i), sax.At(i))
		tree.Insert(sax.At(i), int32(i))
	}
	return tree, coll, sax
}

func TestConfigNormalize(t *testing.T) {
	cfg, err := Config{SeriesLen: 256}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Segments != 16 || cfg.MaxBits != 8 || cfg.LeafCapacity != 256 {
		t.Fatalf("defaults = %+v", cfg)
	}
	bad := []Config{
		{SeriesLen: 100, Segments: 16},             // not divisible
		{SeriesLen: 256, Segments: 17},             // too many segments
		{SeriesLen: 256, MaxBits: 9},               // too many bits
		{SeriesLen: 256, LeafCapacity: -1},         // negative capacity
		{SeriesLen: 0},                             // no length
		{SeriesLen: 256, Segments: 16, MaxBits: 0}, // normalizes fine
	}
	for i, c := range bad[:5] {
		if _, err := c.Normalize(); err == nil {
			t.Errorf("case %d (%+v): expected error", i, c)
		}
	}
}

func TestTreeCountAndInvariants(t *testing.T) {
	tree, _, _ := buildTestTree(t, 2000, testConfig())
	if got := tree.Count(); got != 2000 {
		t.Fatalf("Count = %d, want 2000", got)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := tree.Stats()
	if st.Series != 2000 {
		t.Errorf("Stats.Series = %d", st.Series)
	}
	if st.Leaves == 0 || st.RootNodes == 0 {
		t.Errorf("degenerate stats: %+v", st)
	}
	// With capacity 16 and 2000 series, splitting must have happened.
	if st.Inner == 0 || st.MaxDepth < 2 {
		t.Errorf("expected splits: %+v", st)
	}
}

func TestTreeLeafCapacityRespected(t *testing.T) {
	cfg := testConfig()
	tree, _, _ := buildTestTree(t, 3000, cfg)
	over := 0
	tree.VisitLeaves(func(n *Node) {
		if n.Count > cfg.LeafCapacity {
			over++
		}
	})
	// Random-walk summaries are essentially unique, so no leaf should be
	// forced to overflow.
	if over > 0 {
		t.Errorf("%d leaves over capacity", over)
	}
}

func TestTreeAllEntriesReachable(t *testing.T) {
	tree, _, _ := buildTestTree(t, 1500, testConfig())
	seen := make(map[int32]bool, 1500)
	tree.VisitLeaves(func(n *Node) {
		for _, p := range n.Pos {
			if seen[p] {
				t.Fatalf("position %d appears in two leaves", p)
			}
			seen[p] = true
		}
	})
	if len(seen) != 1500 {
		t.Fatalf("reached %d entries, want 1500", len(seen))
	}
}

func TestTreeDuplicateSummariesOverflow(t *testing.T) {
	// All-identical summaries cannot be separated by any split; the leaf
	// must be allowed to overflow rather than loop.
	cfg := Config{SeriesLen: 16, Segments: 4, MaxBits: 2, LeafCapacity: 4}
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sax := []uint8{1, 2, 3, 0}
	for i := 0; i < 50; i++ {
		tree.Insert(sax, int32(i))
	}
	if got := tree.Count(); got != 50 {
		t.Fatalf("Count = %d, want 50", got)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// An entry that differs from the duplicates below the root word's bits
	// still splits the overflowing leaf: it lands alone on one side.
	tree.Insert([]uint8{0, 2, 3, 0}, 50)
	root := tree.Subtree(tree.RootKey(sax))
	if root.IsLeaf() || root.Count != 51 || root.Left.Count != 1 || root.Left.Pos[0] != 50 {
		t.Fatalf("separating entry did not split the overflowing leaf: %d entries, leaf %v", root.Count, root.IsLeaf())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSubtreeBuilds(t *testing.T) {
	// The parallel contract: distinct root subtrees built from distinct
	// goroutines, no locks. This is how MESSI stage 2 works.
	cfg := testConfig()
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := 5000
	g := gen.Generator{Kind: gen.Synthetic, Length: cfg.SeriesLen, Seed: 13}
	coll := g.Collection(n)
	sm := NewSummarizer(tree.Config(), tree.Quantizer())
	byKey := make(map[uint32][]int32)
	sax := NewSAXArray(n, cfg.Segments)
	for i := 0; i < n; i++ {
		sm.Summarize(coll.At(i), sax.At(i))
		key := tree.RootKey(sax.At(i))
		byKey[key] = append(byKey[key], int32(i))
	}
	keys := make([]uint32, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ki := w; ki < len(keys); ki += workers {
				key := keys[ki]
				for _, pos := range byKey[key] {
					tree.SubtreeInsert(key, sax.At(int(pos)), pos)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tree.Count(); got != n {
		t.Fatalf("Count = %d, want %d", got, n)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := len(tree.OccupiedKeys()); got != len(keys) {
		t.Fatalf("occupied = %d, want %d", got, len(keys))
	}
}

func TestBestLeafApproxContainsCloseNeighbor(t *testing.T) {
	tree, coll, _ := buildTestTree(t, 2000, testConfig())
	sm := NewSummarizer(tree.Config(), tree.Quantizer())
	g := gen.Generator{Kind: gen.Synthetic, Length: 256, Seed: 99}
	for qi := 0; qi < 10; qi++ {
		q := g.Series(-(int64(qi) + 1))
		qsax := make([]uint8, 16)
		sm.Summarize(q, qsax)
		qpaa := make([]float64, 16)
		paa.TransformInto(q, qpaa)
		leaf := tree.BestLeafApprox(qsax, qpaa)
		if leaf == nil || leaf.Count == 0 {
			t.Fatal("approximate search returned empty leaf on non-empty tree")
		}
		// The approximate answer must be a real series from the collection.
		for _, p := range leaf.Pos {
			if p < 0 || int(p) >= coll.Len() {
				t.Fatalf("leaf position %d out of range", p)
			}
		}
	}
}

func TestBestLeafApproxEmptyRootFallback(t *testing.T) {
	cfg := Config{SeriesLen: 16, Segments: 4, MaxBits: 8, LeafCapacity: 4}
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if leaf := tree.BestLeafApprox([]uint8{0, 0, 0, 0}, make([]float64, 4)); leaf != nil {
		t.Fatal("empty tree should return nil leaf")
	}
	// Insert series only in the all-high region, query the all-low region.
	tree.Insert([]uint8{255, 255, 255, 255}, 0)
	qpaa := []float64{-3, -3, -3, -3}
	leaf := tree.BestLeafApprox([]uint8{0, 0, 0, 0}, qpaa)
	if leaf == nil || leaf.Count != 1 {
		t.Fatal("fallback did not find the only occupied subtree")
	}
}

func TestSAXArray(t *testing.T) {
	a := NewSAXArray(5, 4)
	if a.Len() != 5 {
		t.Fatalf("Len = %d", a.Len())
	}
	copy(a.At(2), []uint8{9, 8, 7, 6})
	if a.Data[8] != 9 || a.At(2)[3] != 6 {
		t.Error("At view not backed by Data")
	}
	r := a.Range(1, 3)
	if len(r) != 8 || r[4] != 9 {
		t.Errorf("Range view wrong: %v", r)
	}
	if a.String() == "" {
		t.Error("empty String()")
	}
}

// sameSubtree reports where two subtrees differ in shape or content: words,
// counts, split segments and every leaf's summaries and positions, in order.
func sameSubtree(a, b *Node) error {
	if !a.Word.Equal(b.Word) || a.Count != b.Count || a.IsLeaf() != b.IsLeaf() {
		return fmt.Errorf("node %v (%d entries) vs %v (%d entries)", a.Word, a.Count, b.Word, b.Count)
	}
	if a.IsLeaf() {
		if !slices.Equal(a.Pos, b.Pos) || !bytes.Equal(a.SAX, b.SAX) {
			return fmt.Errorf("leaf %v: entries differ", a.Word)
		}
		return nil
	}
	if a.SplitSeg != b.SplitSeg {
		return fmt.Errorf("inner %v: split on %d vs %d", a.Word, a.SplitSeg, b.SplitSeg)
	}
	if err := sameSubtree(a.Left, b.Left); err != nil {
		return err
	}
	return sameSubtree(a.Right, b.Right)
}

// Writing every subtree of a shell from its odd positions keeps exactly
// those, and each written subtree is the one a tree built from the odd
// positions alone holds: a subtree depends on its positions, not on what
// the tree held before. The original tree is untouched.
func TestWriteSubtreeKeepsExactlyTheLivePositions(t *testing.T) {
	tree, coll, sax := buildTestTree(t, 2000, testConfig())
	at := func(p int32) []uint8 { return sax.At(int(p)) }
	odd, err := NewTree(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < coll.Len(); i += 2 {
		odd.Insert(sax.At(i), int32(i))
	}

	next := tree.CloneShell()
	total := 0
	for _, key := range tree.OccupiedKeys() {
		var live []int32
		tree.Subtree(key).WalkLeaves(func(leaf *Node) {
			for _, p := range leaf.Pos {
				if p%2 == 1 {
					live = append(live, p)
				}
			}
		})
		slices.Sort(live)
		written := next.WriteSubtree(key, live, at)
		var got []int32
		written.WalkLeaves(func(leaf *Node) { got = append(got, leaf.Pos...) })
		slices.Sort(got)
		if !slices.Equal(got, live) {
			t.Fatalf("key %d: written subtree holds %v, want %v", key, got, live)
		}
		total += len(got)
		if len(live) == 0 {
			if odd.Subtree(key) != nil || !written.IsLeaf() {
				t.Fatalf("key %d: emptied subtree is not one empty leaf", key)
			}
			continue
		}
		if err := sameSubtree(written, odd.Subtree(key)); err != nil {
			t.Fatalf("key %d: written subtree differs from the odd-only tree's: %v", key, err)
		}
	}
	if total != 1000 || next.Count() != 1000 {
		t.Fatalf("%d survivors, Count %d; want 1000", total, next.Count())
	}
	if err := next.CheckInvariants(); err != nil {
		t.Fatalf("written tree invariants: %v", err)
	}
	if tree.Count() != 2000 {
		t.Fatalf("original Count = %d after the writes", tree.Count())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("original invariants after the writes: %v", err)
	}
}

// A key written with no live positions keeps its slot as one empty leaf.
func TestWriteSubtreeEmptiedKeyKeepsAnEmptyLeaf(t *testing.T) {
	tree, _, _ := buildTestTree(t, 500, testConfig())
	next := tree.CloneShell()
	keys := tree.OccupiedKeys()
	for _, key := range keys {
		next.WriteSubtree(key, nil, nil)
	}
	if err := next.CheckInvariants(); err != nil {
		t.Fatalf("drop-all invariants: %v", err)
	}
	if next.Count() != 0 || len(next.OccupiedKeys()) != len(keys) {
		t.Fatalf("drop-all: Count %d over %d keys, want 0 over %d", next.Count(), len(next.OccupiedKeys()), len(keys))
	}
	for _, key := range keys {
		if n := next.Subtree(key); !n.IsLeaf() || n.Count != 0 {
			t.Fatalf("key %d: emptied subtree is not one empty leaf", key)
		}
	}
}
