package core

import (
	"math/rand"
	"testing"
)

// buildRandomTree inserts n random summaries and returns the tree plus the
// summaries, so tests can write subtrees of shells from them.
func buildRandomTree(t *testing.T, n int) (*Tree, [][]uint8) {
	t.Helper()
	cfg := Config{SeriesLen: 16, Segments: 4, MaxBits: 4, LeafCapacity: 4}
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	sums := make([][]uint8, n)
	for i := range sums {
		sax := make([]uint8, 4)
		for j := range sax {
			sax[j] = uint8(rng.Intn(16))
		}
		sums[i] = sax
		tree.Insert(sax, int32(i))
	}
	return tree, sums
}

// A shell shares every subtree with its tree; writing one of its subtrees
// installs a fresh root child and leaves the tree — and any query still
// traversing it — untouched, and writing an empty slot registers the key
// once.
func TestCloneShellSharesUntouchedSubtrees(t *testing.T) {
	// 30 series leave some of the 16 root slots empty (fixed seed), so the
	// fresh-key registration path below is exercised.
	tree, sums := buildRandomTree(t, 30)
	shell := tree.CloneShell()
	keys := tree.OccupiedKeys()
	if got := shell.OccupiedKeys(); len(got) != len(keys) {
		t.Fatalf("shell has %d occupied keys, want %d", len(got), len(keys))
	}
	for _, key := range keys {
		if shell.Subtree(key) != tree.Subtree(key) {
			t.Fatalf("shell subtree %d not shared", key)
		}
	}
	if shell.Count() != tree.Count() {
		t.Fatalf("shell count %d != %d", shell.Count(), tree.Count())
	}

	// saxForKey builds a full-cardinality summary routed to key: segment
	// j's top bit is bit j of the key.
	saxForKey := func(key uint32) []uint8 {
		sax := make([]uint8, 4)
		for j := range sax {
			sax[j] = uint8((key>>(3-j))&1) << 3
		}
		return sax
	}
	extra := map[int32][]uint8{}
	sax := func(p int32) []uint8 {
		if s, ok := extra[p]; ok {
			return s
		}
		return sums[p]
	}

	// Rewrite the largest subtree with its positions plus one more, many
	// times over capacity, so the write splits.
	key := keys[0]
	for _, k := range keys {
		if tree.Subtree(k).Count > tree.Subtree(key).Count {
			key = k
		}
	}
	orig := tree.Subtree(key)
	before := orig.Count
	var live []int32
	for i, s := range sums {
		if tree.RootKey(s) == key {
			live = append(live, int32(i))
		}
	}
	extra[999] = saxForKey(key)
	live = append(live, 999)
	written := shell.WriteSubtree(key, live, sax)
	if tree.Subtree(key) != orig || orig.Count != before {
		t.Fatalf("WriteSubtree on the shell touched the original subtree (count %d -> %d)", before, orig.Count)
	}
	if shell.Subtree(key) != written || written == orig || written.Count != before+1 {
		t.Fatalf("shell subtree %d: not the fresh subtree of %d entries", key, before+1)
	}
	if got := len(shell.OccupiedKeys()); got != len(keys) {
		t.Fatalf("rewriting an existing key changed occupancy: %d != %d", got, len(keys))
	}

	// Writing an empty slot registers it.
	fresh := uint32(len(shell.roots))
	for k := uint32(0); int(k) < len(shell.roots); k++ {
		if shell.roots[k] == nil {
			fresh = k
			break
		}
	}
	if int(fresh) == len(shell.roots) {
		t.Fatal("no empty root slot to write")
	}
	extra[1234] = saxForKey(fresh)
	shell.WriteSubtree(fresh, []int32{1234}, sax)
	if got := len(shell.OccupiedKeys()); got != len(keys)+1 {
		t.Fatalf("fresh key not registered: %d occupied", got)
	}
	if tree.Subtree(fresh) != nil || len(tree.OccupiedKeys()) != len(keys) {
		t.Fatal("writing a fresh key of the shell registered it in the original")
	}
	if err := shell.CheckInvariants(); err != nil {
		t.Fatalf("shell invariants: %v", err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("original tree corrupted: %v", err)
	}
}
