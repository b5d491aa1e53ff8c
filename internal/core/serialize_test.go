package core

import (
	"errors"
	"testing"

	"dsidx/internal/isax"
	"dsidx/internal/storage"
)

func makeLeaf(count, w int) *Node {
	n := &Node{Word: isax.NewRootWord(make([]uint8, w))}
	sax := make([]uint8, w)
	for i := 0; i < count; i++ {
		for j := range sax {
			sax[j] = uint8(i + j)
		}
		n.appendEntry(sax, int32(i*10))
	}
	return n
}

func TestEncodeDecodeLeaf(t *testing.T) {
	for _, count := range []int{0, 1, 7, 100} {
		n := makeLeaf(count, 16)
		blob := EncodeLeaf(n, 16)
		sax, pos, err := DecodeLeaf(blob, 16)
		if err != nil {
			t.Fatalf("count=%d: %v", count, err)
		}
		if len(pos) != count || len(sax) != count*16 {
			t.Fatalf("count=%d: decoded %d pos, %d sax", count, len(pos), len(sax))
		}
		for i := range pos {
			if pos[i] != n.Pos[i] {
				t.Fatalf("pos[%d] = %d, want %d", i, pos[i], n.Pos[i])
			}
		}
		for i := range sax {
			if sax[i] != n.SAX[i] {
				t.Fatalf("sax[%d] differs", i)
			}
		}
	}
}

func TestDecodeLeafErrors(t *testing.T) {
	n := makeLeaf(3, 8)
	blob := EncodeLeaf(n, 8)
	if _, _, err := DecodeLeaf(blob, 16); !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("segment mismatch: %v, want ErrCorrupt", err)
	}
	if _, _, err := DecodeLeaf(blob[:5], 8); !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("truncated blob: %v, want ErrCorrupt", err)
	}
	if _, _, err := DecodeLeaf(blob[:len(blob)-2], 8); !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("short blob: %v, want ErrCorrupt", err)
	}
}

func TestFlushAndLoadLeaf(t *testing.T) {
	ls := storage.NewLeafStore(storage.NewMemStore())
	n := makeLeaf(20, 16)
	wantPos := append([]int32(nil), n.Pos...)
	wantSAX := append([]uint8(nil), n.SAX...)

	if err := FlushLeaf(n, 16, ls); err != nil {
		t.Fatal(err)
	}
	if !n.Flushed || n.SAX != nil || n.Pos != nil {
		t.Fatal("flush did not release in-memory entries")
	}
	if n.Count != 20 {
		t.Fatalf("flush changed Count to %d", n.Count)
	}
	// Idempotent.
	if err := FlushLeaf(n, 16, ls); err != nil {
		t.Fatal(err)
	}

	sax, pos, err := LoadLeaf(n, 16, ls)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantPos {
		if pos[i] != wantPos[i] {
			t.Fatalf("pos[%d] = %d, want %d", i, pos[i], wantPos[i])
		}
	}
	for i := range wantSAX {
		if sax[i] != wantSAX[i] {
			t.Fatalf("sax[%d] differs", i)
		}
	}
}

func TestLoadLeafUnflushedReturnsInMemory(t *testing.T) {
	n := makeLeaf(5, 8)
	sax, pos, err := LoadLeaf(n, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) != 5 || len(sax) != 40 {
		t.Fatalf("unflushed load shape (%d,%d)", len(pos), len(sax))
	}
}

func TestFlushLeafRejectsInner(t *testing.T) {
	cfg := Config{SeriesLen: 16, Segments: 4, MaxBits: 8, LeafCapacity: 1}
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree.Insert([]uint8{0, 0, 0, 0}, 0)
	tree.Insert([]uint8{50, 0, 0, 0}, 1) // forces split of the root leaf
	key := tree.OccupiedKeys()[0]
	n := tree.Subtree(key)
	if n.IsLeaf() {
		t.Skip("split did not occur; cannot exercise inner-flush error")
	}
	ls := storage.NewLeafStore(storage.NewMemStore())
	if err := FlushLeaf(n, 4, ls); err == nil {
		t.Error("flushing inner node should error")
	}
}
