package xsync

import (
	"math"
	"sync"
	"testing"
)

func TestCounterSequential(t *testing.T) {
	var c Counter
	for want := int64(0); want < 10; want++ {
		if got := c.Next(); got != want {
			t.Fatalf("Next() = %d, want %d", got, want)
		}
	}
	c.Reset()
	if got := c.Next(); got != 0 {
		t.Fatalf("after Reset, Next() = %d, want 0", got)
	}
}

func TestCounterConcurrentUnique(t *testing.T) {
	var c Counter
	const workers, perWorker = 16, 1000
	results := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals := make([]int64, perWorker)
			for i := range vals {
				vals[i] = c.Next()
			}
			results[w] = vals
		}(w)
	}
	wg.Wait()
	seen := make(map[int64]bool, workers*perWorker)
	for _, vals := range results {
		for _, v := range vals {
			if seen[v] {
				t.Fatalf("value %d claimed twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("claimed %d values, want %d", len(seen), workers*perWorker)
	}
}

func TestBestInitial(t *testing.T) {
	b := NewBest()
	d, p := b.Load()
	if !math.IsInf(d, 1) || p != -1 {
		t.Fatalf("initial Best = (%v,%d), want (+Inf,-1)", d, p)
	}
}

func TestBestUpdateMonotone(t *testing.T) {
	b := NewBest()
	if !b.Update(10, 1) {
		t.Fatal("first update rejected")
	}
	if b.Update(10, 2) {
		t.Fatal("equal distance accepted")
	}
	if b.Update(11, 3) {
		t.Fatal("worse distance accepted")
	}
	if !b.Update(5, 4) {
		t.Fatal("better distance rejected")
	}
	d, p := b.Load()
	if d != 5 || p != 4 {
		t.Fatalf("Best = (%v,%d), want (5,4)", d, p)
	}
}

func TestBestConcurrentMinimum(t *testing.T) {
	b := NewBest()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				// Each worker proposes values; global min is 1 at pos 777.
				v := float64((i*7+w*13)%1000) + 1
				pos := int64(i)
				if v == 1 {
					pos = 777
				}
				b.Update(v, pos)
			}
		}(w)
	}
	wg.Wait()
	d, p := b.Load()
	if d != 1 {
		t.Fatalf("final distance = %v, want 1", d)
	}
	if p != 777 {
		t.Fatalf("final pos = %d, want 777", p)
	}
}

func TestCandidateList(t *testing.T) {
	l := NewCandidateList(100)
	if l.Len() != 0 {
		t.Fatalf("new list Len = %d", l.Len())
	}
	l.Append(5)
	l.Append(7)
	got := l.Snapshot()
	if len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("Snapshot = %v, want [5 7]", got)
	}
	l.Reset()
	if l.Len() != 0 {
		t.Fatalf("after Reset Len = %d", l.Len())
	}
}

func TestCandidateListConcurrent(t *testing.T) {
	const workers, perWorker = 8, 500
	l := NewCandidateList(workers * perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				l.Append(int32(w*perWorker + i))
			}
		}(w)
	}
	wg.Wait()
	got := l.Snapshot()
	if len(got) != workers*perWorker {
		t.Fatalf("len = %d, want %d", len(got), workers*perWorker)
	}
	seen := make(map[int32]bool, len(got))
	for _, v := range got {
		if seen[v] {
			t.Fatalf("position %d appended twice", v)
		}
		seen[v] = true
	}
}

func TestChunksCoverExactly(t *testing.T) {
	cases := []struct{ n, parts int }{
		{10, 3}, {10, 10}, {10, 20}, {1, 1}, {100, 7}, {5, 4},
	}
	for _, tc := range cases {
		chunks := Chunks(tc.n, tc.parts)
		covered := 0
		prev := 0
		for _, ch := range chunks {
			if ch.Lo != prev {
				t.Fatalf("n=%d parts=%d: gap at %d", tc.n, tc.parts, ch.Lo)
			}
			if ch.Hi <= ch.Lo {
				t.Fatalf("n=%d parts=%d: empty chunk %+v", tc.n, tc.parts, ch)
			}
			covered += ch.Hi - ch.Lo
			prev = ch.Hi
		}
		if covered != tc.n {
			t.Fatalf("n=%d parts=%d: covered %d", tc.n, tc.parts, covered)
		}
		// Balanced: sizes differ by at most 1.
		minSz, maxSz := tc.n, 0
		for _, ch := range chunks {
			sz := ch.Hi - ch.Lo
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		if maxSz-minSz > 1 {
			t.Fatalf("n=%d parts=%d: imbalance %d..%d", tc.n, tc.parts, minSz, maxSz)
		}
	}
}

func TestChunksDegenerate(t *testing.T) {
	if got := Chunks(0, 5); got != nil {
		t.Errorf("Chunks(0,5) = %v, want nil", got)
	}
	if got := Chunks(5, 0); got != nil {
		t.Errorf("Chunks(5,0) = %v, want nil", got)
	}
}

func TestBlocks(t *testing.T) {
	blocks := Blocks(10, 4)
	want := []Chunk{{0, 4}, {4, 8}, {8, 10}}
	if len(blocks) != len(want) {
		t.Fatalf("Blocks = %v, want %v", blocks, want)
	}
	for i := range want {
		if blocks[i] != want[i] {
			t.Fatalf("Blocks[%d] = %v, want %v", i, blocks[i], want[i])
		}
	}
	if Blocks(0, 4) != nil || Blocks(4, 0) != nil {
		t.Error("degenerate Blocks should be nil")
	}
}

func TestBestReset(t *testing.T) {
	b := NewBest()
	if !b.Update(3.5, 7) {
		t.Fatal("update rejected")
	}
	b.Reset()
	d, p := b.Load()
	if !math.IsInf(d, 1) || p != -1 {
		t.Fatalf("after Reset: (%v, %d), want (+Inf, -1)", d, p)
	}
	if !b.Update(1.0, 2) {
		t.Fatal("update after Reset rejected")
	}
}

// TestBestTieKeepsLowerPosition: among equal distances the lower position
// wins in either arrival order — the answer a position-ordered serial scan
// gives for exact duplicates.
func TestBestTieKeepsLowerPosition(t *testing.T) {
	for _, order := range [][2]int64{{7, 3}, {3, 7}} {
		b := NewBest()
		b.Update(2.5, order[0])
		b.Update(2.5, order[1])
		if d, p := b.Load(); d != 2.5 || p != 3 {
			t.Fatalf("arrival order %v: Best = (%v,%d), want (2.5,3)", order, d, p)
		}
	}
}
