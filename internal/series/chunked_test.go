package series

import (
	"sync"
	"testing"
)

func TestChunkedAppendAt(t *testing.T) {
	c := NewChunked(4, 3) // tiny chunks force directory growth
	if c.Len() != 0 || c.SeriesLen() != 4 {
		t.Fatalf("empty chunked: len=%d serieslen=%d", c.Len(), c.SeriesLen())
	}
	const n = 50
	for i := 0; i < n; i++ {
		s := Series{float32(i), float32(i + 1), float32(i + 2), float32(i + 3)}
		if pos := c.Append(s); pos != i {
			t.Fatalf("append %d landed at %d", i, pos)
		}
	}
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
	for i := 0; i < n; i++ {
		got := c.At(i)
		for j := 0; j < 4; j++ {
			if got[j] != float32(i+j) {
				t.Fatalf("At(%d)[%d] = %v, want %v", i, j, got[j], float32(i+j))
			}
		}
	}
}

func TestChunkedAppendLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	NewChunked(4, 0).Append(Series{1, 2})
}

func TestChunkedConcurrentAppendersAndReaders(t *testing.T) {
	// Writers race Append while readers continuously re-scan every position
	// below the Len they observe; run with -race. Values are derived from
	// their position so readers can validate without coordination.
	c := NewChunked(3, 8)
	const writers, perWriter = 4, 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := c.Len()
				for i := 0; i < n; i++ {
					s := c.At(i)
					if s[1] != s[0]+1 || s[2] != s[0]+2 {
						t.Errorf("reader saw torn series at %d: %v", i, s)
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				// Positions are assigned by Append, so the invariant readers
				// check is position-independent: consecutive deltas of 1.
				base := float32(i * w)
				c.Append(Series{base, base + 1, base + 2})
			}
		}()
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if c.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", c.Len(), writers*perWriter)
	}
}
