package series

import (
	"testing"
)

func testCollection(t *testing.T, n, length int) *Collection {
	t.Helper()
	c := NewCollection(n, length)
	for i := 0; i < n; i++ {
		s := make(Series, length)
		for j := range s {
			s[j] = float32(i*length + j)
		}
		c.Set(i, s)
	}
	return c
}

func TestViewRemapsPositions(t *testing.T) {
	c := testCollection(t, 8, 4)
	pos := []int32{5, 0, 7, 2}
	v := NewView(c, pos)
	if v.Len() != len(pos) {
		t.Fatalf("Len() = %d, want %d", v.Len(), len(pos))
	}
	if v.SeriesLen() != c.SeriesLen() {
		t.Fatalf("SeriesLen() = %d, want %d", v.SeriesLen(), c.SeriesLen())
	}
	for i, p := range pos {
		got, want := v.At(i), c.At(int(p))
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("At(%d)[%d] = %v, want base series %d value %v", i, j, got[j], p, want[j])
			}
		}
	}
	if &v.Positions()[0] != &pos[0] {
		t.Error("Positions() does not share the caller's map")
	}
	if v.Base() != Reader(c) {
		t.Error("Base() is not the wrapped collection")
	}
}

// TestViewIsZeroCopy pins the tentpole property at the storage level: a
// view's series alias the base collection's backing array, so building an
// index through the view adds no raw-value residency.
func TestViewIsZeroCopy(t *testing.T) {
	c := testCollection(t, 4, 8)
	v := NewView(c, []int32{3, 1})
	for i, p := range v.Positions() {
		if &v.At(i)[0] != &c.At(int(p))[0] {
			t.Fatalf("view series %d does not alias base series %d", i, p)
		}
	}
}

func TestViewOfView(t *testing.T) {
	c := testCollection(t, 10, 4)
	outer := NewView(c, []int32{9, 4, 6, 1})
	inner := NewView(outer, []int32{3, 0})
	if got, want := &inner.At(0)[0], &c.At(1)[0]; got != want {
		t.Error("nested view At(0) does not resolve to base series 1")
	}
	if got, want := &inner.At(1)[0], &c.At(9)[0]; got != want {
		t.Error("nested view At(1) does not resolve to base series 9")
	}
}

func TestViewEmpty(t *testing.T) {
	c := testCollection(t, 4, 4)
	v := NewView(c, nil)
	if v.Len() != 0 || v.SeriesLen() != 4 {
		t.Fatalf("empty view shape (%d,%d), want (0,4)", v.Len(), v.SeriesLen())
	}
}

func TestViewOutOfRangePanics(t *testing.T) {
	c := testCollection(t, 4, 4)
	for _, pos := range [][]int32{{4}, {-1}, {0, 1, 2, 3, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewView(%v) over a 4-series base did not panic", pos)
				}
			}()
			NewView(c, pos)
		}()
	}
}
