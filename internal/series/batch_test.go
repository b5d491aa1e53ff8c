package series

import (
	"slices"
	"testing"
)

// batchRecorder is a device-backed-Reader stand-in: a Collection whose
// ReadBatch records the positions it was handed (after any view
// translation) and visits them in descending order — its own order, as the
// contract allows — skipping what want refuses.
type batchRecorder struct {
	*Collection
	got [][]int32
}

func (r *batchRecorder) ReadBatch(pos []int32, want func(k int) bool, visit func(k int, s Series)) {
	r.got = append(r.got, slices.Clone(pos))
	for k := len(pos) - 1; k >= 0; k-- {
		if want(k) {
			visit(k, r.At(int(pos[k])))
		}
	}
}

func newBatchRecorder(n int) *batchRecorder {
	r := &batchRecorder{Collection: NewCollection(n, 4)}
	for i := 0; i < n; i++ {
		r.At(i)[0] = float32(i)
	}
	return r
}

// readAll runs rb over pos, returning the first value of each visited
// series indexed by k (-1 where the visit was refused or never happened).
func readAll(rb func([]int32, func(int) bool, func(int, Series)), pos []int32, refuse int) []float32 {
	out := make([]float32, len(pos))
	for i := range out {
		out[i] = -1
	}
	rb(pos, func(k int) bool { return k != refuse }, func(k int, s Series) { out[k] = s[0] })
	return out
}

func TestResolveBatchReaderDirect(t *testing.T) {
	r := newBatchRecorder(6)
	rb := ResolveBatchReader(r)
	if rb == nil {
		t.Fatal("BatchReader implementation not resolved")
	}
	if got := readAll(rb, []int32{1, 3}, -1); got[0] != 1 || got[1] != 3 {
		t.Fatalf("direct batch read visited %v, want [1 3]", got)
	}
	if len(r.got) != 1 || r.got[0][0] != 1 || r.got[0][1] != 3 {
		t.Fatalf("direct batch read recorded %v", r.got)
	}
}

func TestResolveBatchReaderTranslatesViewChains(t *testing.T) {
	r := newBatchRecorder(8)
	v1 := NewView(r, []int32{5, 2, 7, 0})
	rb := ResolveBatchReader(v1)
	if rb == nil {
		t.Fatal("view over a BatchReader not resolved")
	}
	// k keeps indexing the caller's slice whatever order the base visits
	// in, and a refused k is never visited.
	if got := readAll(rb, []int32{0, 2, 1}, 2); got[0] != 5 || got[1] != 7 || got[2] != -1 {
		t.Fatalf("view batch read visited %v, want [5 7 -1]", got)
	}
	if len(r.got) != 1 || !slices.Equal(r.got[0], []int32{5, 7, 2}) {
		t.Fatalf("view batch read recorded %v, want base positions [5 7 2]", r.got)
	}
	// Nested views compose the translation: v2-local 1 → v1-local 1 → base 2.
	v2 := NewView(v1, []int32{3, 1})
	rb = ResolveBatchReader(v2)
	if rb == nil {
		t.Fatal("nested view over a BatchReader not resolved")
	}
	if got := readAll(rb, []int32{1}, -1); got[0] != 2 {
		t.Fatalf("nested view batch read visited %v, want [2]", got)
	}
	if len(r.got) != 2 || !slices.Equal(r.got[1], []int32{2}) {
		t.Fatalf("nested view batch read recorded %v, want base position [2]", r.got[1])
	}
}

func TestResolveBatchReaderInMemoryReaders(t *testing.T) {
	coll := NewCollection(4, 4)
	if ResolveBatchReader(coll) != nil {
		t.Fatal("flat collection resolved as device-backed")
	}
	if ResolveBatchReader(NewView(coll, []int32{1, 0})) != nil {
		t.Fatal("view over a flat collection resolved as device-backed")
	}
}
