package pqueue

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapOrdering(t *testing.T) {
	h := NewHeap[string](4)
	h.Push(3, "c")
	h.Push(1, "a")
	h.Push(2, "b")
	var got []string
	for {
		it, ok := h.Pop()
		if !ok {
			break
		}
		got = append(got, it.Value)
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("pop order = %v, want [a b c]", got)
	}
}

func TestHeapEmptyPop(t *testing.T) {
	h := NewHeap[int](0)
	if _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty heap returned ok")
	}
	if _, ok := h.Peek(); ok {
		t.Fatal("Peek on empty heap returned ok")
	}
}

func TestHeapPropertySorted(t *testing.T) {
	f := func(priorities []float64) bool {
		h := NewHeap[int](len(priorities))
		for i, p := range priorities {
			h.Push(p, i)
		}
		popped := make([]float64, 0, len(priorities))
		for {
			it, ok := h.Pop()
			if !ok {
				break
			}
			popped = append(popped, it.Priority)
		}
		if len(popped) != len(priorities) {
			return false
		}
		return sort.Float64sAreSorted(popped)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHeapDuplicatePriorities(t *testing.T) {
	h := NewHeap[int](8)
	for i := 0; i < 8; i++ {
		h.Push(1, i)
	}
	seen := map[int]bool{}
	for {
		it, ok := h.Pop()
		if !ok {
			break
		}
		seen[it.Value] = true
	}
	if len(seen) != 8 {
		t.Fatalf("lost values under duplicate priorities: %d/8", len(seen))
	}
}

func TestHeapResetKeepsCapacity(t *testing.T) {
	h := NewHeap[int](2)
	for i := 0; i < 100; i++ {
		h.Push(float64(100-i), i)
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len = %d after Reset", h.Len())
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("Pop succeeded on reset heap")
	}
	h.Push(5, 42)
	if it, ok := h.Pop(); !ok || it.Value != 42 || it.Priority != 5 {
		t.Fatalf("heap broken after Reset: %+v", it)
	}
}
