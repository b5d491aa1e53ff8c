// Package pqueue provides the binary min-heap of the paper's query
// answering stage (§III), where leaves that survive node-level pruning are
// queued under their lower-bound distance. internal/messi no longer drains
// queues — it sorts one candidate list (see its queuedSearch) — so the heap
// remains as the layer benchmark's reference cost for one push and pop.
package pqueue

// Item is a prioritized value.
type Item[T any] struct {
	Priority float64
	Value    T
}

// Heap is a classic binary min-heap on Item.Priority. Not safe for
// concurrent use.
type Heap[T any] struct {
	items []Item[T]
}

// NewHeap returns a heap with the given initial capacity.
func NewHeap[T any](capacity int) *Heap[T] {
	return &Heap[T]{items: make([]Item[T], 0, capacity)}
}

// Len returns the number of queued items.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push inserts a value with the given priority.
func (h *Heap[T]) Push(priority float64, v T) {
	h.items = append(h.items, Item[T]{Priority: priority, Value: v})
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].Priority <= h.items[i].Priority {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

// Pop removes and returns the minimum-priority item. ok is false when the
// heap is empty.
func (h *Heap[T]) Pop() (it Item[T], ok bool) {
	if len(h.items) == 0 {
		return it, false
	}
	it = h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero Item[T]
	h.items[last] = zero // release references for GC
	h.items = h.items[:last]
	h.siftDown(0)
	return it, true
}

// Reset empties the heap, keeping its backing array for reuse.
func (h *Heap[T]) Reset() {
	clear(h.items) // release references for GC
	h.items = h.items[:0]
}

// Peek returns the minimum-priority item without removing it.
func (h *Heap[T]) Peek() (it Item[T], ok bool) {
	if len(h.items) == 0 {
		return it, false
	}
	return h.items[0], true
}

func (h *Heap[T]) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.items[l].Priority < h.items[smallest].Priority {
			smallest = l
		}
		if r < n && h.items[r].Priority < h.items[smallest].Priority {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
