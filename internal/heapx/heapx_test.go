package heapx

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
)

// Clear empties the heap, keeping the backing array.
func (h *Heap[T]) Clear() {
	var zero T
	for i := range h.s {
		h.s[i] = zero
	}
	h.s = h.s[:0]
}

func TestPushPopSorted(t *testing.T) {
	h := New(func(a, b int) bool { return a < b })
	rng := rand.New(rand.NewSource(1))
	var want []int
	for i := 0; i < 1000; i++ {
		v := rng.Intn(200)
		h.Push(v)
		want = append(want, v)
	}
	sort.Ints(want)
	for i, w := range want {
		if h.Len() != len(want)-i {
			t.Fatalf("len %d, want %d", h.Len(), len(want)-i)
		}
		if got := h.Pop(); got != w {
			t.Fatalf("pop %d: got %d, want %d", i, got, w)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("non-empty after draining: %d", h.Len())
	}
}

func TestPeekAndClear(t *testing.T) {
	h := New(func(a, b int) bool { return a < b })
	h.Push(3)
	h.Push(1)
	h.Push(2)
	if h.Peek() != 1 {
		t.Fatalf("peek %d, want 1", h.Peek())
	}
	if h.Pop() != 1 || h.Peek() != 2 {
		t.Fatal("pop/peek out of order")
	}
	h.Clear()
	if h.Len() != 0 {
		t.Fatal("clear did not empty the heap")
	}
	h.Push(9)
	if h.Pop() != 9 {
		t.Fatal("heap unusable after Clear")
	}
}

// refQueue is the classic container/heap boilerplate, kept here only as the
// equivalence oracle.
type refItem struct{ t, seq int }
type refQueue []refItem

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(refItem)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// TestMatchesContainerHeap interleaves random pushes and pops against
// container/heap under a total order (ties broken by sequence number): every
// pop must agree exactly, which is what lets the simulator's event queue swap
// implementations without changing trajectories.
func TestMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := New(func(a, b refItem) bool {
		if a.t != b.t {
			return a.t < b.t
		}
		return a.seq < b.seq
	})
	ref := &refQueue{}
	heap.Init(ref)
	seq := 0
	for i := 0; i < 5000; i++ {
		if ref.Len() == 0 || rng.Intn(3) != 0 {
			it := refItem{t: rng.Intn(50), seq: seq}
			seq++
			h.Push(it)
			heap.Push(ref, it)
			continue
		}
		got := h.Pop()
		want := heap.Pop(ref).(refItem)
		if got != want {
			t.Fatalf("step %d: pop %+v, container/heap pops %+v", i, got, want)
		}
	}
	for ref.Len() > 0 {
		got, want := h.Pop(), heap.Pop(ref).(refItem)
		if got != want {
			t.Fatalf("drain: pop %+v, container/heap pops %+v", got, want)
		}
	}
	if h.Len() != 0 {
		t.Fatal("length mismatch after drain")
	}
}

func TestPointerPayloadReleased(t *testing.T) {
	h := New(func(a, b *refItem) bool { return a.t < b.t })
	h.Push(&refItem{t: 1})
	h.Push(&refItem{t: 2})
	_ = h.Pop()
	// The popped slot must be zeroed so the heap does not pin the element.
	if h.s[:cap(h.s)][1] != nil {
		t.Fatal("popped slot still references the element")
	}
}
