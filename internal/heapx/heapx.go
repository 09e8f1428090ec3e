// Package heapx provides a generic binary min-heap, replacing the
// interface{}-based container/heap boilerplate (Len/Less/Swap/Push/Pop
// methods plus per-element boxing) that otherwise gets duplicated at every
// priority-queue site — the simulator's event queue, branch-and-bound's
// node queue, and any future scheduler run queue.
//
// The ordering is supplied as a less function at construction; elements with
// a total order pop in exactly the same sequence as container/heap would,
// since any correct binary heap agrees on the minimum of a totally ordered
// set. Push and Pop do not box their elements, so value-type payloads stay
// allocation-free beyond the backing array's amortized growth.
package heapx

// Heap is a binary min-heap over T under the less function given to New.
// The zero value is not usable; construct with New.
type Heap[T any] struct {
	less func(a, b T) bool
	s    []T
}

// New returns an empty heap ordered by less (strict weak ordering; the
// minimum element under less pops first).
func New[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len returns the number of elements in the heap.
func (h *Heap[T]) Len() int { return len(h.s) }

// Push adds x to the heap in O(log n).
func (h *Heap[T]) Push(x T) {
	h.s = append(h.s, x)
	h.up(len(h.s) - 1)
}

// Pop removes and returns the minimum element in O(log n). It panics on an
// empty heap; check Len first.
func (h *Heap[T]) Pop() T {
	n := len(h.s) - 1
	h.s[0], h.s[n] = h.s[n], h.s[0]
	it := h.s[n]
	var zero T
	h.s[n] = zero // release references held by pointer-bearing payloads
	h.s = h.s[:n]
	if n > 0 {
		h.down(0)
	}
	return it
}

// Peek returns the minimum element without removing it. It panics on an
// empty heap.
func (h *Heap[T]) Peek() T { return h.s[0] }

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.s[i], h.s[parent]) {
			break
		}
		h.s[i], h.s[parent] = h.s[parent], h.s[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.s)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(h.s[r], h.s[l]) {
			m = r
		}
		if !h.less(h.s[m], h.s[i]) {
			return
		}
		h.s[i], h.s[m] = h.s[m], h.s[i]
		i = m
	}
}
