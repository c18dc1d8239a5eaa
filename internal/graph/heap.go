package graph

import "sync"

// heap is a lazy-deletion binary min-heap of (vertex, priority) pairs,
// specialized for Dijkstra: duplicates are allowed and stale entries are
// filtered by the caller's dist check. Avoiding container/heap's interface
// indirection roughly halves the constant factor of the inner loop, which
// matters because APSP over every source dominates most experiments.
// On forests the heap is never filled: shortestRow's depth-first walk
// (walkForest) borrows vs as its stack instead, and the heap loop runs
// only when the walk gives up at a cycle or an overflowing sum.
type heap struct {
	vs []int32
	ps []float64
}

// heaps recycles heaps across shortest-path calls. A heap per Dijkstra
// or repair would be, after the distance rows themselves, the largest
// allocation of a best-response scan, and that garbage paces the
// collector.
var heaps = sync.Pool{New: func() any { return new(heap) }}

// getHeap returns an empty heap; pass it to putHeap when done.
func getHeap() *heap {
	h := heaps.Get().(*heap)
	h.vs, h.ps = h.vs[:0], h.ps[:0]
	return h
}

func putHeap(h *heap) { heaps.Put(h) }

func (h *heap) len() int { return len(h.vs) }

func (h *heap) push(v int, p float64) {
	h.vs = append(h.vs, int32(v))
	h.ps = append(h.ps, p)
	i := len(h.vs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.ps[parent] <= h.ps[i] {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *heap) pop() (v int, p float64) {
	v, p = int(h.vs[0]), h.ps[0]
	last := len(h.vs) - 1
	h.vs[0], h.ps[0] = h.vs[last], h.ps[last]
	h.vs, h.ps = h.vs[:last], h.ps[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.ps[l] < h.ps[small] {
			small = l
		}
		if r < last && h.ps[r] < h.ps[small] {
			small = r
		}
		if small == i {
			break
		}
		h.swap(i, small)
		i = small
	}
	return v, p
}

func (h *heap) swap(i, j int) {
	h.vs[i], h.vs[j] = h.vs[j], h.vs[i]
	h.ps[i], h.ps[j] = h.ps[j], h.ps[i]
}
