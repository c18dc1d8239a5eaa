package graph

// heap is a lazy-deletion binary min-heap of (vertex, priority) pairs:
// duplicates are allowed and stale entries are filtered by the caller's
// label check. Avoiding container/heap's interface indirection roughly
// halves the constant factor of the inner loop. Shortest paths reach it
// only when settle's relaxation cap is exceeded (settleHeap); Prim's MST
// is its other user.
type heap struct {
	vs []int32
	ps []float64
}

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
