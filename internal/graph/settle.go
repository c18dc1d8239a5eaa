package graph

import (
	"math"
	"sync"
)

// settle is the label-correcting core behind every shortest-path loop
// of this package: the rows of Dijkstra, DijkstraAvoiding, DijkstraInto
// and APSP (past the forest walk), the insertion wavefront of row repair
// and the re-settling of removal repair's affected set. Each caller
// seeds dist with realized path sums and opens the vertices whose
// out-edges may now relax something; settle then relaxes from a plain
// FIFO work list until no edge (x, y) has dist[x] + w < dist[y].
//
// The order of relaxation does not change the result, bit for bit. Every
// label is a realized left-to-right float sum along some path, and for
// w >= 0 the rounded sum fl(x + w) is monotone in x and never below x.
// So along any path the labels can only undercut its running sums, and
// at the fixpoint each dist[v] is the minimum of those sums over all
// paths into v: the value a binary-heap Dijkstra (or a repair seeded
// from a valid row) ends on too. Every sum is +0 or positive (the source
// holds +0, and +0 + -0 == +0), so equal labels have equal bits. The
// set of labels that ever improve is likewise the set that ends below
// its initial value, so a caller's mark fires for the same vertices in
// any order.
//
// Order only changes the work. On the bench workloads FIFO scans no
// more entries than LIFO or a forest-only LIFO, but a FIFO work list can
// take quadratic time on adversarial weights. settle therefore
// counts the adjacency entries it examines against a cap of
// factor·(B + settleSlack), where B is the adjacency size of the
// distinct vertices scanned so far; a first scan always fits under the
// cap, so only rescans can exceed it. The scan that would exceed it
// instead heapifies the open vertices and finishes as lazy-deletion
// Dijkstra (settleHeap), which is exact because the order is free. The
// heap phase scans each vertex at most once, and every vertex either
// phase scans is one the heap loop would scan too (a seed, or a label
// that improved), so with H the heap loop's examinations a capped
// settle examines at most factor·(H + settleSlack) + H entries.
//
// factor is settleFactor in production; tests pass 0 to take the heap
// phase at the first scan, and a large factor to measure the uncapped
// order.
const (
	settleFactor = 4
	settleSlack  = 64
)

// Scratch is the reusable working memory of the shortest-path core and
// of row repair: settle's work list and fallback heap, and removal
// repair's epoch-stamped affected set and masked pairs. Its zero value
// is ready to use. It grows to the largest graph it has served and
// allocates nothing once warm. A Scratch is not safe for concurrent
// use: a caller that computes many rows, like the game's distance cache,
// owns one and passes it to DijkstraInto and RepairRowBatch, while the
// allocating Dijkstra, DijkstraAvoiding and APSP borrow one from a pool.
type Scratch struct {
	// settle's work list: list[head:] holds the open vertices, each
	// once, with queued set (all false between settles); scanned[v] ==
	// scanEpoch iff v was scanned in the current settle.
	list      []int32
	head      int
	queued    []bool
	scanned   []uint32
	scanEpoch uint32
	h         heap

	// Removal repair's bookkeeping (see repairRemoveBatch). A vertex x is
	// in the affected set, or an endpoint of a masked pair, iff aff[x],
	// or skipEnd[x], equals epoch, so starting a repair costs one
	// increment instead of clearing n entries; only when the epoch wraps
	// to 0 are the stamps cleared. affected lists the affected vertices
	// in insertion order (the roots first) and doubles as the closure
	// walk's work list; skip holds the masked pairs.
	epoch    uint32
	aff      []uint32
	skipEnd  []uint32
	affected []int32
	skip     [][2]int
}

// scratches lends Scratch values to the allocating entry points; the
// rows they return are the only allocation of a warm call.
var scratches = sync.Pool{New: func() any { return new(Scratch) }}

// beginSettle starts a settle on an n-vertex graph: it grows the work
// list's flags to n if they are shorter, empties the list and advances
// scanEpoch, clearing the stamps only when it wraps to 0.
func (sc *Scratch) beginSettle(n int) {
	if len(sc.queued) < n {
		sc.queued, sc.scanned = make([]bool, n), make([]uint32, n)
	}
	sc.scanEpoch++
	if sc.scanEpoch == 0 {
		clear(sc.scanned)
		sc.scanEpoch = 1
	}
	sc.list, sc.head = sc.list[:0], 0
}

// open adds v to the work list unless it is already there.
func (sc *Scratch) open(v int) {
	if !sc.queued[v] {
		sc.queued[v] = true
		sc.list = append(sc.list, int32(v))
	}
}

// settle relaxes dist to its fixpoint from the vertices opened since
// beginSettle, oldest first, and returns the adjacency entries it
// examined and whether it fell back to the heap. Edges of weight +Inf,
// edges into avoid (avoid < 0 removes none) and, if masked, the pairs
// removal repair masks are absent. mark, if not nil, fires on every
// improved label.
func (g *Graph) settle(sc *Scratch, dist []float64, avoid int, masked bool, mark func(x int), factor int) (scans int, heaped bool) {
	credit := factor * settleSlack // factor·(B + settleSlack) minus the entries examined
	for sc.head < len(sc.list) {
		x := int(sc.list[sc.head])
		sc.head++
		adj := g.adj[x]
		if sc.scanned[x] != sc.scanEpoch {
			sc.scanned[x] = sc.scanEpoch
			credit += factor * len(adj)
		}
		if credit < len(adj) {
			return scans + g.settleHeap(sc, dist, x, avoid, masked, mark), true
		}
		credit -= len(adj)
		scans += len(adj)
		sc.queued[x] = false
		dx := dist[x]
		for _, e := range adj {
			if e.to == avoid || math.IsInf(e.w, 1) || masked && sc.masked(x, e.to) {
				continue
			}
			if nd := dx + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				if mark != nil {
					mark(e.to)
				}
				sc.open(e.to)
			}
		}
	}
	sc.list, sc.head = sc.list[:0], 0
	return scans, false
}

// settleHeap finishes a settle whose cap was reached when x, just
// popped, was due for a rescan: it moves x and the open vertices into
// the heap at their current labels and runs lazy-deletion Dijkstra, with
// settle's edge filter and marks. It returns the entries it examined.
func (g *Graph) settleHeap(sc *Scratch, dist []float64, x, avoid int, masked bool, mark func(x int)) (scans int) {
	h := &sc.h
	h.vs, h.ps = h.vs[:0], h.ps[:0]
	sc.queued[x] = false
	h.push(x, dist[x])
	for _, v := range sc.list[sc.head:] {
		sc.queued[v] = false
		h.push(int(v), dist[v])
	}
	sc.list, sc.head = sc.list[:0], 0
	for h.len() > 0 {
		u, du := h.pop()
		if du > dist[u] {
			continue
		}
		scans += len(g.adj[u])
		for _, e := range g.adj[u] {
			if e.to == avoid || math.IsInf(e.w, 1) || masked && sc.masked(u, e.to) {
				continue
			}
			if nd := du + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				if mark != nil {
					mark(e.to)
				}
				h.push(e.to, nd)
			}
		}
	}
	return scans
}
