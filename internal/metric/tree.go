package metric

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"gncg/internal/geom"
	"gncg/internal/graph"
)

// TreeMetric is the metric closure of an edge-weighted tree: the host
// space of the T–GNCG. Distance queries run in O(1): the LCA is a
// range-minimum query over the DFS preorder, answered by a sparse table
// built in an O(n log n) preprocessing pass. A lazily-built adjacency
// index answers neighborhood queries by truncated traversal
// (CandidateSource capability); TreeMetric must not be copied by value
// after first use.
type TreeMetric struct {
	n     int
	edges []graph.Edge
	dist  []float64 // weighted distance from root
	tin   []int32   // preorder index of each vertex
	order []int32   // order[i] = vertex with preorder index i
	// rmq[k][i] = min of tin[parent(order[j])] over j in [i, i+2^k); the
	// minimum over (tin[u], tin[v]] is tin[LCA(u,v)] for tin[u] < tin[v].
	rmq [][]int32

	idxOnce sync.Once
	index   *geom.TreeIndex
}

// NewTreeMetric builds the metric defined by the given tree. The edge list
// must form a spanning tree on n vertices (n-1 edges, connected) with
// non-negative weights.
func NewTreeMetric(n int, edges []graph.Edge) (*TreeMetric, error) {
	if len(edges) != n-1 {
		return nil, fmt.Errorf("metric: tree on %d vertices needs %d edges, got %d", n, n-1, len(edges))
	}
	g := graph.New(n)
	for _, e := range edges {
		if e.W < 0 || math.IsInf(e.W, 1) || math.IsNaN(e.W) {
			return nil, fmt.Errorf("metric: invalid tree edge weight %v", e.W)
		}
		g.AddEdge(e.U, e.V, e.W)
	}
	if !g.Connected() {
		return nil, fmt.Errorf("metric: tree edges do not connect %d vertices", n)
	}
	tm := &TreeMetric{
		n:     n,
		edges: append([]graph.Edge(nil), edges...),
		dist:  make([]float64, n),
		tin:   make([]int32, n),
		order: make([]int32, 0, n),
	}
	// Iterative DFS from root 0 computing root distances and parents. A
	// vertex is pushed once, by its parent, and its whole subtree is
	// popped before anything below it on the stack, so pop order is a
	// preorder.
	parent := make([]int32, n)
	parent[0] = -1
	stack := []int32{0}
	seen := make([]bool, n)
	seen[0] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		tm.tin[v] = int32(len(tm.order))
		tm.order = append(tm.order, v)
		g.Neighbors(int(v), func(to int, w float64) {
			if seen[to] {
				return
			}
			seen[to] = true
			parent[to] = v
			tm.dist[to] = tm.dist[v] + w
			stack = append(stack, int32(to))
		})
	}
	// Sparse table over tin[parent(order[i])]; entry 0 (the root) is
	// never inside a query range and keeps its -1 placeholder.
	level := make([]int32, n)
	level[0] = -1
	for i := 1; i < n; i++ {
		level[i] = tm.tin[parent[tm.order[i]]]
	}
	tm.rmq = [][]int32{level}
	for k := 1; 1<<k <= n; k++ {
		prev, half := tm.rmq[k-1], 1<<(k-1)
		next := make([]int32, n-1<<k+1)
		for i := range next {
			next[i] = min(prev[i], prev[i+half])
		}
		tm.rmq = append(tm.rmq, next)
	}
	return tm, nil
}

// Size returns the number of vertices.
func (tm *TreeMetric) Size() int { return tm.n }

// Edges returns the defining tree's edges; by Corollary 3 of the paper
// this tree is both the social optimum and a Nash equilibrium of the
// T–GNCG played on this metric.
func (tm *TreeMetric) Edges() []graph.Edge {
	return append([]graph.Edge(nil), tm.edges...)
}

// MSTWeight returns the defining tree's edge-weight sum (MSTWeighter
// capability). Every closure edge (u,v) weighs the whole u–v tree path,
// so no pair across a tree edge's cut is lighter than that edge, and by
// the cut property the defining tree is a minimum spanning tree of its
// own closure (the paper's Cor. 3: it is the social optimum).
func (tm *TreeMetric) MSTWeight() float64 {
	total := 0.0
	for _, e := range tm.edges {
		total += e.W
	}
	return total
}

// Class reports ClassMetric: shortest-path closures of non-negative trees
// are metrics (Classifier capability). This is the class guaranteed by
// construction; a degenerate tree (e.g. a unit-weight star, whose closure
// is a {1,2} metric) may incidentally realize a smaller class, which only
// dense classification detects.
func (tm *TreeMetric) Class(eps float64) Class { return ClassMetric }

// Metric reports true: tree closures satisfy the triangle inequality.
func (tm *TreeMetric) Metric(eps float64) bool { return true }

// Dist returns the weighted tree distance between i and j.
func (tm *TreeMetric) Dist(i, j int) float64 {
	if i == j {
		return 0
	}
	l := tm.lca(i, j)
	return tm.dist[i] + tm.dist[j] - 2*tm.dist[l]
}

// AppendWithin appends the index of every vertex v with Dist(u,v) <= r —
// u itself included — in ascending index order (CandidateSource
// capability). The adjacency index, built on first use, walks the tree
// outward from u and stops descending once the accumulated path distance
// exceeds a margin-slackened r (path distances only grow along a tree
// walk, so truncation is sound); each visited vertex is then re-checked
// against the LCA-label Dist, making the result bit-equal to a
// brute-force scan of Dist.
func (tm *TreeMetric) AppendWithin(u int, r float64, buf []int) []int {
	tm.idxOnce.Do(func() { tm.index = geom.NewTreeIndex(tm.n, tm.edges) })
	first := len(buf)
	tm.index.ForEachWithin(u, r, func(v int, _ float64) {
		if tm.Dist(u, v) <= r {
			buf = append(buf, v)
		}
	})
	sort.Ints(buf[first:])
	return buf
}

// NearestOtherDist returns the Dist to u's nearest other vertex (+Inf
// for a one-vertex tree): in a non-negatively weighted tree every path
// leaves u through an incident edge whose weight already bounds it
// below, so the nearest vertex is a tree neighbor and an O(deg) scan of
// the adjacency index answers the query. Each neighbor is measured with
// the same LCA-label Dist the membership checks use; the handful of
// ulps by which that evaluation can drift from the edge weight stays
// within the caller's certified slack (CandidateSource capability).
func (tm *TreeMetric) NearestOtherDist(u int) float64 {
	tm.idxOnce.Do(func() { tm.index = geom.NewTreeIndex(tm.n, tm.edges) })
	best := math.Inf(1)
	tm.index.ForEachNeighbor(u, func(v int, _ float64) {
		if d := tm.Dist(u, v); d < best {
			best = d
		}
	})
	return best
}

// lca returns the lowest common ancestor of distinct u and v. With
// tin[u] < tin[v], every vertex in the preorder range (tin[u], tin[v]]
// lies strictly below the LCA, and the LCA's child towards v lies in
// it, so the smallest parent preorder index over the range is the
// LCA's own.
func (tm *TreeMetric) lca(u, v int) int {
	lo, hi := tm.tin[u], tm.tin[v]
	if lo > hi {
		lo, hi = hi, lo
	}
	lo++
	k := bits.Len32(uint32(hi-lo+1)) - 1
	row := tm.rmq[k]
	return int(tm.order[min(row[lo], row[hi-1<<k+1])])
}
