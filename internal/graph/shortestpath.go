package graph

import (
	"math"

	"gncg/internal/parallel"
)

// Dijkstra returns the shortest-path distances from src to every vertex.
// Unreachable vertices get +Inf. Weights must be non-negative, which the
// graph construction already enforces; +Inf edge weights are skipped.
func (g *Graph) Dijkstra(src int) []float64 {
	g.checkVertex(src)
	dist := make([]float64, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := getHeap()
	defer putHeap(h)
	h.push(src, 0)
	for h.len() > 0 {
		u, du := h.pop()
		if du > dist[u] {
			continue
		}
		for _, e := range g.adj[u] {
			if math.IsInf(e.w, 1) {
				continue
			}
			if nd := du + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				h.push(e.to, nd)
			}
		}
	}
	return dist
}

// DijkstraAvoiding returns shortest-path distances from src in the graph
// with vertex `avoid` (and all its incident edges) removed. It is the
// primitive behind the best-response solver's G∖u distances. If src ==
// avoid the result is all +Inf except dist[src] = 0 has no meaning, so the
// call panics.
func (g *Graph) DijkstraAvoiding(src, avoid int) []float64 {
	g.checkVertex(src)
	g.checkVertex(avoid)
	if src == avoid {
		panic("graph: DijkstraAvoiding with src == avoid")
	}
	dist := make([]float64, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := getHeap()
	defer putHeap(h)
	h.push(src, 0)
	for h.len() > 0 {
		u, du := h.pop()
		if du > dist[u] {
			continue
		}
		for _, e := range g.adj[u] {
			if e.to == avoid || math.IsInf(e.w, 1) {
				continue
			}
			if nd := du + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				h.push(e.to, nd)
			}
		}
	}
	dist[avoid] = math.Inf(1)
	return dist
}

// APSP returns the all-pairs shortest-path matrix, computed with one
// Dijkstra per source in parallel.
func (g *Graph) APSP() [][]float64 {
	return parallel.Map(g.n, func(src int) []float64 { return g.Dijkstra(src) })
}

// APSPAvoiding returns all-pairs shortest paths in the graph with vertex
// `avoid` removed. Row and column `avoid` are +Inf (diagonal included).
func (g *Graph) APSPAvoiding(avoid int) [][]float64 {
	inf := math.Inf(1)
	return parallel.Map(g.n, func(src int) []float64 {
		if src == avoid {
			row := make([]float64, g.n)
			for i := range row {
				row[i] = inf
			}
			return row
		}
		return g.DijkstraAvoiding(src, avoid)
	})
}

// FloydWarshall computes all-pairs shortest paths with the cubic dynamic
// program. It exists as an independent oracle for testing the Dijkstra
// implementation and for dense instances where it is competitive.
func (g *Graph) FloydWarshall() [][]float64 {
	inf := math.Inf(1)
	d := make([][]float64, g.n)
	for i := range d {
		d[i] = make([]float64, g.n)
		for j := range d[i] {
			if i == j {
				d[i][j] = 0
			} else {
				d[i][j] = inf
			}
		}
	}
	for u := 0; u < g.n; u++ {
		for _, e := range g.adj[u] {
			if e.w < d[u][e.to] {
				d[u][e.to] = e.w
			}
		}
	}
	for k := 0; k < g.n; k++ {
		dk := d[k]
		for i := 0; i < g.n; i++ {
			dik := d[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			di := d[i]
			for j := 0; j < g.n; j++ {
				if nd := dik + dk[j]; nd < di[j] {
					di[j] = nd
				}
			}
		}
	}
	return d
}

// Connected reports whether the graph is connected (true for n <= 1).
// Edges with +Inf weight do not provide connectivity.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.to] && !math.IsInf(e.w, 1) {
				seen[e.to] = true
				count++
				stack = append(stack, e.to)
			}
		}
	}
	return count == g.n
}

// Diameter returns the maximum finite pairwise distance, and +Inf if the
// graph is disconnected. Returns 0 for n <= 1.
func (g *Graph) Diameter() float64 {
	if g.n <= 1 {
		return 0
	}
	rows := g.APSP()
	maxd := 0.0
	for i, row := range rows {
		for j, d := range row {
			if i == j {
				continue
			}
			if d > maxd {
				maxd = d
			}
		}
	}
	return maxd
}

// Eccentricity returns max_v d(u,v).
func (g *Graph) Eccentricity(u int) float64 {
	dist := g.Dijkstra(u)
	maxd := 0.0
	for v, d := range dist {
		if v != u && d > maxd {
			maxd = d
		}
	}
	return maxd
}

// HasCycle reports whether the graph contains a cycle (ignoring weights).
func (g *Graph) HasCycle() bool {
	parent := make([]int, g.n)
	seen := make([]bool, g.n)
	for i := range parent {
		parent[i] = -1
	}
	for start := 0; start < g.n; start++ {
		if seen[start] {
			continue
		}
		stack := []int{start}
		seen[start] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.adj[u] {
				if !seen[e.to] {
					seen[e.to] = true
					parent[e.to] = u
					stack = append(stack, e.to)
				} else if parent[u] != e.to {
					return true
				}
			}
		}
	}
	return false
}

// IsTree reports whether the graph is connected and acyclic.
func (g *Graph) IsTree() bool {
	return g.Connected() && g.M() == g.n-1
}

// SumDistances returns the sum over ordered pairs (u,v), u != v, of
// d(u,v); +Inf if disconnected.
func (g *Graph) SumDistances() float64 {
	rows := g.APSP()
	total := 0.0
	for i, row := range rows {
		for j, d := range row {
			if i == j {
				continue
			}
			total += d
		}
	}
	return total
}
