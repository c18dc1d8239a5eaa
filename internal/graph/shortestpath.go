package graph

import (
	"fmt"
	"math"

	"gncg/internal/parallel"
)

// Dijkstra returns the shortest-path distances from src to every vertex.
// Unreachable vertices get +Inf. Weights must be non-negative, which the
// graph construction already enforces; +Inf edge weights are skipped.
func (g *Graph) Dijkstra(src int) []float64 {
	g.checkVertex(src)
	return g.shortestRow(src, -1)
}

// DijkstraAvoiding returns shortest-path distances from src in the graph
// with vertex `avoid` (and all its incident edges) removed. It is the
// primitive behind the best-response solver's G∖u distances. A row from
// the removed vertex itself is undefined, so src == avoid panics.
func (g *Graph) DijkstraAvoiding(src, avoid int) []float64 {
	g.checkVertex(src)
	g.checkVertex(avoid)
	if src == avoid {
		panic("graph: DijkstraAvoiding with src == avoid")
	}
	return g.shortestRow(src, avoid)
}

// DijkstraInto is Dijkstra writing into dst, which must have length N(),
// instead of a new row, with sc as its working memory: callers that fold
// a row and drop it, such as the game's refused speculative repairs,
// reuse one buffer and one Scratch and allocate nothing.
func (g *Graph) DijkstraInto(sc *Scratch, dst []float64, src int) {
	g.checkVertex(src)
	if len(dst) != g.n {
		panic(fmt.Sprintf("graph: DijkstraInto row of length %d on %d vertices", len(dst), g.n))
	}
	g.shortestRowInto(sc, dst, src, -1, settleFactor)
}

// shortestRow is shortestRowInto on a new row, with a pooled Scratch.
func (g *Graph) shortestRow(src, avoid int) []float64 {
	dist := make([]float64, g.n)
	sc := scratches.Get().(*Scratch)
	g.shortestRowInto(sc, dist, src, avoid, settleFactor)
	scratches.Put(sc)
	return dist
}

// shortestRowInto is the shortest-path core behind Dijkstra,
// DijkstraAvoiding and DijkstraInto: it overwrites dist with the
// distances from src with vertex avoid removed (avoid < 0 removes none).
// It first tries walkForest, and settles from src (see settle.go) only
// when the walk gives up. The walk is tried only while the edge count
// still admits a forest (fewer edges than vertices, with avoid and its
// edges discounted), so a connected network with a cycle never pays for
// a walk bound to fail. factor is settle's cap factor.
func (g *Graph) shortestRowInto(sc *Scratch, dist []float64, src, avoid, factor int) {
	m, n := g.m, g.n
	if avoid >= 0 {
		m, n = m-len(g.adj[avoid]), n-1
	}
	if m < n {
		resetRow(dist, src)
		stack, ok := g.walkForest(dist, src, avoid, sc.list[:0])
		sc.list = stack[:0]
		if ok {
			return
		}
	}
	resetRow(dist, src)
	sc.beginSettle(g.n)
	sc.open(src)
	g.settle(sc, dist, avoid, false, nil, factor)
}

// resetRow sets dist to +Inf everywhere but dist[src] = 0.
func resetRow(dist []float64, src int) {
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
}

// walkForest fills dist, as left by resetRow, by one depth-first walk of
// src's component, setting dist[v] = dist[parent] + w. On a tree that is
// the one path sum any shortest-path loop forms, added left to right in
// the same order, so the row is bit-identical. As in settle, +Inf edges
// and edges into avoid are absent. A finite dist marks a vertex as
// reached, so the walk reports false, leaving dist part-filled, on the
// first edge to a reached vertex other than the walk parent (the
// component has a cycle) and on the first sum that is not below +Inf (an
// overflow, which settle leaves unreached). The DFS stack holds (vertex,
// parent) pairs; it is built on the passed buffer and returned for reuse.
func (g *Graph) walkForest(dist []float64, src, avoid int, stack []int32) ([]int32, bool) {
	inf := math.Inf(1)
	stack = append(stack, int32(src), -1)
	for len(stack) > 0 {
		u, parent := int(stack[len(stack)-2]), int(stack[len(stack)-1])
		stack = stack[:len(stack)-2]
		du := dist[u]
		for _, e := range g.adj[u] {
			if e.to == parent || e.to == avoid || math.IsInf(e.w, 1) {
				continue
			}
			if dist[e.to] < inf {
				return stack, false // e closes a cycle
			}
			nd := du + e.w
			if !(nd < inf) {
				return stack, false // overflow: settle leaves e.to unreached
			}
			dist[e.to] = nd
			stack = append(stack, int32(e.to), int32(u))
		}
	}
	return stack, true
}

// APSP returns the all-pairs shortest-path matrix, computed with one
// Dijkstra per source in parallel, each on a pooled Scratch.
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

// SumDistances adds the demand-weighted distance cost
// Σ_{u≠v} t[u][v]·d[u][v] of the all-pairs matrix d to total, one entry
// at a time in row-major order. t = nil is uniform demand 1: the plain
// ordered-pair distance sum, bit for bit. A pair without demand adds an
// exact 0 even at d = +Inf (the zero-demand rule of the game's per-agent
// distance cost); a pair with demand at d = +Inf is left out of sum and
// counted in unreached, so the cost is +Inf exactly when unreached > 0.
func SumDistances(total float64, d, t [][]float64) (sum float64, unreached int) {
	for u, row := range d {
		for v, duv := range row {
			if u == v {
				continue
			}
			w := 1.0
			if t != nil {
				if w = t[u][v]; w == 0 {
					continue
				}
			}
			if math.IsInf(duv, 1) {
				unreached++
				continue
			}
			total += w * duv
		}
	}
	return total, unreached
}
