// Package graph provides the weighted-graph substrate for the network
// creation game: adjacency-list graphs with float64 weights, single-source
// shortest paths (a depth-first walk on forests, a capped label-correcting
// work list past the first cycle that finishes as binary-heap Dijkstra if
// its cap is reached; see shortestpath.go and settle.go), dynamic repair of
// shortest-path rows across edge changes on the same core (Ramalingam–Reps
// style; see repair.go), parallel all-pairs shortest paths, a dense
// Floyd–Warshall used as a correctness cross-check, Prim's minimum
// spanning tree, and structural queries (connectivity, diameter, cycles).
//
// Absent connections are represented by +Inf distances. Edge weights must
// be non-negative (Dijkstra's precondition); zero weights are legal and do
// occur in the paper's non-metric constructions.
package graph

import (
	"fmt"
	"math"
)

// Edge is a weighted undirected edge.
type Edge struct {
	U, V int
	W    float64
}

// Graph is an undirected weighted graph in adjacency-list form.
// Parallel edges are not stored: AddEdge keeps the lighter weight.
type Graph struct {
	n   int
	m   int // undirected edges, kept by AddEdge, RemoveEdge and Clone
	adj [][]halfEdge
}

type halfEdge struct {
	to int
	w  float64
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]halfEdge, n)}
}

// FromEdges builds a graph on n vertices from an edge list.
func FromEdges(n int, edges []Edge) *Graph {
	g := New(n)
	for _, e := range edges {
		g.AddEdge(e.U, e.V, e.W)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge (u,v) with weight w. If the edge is
// already present the lighter weight wins. Self-loops and negative or NaN
// weights are rejected.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u == v {
		panic("graph: self-loop")
	}
	if !(w >= 0) {
		panic(fmt.Sprintf("graph: weight %v on (%d,%d) is negative or NaN", w, u, v))
	}
	g.checkVertex(u)
	g.checkVertex(v)
	if old, ok := g.lookup(u, v); ok {
		if w < old {
			g.adj[u][g.findHalf(u, v)].w = w
			g.adj[v][g.findHalf(v, u)].w = w
		}
		return
	}
	g.adj[u] = append(g.adj[u], halfEdge{v, w})
	g.adj[v] = append(g.adj[v], halfEdge{u, w})
	g.m++
}

// RemoveEdge deletes the undirected edge (u,v) if present and reports
// whether it existed.
func (g *Graph) RemoveEdge(u, v int) bool {
	i := g.findHalf(u, v)
	if i < 0 {
		return false
	}
	g.adj[u] = deleteAt(g.adj[u], i)
	g.adj[v] = deleteAt(g.adj[v], g.findHalf(v, u))
	g.m--
	return true
}

// HasEdge reports whether the undirected edge (u,v) is present.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.lookup(u, v)
	return ok
}

// EdgeWeight returns the weight of edge (u,v), or +Inf if absent.
func (g *Graph) EdgeWeight(u, v int) float64 {
	if w, ok := g.lookup(u, v); ok {
		return w
	}
	return math.Inf(1)
}

// Edges returns every undirected edge once, with U < V.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.M())
	for u := 0; u < g.n; u++ {
		for _, h := range g.adj[u] {
			if u < h.to {
				out = append(out, Edge{u, h.to, h.w})
			}
		}
	}
	return out
}

// Neighbors calls fn(v, w) for every neighbor v of u with edge weight w.
func (g *Graph) Neighbors(u int, fn func(v int, w float64)) {
	g.checkVertex(u)
	for _, h := range g.adj[u] {
		fn(h.to, h.w)
	}
}

// Degree returns the number of edges incident to u.
func (g *Graph) Degree(u int) int {
	g.checkVertex(u)
	return len(g.adj[u])
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.m = g.m
	for u := range g.adj {
		c.adj[u] = append([]halfEdge(nil), g.adj[u]...)
	}
	return c
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	total := 0.0
	for u := 0; u < g.n; u++ {
		for _, h := range g.adj[u] {
			if u < h.to {
				total += h.w
			}
		}
	}
	return total
}

// lookup returns the weight of edge (u,v) and whether it is present. It
// scans the shorter of the two adjacency lists (both halves carry the
// same weight), so a lookup next to a hub costs the other endpoint's
// degree, not the hub's. Out-of-range pairs are absent.
func (g *Graph) lookup(u, v int) (float64, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, false
	}
	if len(g.adj[v]) < len(g.adj[u]) {
		u, v = v, u
	}
	for _, h := range g.adj[u] {
		if h.to == v {
			return h.w, true
		}
	}
	return 0, false
}

// findHalf returns the index of v in u's adjacency list, or -1.
func (g *Graph) findHalf(u, v int) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return -1
	}
	for i, h := range g.adj[u] {
		if h.to == v {
			return i
		}
	}
	return -1
}

func (g *Graph) checkVertex(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", u, g.n))
	}
}

func deleteAt(s []halfEdge, i int) []halfEdge {
	s[i] = s[len(s)-1]
	return s[:len(s)-1]
}
