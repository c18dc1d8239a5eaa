package graph

import (
	"math"
	"math/rand"
	"testing"
)

// refRow is the heap loop, kept here as an independent reference for
// every row the package computes: distances from src with avoid removed
// (avoid < 0 removes none), by binary-heap Dijkstra alone.
func refRow(g *Graph, src, avoid int) []float64 {
	dist := make([]float64, g.n)
	resetRow(dist, src)
	var h heap
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
	return dist
}

// forestWeights is the fuzz weight palette: zeros of both signs,
// ulp-level ties (0.1 + 0.2 against 0.3, 1 ± 1 ulp), +Inf edges, and
// near-MaxFloat64 weights whose sums overflow (two of the ulp above
// MaxFloat64/2 already do).
var forestWeights = [16]float64{
	1, 0, math.Copysign(0, -1), 0.1, 0.2, 0.3,
	math.Nextafter(1, 2), math.Nextafter(1, 0),
	math.Inf(1), math.MaxFloat64, math.MaxFloat64 / 2,
	math.Nextafter(math.MaxFloat64/2, math.Inf(1)),
	1e308, 3, 0.7, 1e-300,
}

// forestFromBytes decodes a fuzz input into a graph and an avoided vertex
// (-1 for none). Vertex v > 0 either starts a new component or hangs off
// an earlier vertex, so the base graph is a forest; up to three extra
// edges may then close cycles anywhere. An exhausted input reads as
// zeros, which extends the graph as a star of unit weights.
func forestFromBytes(data []byte) (*Graph, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%48
	g := New(n)
	for v := 1; v < n; v++ {
		b := next()
		w := forestWeights[next()%16]
		if b%4 != 3 {
			g.AddEdge(v, (b/4)%v, w)
		}
	}
	for extra := next() % 4; extra > 0; extra-- {
		u, v, w := next()%n, next()%n, forestWeights[next()%16]
		if u != v {
			g.AddEdge(u, v, w)
		}
	}
	avoid := next() % (n + 1)
	if avoid == n {
		avoid = -1
	}
	return g, avoid
}

// walkShouldServe reports whether walkForest must succeed from src: the
// component of src, in the graph of finite edges with avoid removed, is a
// tree, and want (the reference row) reaches all of it, so no path sum
// overflows.
func walkShouldServe(g *Graph, src, avoid int, want []float64) bool {
	seen := make([]bool, g.n)
	seen[src] = true
	stack := []int{src}
	vertices, halfEdges := 0, 0
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		vertices++
		if math.IsInf(want[u], 1) {
			return false
		}
		for _, e := range g.adj[u] {
			if e.to == avoid || math.IsInf(e.w, 1) {
				continue
			}
			halfEdges++
			if !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	return halfEdges/2 == vertices-1
}

func rowsIdentical(t *testing.T, got, want []float64, ctx string) {
	t.Helper()
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s: dist[%d] = %v (%#x), heap loop gives %v (%#x)",
				ctx, v, got[v], math.Float64bits(got[v]), want[v], math.Float64bits(want[v]))
		}
	}
}

// FuzzForestRow pins the shortest-path core to the heap loop: from every
// source, Dijkstra, DijkstraAvoiding and DijkstraInto (into a row still
// holding the previous source's distances) return the reference heap row
// bit for bit, and so does a settle without the walk in front at cap
// factor 0, which takes the heap phase at its first scan; every row
// passes certifyRow. walkForest serves exactly the sources whose
// component is a tree without an overflowing path sum, with the
// reference row.
func FuzzForestRow(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, avoid := forestFromBytes(data)
		into := make([]float64, g.n)
		sc := new(Scratch)
		for src := 0; src < g.n; src++ {
			avoids := []int{-1}
			if avoid >= 0 && avoid != src {
				avoids = append(avoids, avoid)
			}
			for _, a := range avoids {
				want := refRow(g, src, a)
				if a < 0 {
					got := g.Dijkstra(src)
					rowsIdentical(t, got, want, "Dijkstra")
					certifyRow(t, g, src, a, got, "Dijkstra")
					g.DijkstraInto(sc, into, src)
					rowsIdentical(t, into, want, "DijkstraInto")
				} else {
					got := g.DijkstraAvoiding(src, a)
					rowsIdentical(t, got, want, "DijkstraAvoiding")
					certifyRow(t, g, src, a, got, "DijkstraAvoiding")
				}
				heapRow, _, _ := settledRow(g, sc, src, a, 0)
				rowsIdentical(t, heapRow, want, "settle at cap factor 0")
				certifyRow(t, g, src, a, heapRow, "settle at cap factor 0")
				dist := make([]float64, g.n)
				resetRow(dist, src)
				_, ok := g.walkForest(dist, src, a, nil)
				if should := walkShouldServe(g, src, a, want); ok != should {
					t.Fatalf("walkForest(src %d, avoid %d) ok = %v, want %v", src, a, ok, should)
				}
				if ok {
					rowsIdentical(t, dist, want, "walkForest")
				}
			}
		}
	})
}

// TestEdgeCountTracksMutations: M(), now a stored count, equals a recount
// of the adjacency lists after random additions (re-adding present pairs
// with lighter and heavier weights), removals of present and absent
// pairs, and clones; IsTree and Edges agree with the recount.
func TestEdgeCountTracksMutations(t *testing.T) {
	recount := func(g *Graph) int {
		m := 0
		for _, a := range g.adj {
			m += len(a)
		}
		return m / 2
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(12)
		g := New(n)
		for op := 0; op < 200; op++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			switch rng.Intn(4) {
			case 0, 1:
				g.AddEdge(u, v, rng.Float64())
			case 2:
				had := g.HasEdge(u, v)
				if g.RemoveEdge(u, v) != had {
					t.Fatalf("RemoveEdge(%d,%d) disagrees with HasEdge", u, v)
				}
			case 3:
				if g.HasEdge(u, v) {
					w := g.EdgeWeight(u, v)
					g.AddEdge(u, v, w/2)
					g.AddEdge(u, v, w*2)
					if got := g.EdgeWeight(u, v); got != w/2 {
						t.Fatalf("re-add kept weight %v, want the lighter %v", got, w/2)
					}
				}
			}
			if g.M() != recount(g) {
				t.Fatalf("trial %d op %d: M() = %d, recount %d", trial, op, g.M(), recount(g))
			}
			if len(g.Edges()) != g.M() {
				t.Fatalf("len(Edges()) = %d, M() = %d", len(g.Edges()), g.M())
			}
			if g.IsTree() != (g.Connected() && recount(g) == n-1) {
				t.Fatalf("IsTree disagrees with the recount")
			}
			if op%50 == 0 {
				c := g.Clone()
				if c.M() != g.M() || c.M() != recount(c) {
					t.Fatalf("Clone M() = %d, original %d, recount %d", c.M(), g.M(), recount(c))
				}
				g = c
			}
		}
	}
}

// TestForestAPSPMatchesHeap: APSP and APSPAvoiding on a random forest
// without +Inf edges or overflowing sums, whose rows all come from walks
// run concurrently on pooled scratch, equal the heap loop row by row,
// bit for bit.
func TestForestAPSPMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 300
	g := New(n)
	for v := 1; v < n; v++ {
		if rng.Intn(20) > 0 {
			g.AddEdge(v, rng.Intn(v), forestWeights[rng.Intn(8)])
		}
	}
	for src, row := range g.APSP() {
		rowsIdentical(t, row, refRow(g, src, -1), "APSP")
	}
	const avoid = 0
	for src, row := range g.APSPAvoiding(avoid) {
		if src != avoid {
			rowsIdentical(t, row, refRow(g, src, avoid), "APSPAvoiding")
		}
	}
}
