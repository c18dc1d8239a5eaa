package graph

import "math"

// MST returns the edges of a minimum spanning tree (Prim's algorithm) and
// its total weight. If the graph is disconnected it returns a minimum
// spanning forest and the forest's weight; callers needing a spanning tree
// should check Connected first.
func (g *Graph) MST() ([]Edge, float64) {
	inTree := make([]bool, g.n)
	best := make([]float64, g.n)
	from := make([]int, g.n)
	for i := range best {
		best[i] = math.Inf(1)
		from[i] = -1
	}
	var edges []Edge
	total := 0.0
	var h heap // empty again after each tree
	for root := 0; root < g.n; root++ {
		if inTree[root] {
			continue
		}
		best[root] = 0
		h.push(root, 0)
		for h.len() > 0 {
			u, p := h.pop()
			if inTree[u] || p > best[u] {
				continue
			}
			inTree[u] = true
			if from[u] >= 0 {
				edges = append(edges, Edge{from[u], u, best[u]})
				total += best[u]
			}
			for _, e := range g.adj[u] {
				if !inTree[e.to] && e.w < best[e.to] {
					best[e.to] = e.w
					from[e.to] = u
					h.push(e.to, e.w)
				}
			}
		}
	}
	return edges, total
}
