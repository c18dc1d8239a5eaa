// Package opt computes and bounds social optimum networks: the subgraphs
// of the host minimizing α·Σ_{e∈E} w(e) + Σ_{u,v} d(u,v) over ordered
// pairs (the paper's OPT, the denominator of every Price-of-Anarchy
// ratio).
//
// Finding OPT is a variant of the classical Network Design Problem and is
// strongly suspected NP-hard for every model variant except two that the
// paper solves outright: the 1-2–GNCG for α ≤ 1 (Algorithm 1: drop each
// 2-edge closed by two 1-edges) and the T–GNCG (the defining tree is
// optimal, Cor. 3). Accordingly this package provides: those two exact
// polynomial cases, an exhaustive edge-subset search for small n, a
// local-search heuristic for upper bounds at larger n, and the lower
// bound α·MST(H) + Σ_{u,v} d_H(u,v) used to bracket ratios.
package opt

import (
	"fmt"
	"math"

	"gncg/internal/game"
	"gncg/internal/graph"
	"gncg/internal/metric"
	"gncg/internal/parallel"
)

// Result is a social-optimum candidate: an edge set and its social cost.
type Result struct {
	Edges []graph.Edge
	Cost  float64
}

// Algorithm1 implements the paper's Algorithm 1 for 1-2 hosts: start from
// the complete graph and remove every 2-edge that participates in a
// 1-1-2 triangle. For α ≤ 1 the result is a social optimum (Thm 6). The
// host must have all weights in {1,2}; otherwise an error is returned.
func Algorithm1(h *game.Host) (Result, error) {
	n := h.N()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			w := h.Weight(u, v)
			if w != 1 && w != 2 {
				return Result{}, fmt.Errorf("opt: Algorithm1 requires a 1-2 host, found w(%d,%d)=%v", u, v, w)
			}
		}
	}
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			w := h.Weight(u, v)
			if w == 2 {
				closed := false
				for x := 0; x < n && !closed; x++ {
					if x != u && x != v && h.Weight(u, x) == 1 && h.Weight(x, v) == 1 {
						closed = true
					}
				}
				if closed {
					continue
				}
			}
			edges = append(edges, graph.Edge{U: u, V: v, W: w})
		}
	}
	return Result{Edges: edges, Cost: math.NaN()}, nil
}

// TreeOPT returns the defining tree of a tree metric: by Cor. 3 it is
// both the social optimum and a Nash equilibrium of the T–GNCG.
func TreeOPT(tm *metric.TreeMetric) Result {
	return Result{Edges: tm.Edges(), Cost: math.NaN()}
}

// Evaluate fills in the social cost of an edge-set result for game g.
func Evaluate(g *game.Game, r Result) Result {
	r.Cost = game.SocialCostOfEdgeSet(g, r.Edges)
	return r
}

// maxExactN bounds the exhaustive optimum search: n=7 means 2^21 edge
// subsets, which parallel enumeration handles in seconds.
const maxExactN = 7

// ExactSmall computes the social optimum by exhaustive parallel
// enumeration of edge subsets. It refuses hosts beyond maxExactN vertices.
func ExactSmall(g *game.Game) (Result, error) {
	n := g.N()
	if n > maxExactN {
		return Result{}, fmt.Errorf("opt: exact search supports n <= %d, got %d", maxExactN, n)
	}
	type pair struct{ u, v int }
	var pairs []pair
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, pair{u, v})
		}
	}
	m := len(pairs)
	rules := g.Rules()
	t := demand(g)
	// Split the 2^m masks across workers by the top bits.
	const splitBits = 6
	split := splitBits
	if m < split {
		split = m
	}
	blocks := 1 << split
	rest := m - split
	results := parallel.Map(blocks, func(hi int) Result {
		best := Result{Cost: math.Inf(1)}
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
		}
		for lo := 0; lo < 1<<rest; lo++ {
			mask := hi<<rest | lo
			// Build adjacency matrix and edge cost.
			edgeCost := 0.0
			for i := range w {
				for j := range w[i] {
					if i == j {
						w[i][j] = 0
					} else {
						w[i][j] = math.Inf(1)
					}
				}
			}
			for b := 0; b < m; b++ {
				if mask&(1<<b) != 0 {
					p := pairs[b]
					wt := g.Host.Weight(p.u, p.v)
					w[p.u][p.v] = wt
					w[p.v][p.u] = wt
					edgeCost += rules.AcquirePrice(g.Alpha, wt)
				}
			}
			if edgeCost >= best.Cost {
				continue
			}
			total := edgeCost + floydDistCost(w, t)
			if total < best.Cost {
				var edges []graph.Edge
				for b := 0; b < m; b++ {
					if mask&(1<<b) != 0 {
						p := pairs[b]
						edges = append(edges, graph.Edge{U: p.u, V: p.v, W: g.Host.Weight(p.u, p.v)})
					}
				}
				best = Result{Edges: edges, Cost: total}
			}
		}
		return best
	})
	best := Result{Cost: math.Inf(1)}
	for _, r := range results {
		if r.Cost < best.Cost {
			best = r
		}
	}
	return best, nil
}

// demand reads g's traffic into a local n×n matrix, nil under the
// paper's uniform model: the evaluators read it once per call, so their
// inner loops make no per-pair Traffic call.
func demand(g *game.Game) [][]float64 {
	if !g.HasTraffic() {
		return nil
	}
	n := g.N()
	t := make([][]float64, n)
	for u := range t {
		t[u] = make([]float64, n)
		for v := range t[u] {
			t[u][v] = g.Traffic(u, v)
		}
	}
	return t
}

// floydDistCost runs Floyd–Warshall in place on w and returns the
// distance cost Σ_{u≠v} t(u,v)·d(u,v) over ordered pairs (+Inf if a
// pair with demand is disconnected).
func floydDistCost(w, t [][]float64) float64 {
	n := len(w)
	for k := 0; k < n; k++ {
		wk := w[k]
		for i := 0; i < n; i++ {
			wik := w[i][k]
			if math.IsInf(wik, 1) {
				continue
			}
			wi := w[i]
			for j := 0; j < n; j++ {
				if nd := wik + wk[j]; nd < wi[j] {
					wi[j] = nd
				}
			}
		}
	}
	total, unreached := graph.SumDistances(0, w, t)
	if unreached > 0 {
		return math.Inf(1)
	}
	return total
}

// hostGraph materializes the host's buyable (finite) pairs as a graph:
// the MST/lower-bound substrate. Iteration goes through the host's
// finite-pair capability, so 1-∞ hosts never touch +Inf entries.
func hostGraph(g *game.Game) *graph.Graph {
	full := graph.New(g.N())
	g.Host.ForEachFinitePair(func(u, v int, w float64) {
		full.AddEdge(u, v, w)
	})
	return full
}

// MSTCandidate returns the minimum spanning tree of the host as an OPT
// candidate (the optimum for α → ∞).
func MSTCandidate(g *game.Game) Result {
	edges, _ := hostGraph(g).MST()
	return Evaluate(g, Result{Edges: edges})
}

// CompleteCandidate returns the full host graph as an OPT candidate (the
// optimum for α → 0 on metric hosts).
func CompleteCandidate(g *game.Game) Result {
	var edges []graph.Edge
	g.Host.ForEachFinitePair(func(u, v int, w float64) {
		edges = append(edges, graph.Edge{U: u, V: v, W: w})
	})
	return Evaluate(g, Result{Edges: edges})
}

// lexSocial evaluates an edge set under demand t as (number of
// disconnected ordered pairs with demand, finite social cost part). The
// lexicographic order lets local search escape disconnected candidates,
// where plain +Inf comparison would see no improvement from a single
// edge addition.
func lexSocial(g *game.Game, t [][]float64, edges []graph.Edge) (infPairs int, finite float64) {
	net := graph.New(g.N())
	r := g.Rules()
	for _, e := range edges {
		w := g.Host.Weight(e.U, e.V)
		if !net.HasEdge(e.U, e.V) {
			net.AddEdge(e.U, e.V, w)
			finite += r.AcquirePrice(g.Alpha, w)
		}
	}
	finite, infPairs = graph.SumDistances(finite, net.APSP(), t)
	return infPairs, finite
}

func lexLess(ai int, af float64, bi int, bf float64, eps float64) bool {
	if ai != bi {
		return ai < bi
	}
	return af < bf-eps
}

// LocalSearch improves an edge-set candidate by single-edge additions and
// removals until no move lowers the social cost by more than eps, or
// maxIters moves were applied. Disconnected candidates are compared
// lexicographically by (disconnected pairs, finite cost), so the search
// escapes them whenever possible. Returns the improved candidate.
// Unbuyable (+Inf) start edges are ignored. The search is deterministic:
// candidate pairs are enumerated in ascending order and every cost sum
// folds in that fixed order, so repeated runs are bit-identical (a map
// iteration here once caused last-ulp drift in the sweep results).
func LocalSearch(g *game.Game, start []graph.Edge, eps float64, maxIters int) Result {
	present := make(map[[2]int]bool)
	for _, e := range start {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		present[[2]int{u, v}] = true
	}
	// Buyable pairs enumerated once through the host's finite-pair
	// capability: the candidate moves of every iteration, and the fixed
	// fold order of every evaluation.
	var candidates [][2]int
	g.Host.ForEachFinitePair(func(u, v int, w float64) {
		candidates = append(candidates, [2]int{u, v})
	})
	edgesOf := func() []graph.Edge {
		var out []graph.Edge
		for _, k := range candidates {
			if present[k] {
				out = append(out, graph.Edge{U: k[0], V: k[1], W: g.Host.Weight(k[0], k[1])})
			}
		}
		return out
	}
	t := demand(g)
	curInf, curCost := lexSocial(g, t, edgesOf())
	for iter := 0; iter < maxIters; iter++ {
		bestInf, bestCost := curInf, curCost
		var bestKey [2]int
		var bestAdd, haveMove bool
		for _, key := range candidates {
			toggle := func() {
				if present[key] {
					delete(present, key)
				} else {
					present[key] = true
				}
			}
			toggle()
			ci, cf := lexSocial(g, t, edgesOf())
			toggle()
			if lexLess(ci, cf, bestInf, bestCost, eps) {
				bestInf, bestCost = ci, cf
				bestKey = key
				bestAdd = !present[key]
				haveMove = true
			}
		}
		if !haveMove {
			break
		}
		if bestAdd {
			present[bestKey] = true
		} else {
			delete(present, bestKey)
		}
		curInf, curCost = bestInf, bestCost
	}
	cost := curCost
	if curInf > 0 {
		cost = math.Inf(1)
	}
	return Result{Edges: edgesOf(), Cost: cost}
}

// LowerBound returns a certified lower bound on the social optimum cost:
// when the pairs with demand connect every agent, OPT is a connected
// spanning subgraph, whose edge weight is at least MST(H); and every
// network distance is at least the host's shortest-path distance, so
// cost(OPT) >= α·MST + Σ_{ordered pairs} t(u,v)·d_H(u,v) under the
// paper's model with the game's demand t. The edge-side term goes
// through the cost model's SpanningEdgeCostLB hook, so the bound stays
// certified per model: α·MST for sum, α·(n−1) for unit (≥ n−1 edges at
// flat price), 0 for budget (edges are free there, leaving the distance
// side as the whole bound). A demand matrix whose support leaves some
// agent apart lets OPT leave it unattached, and the bound is the
// distance side alone.
//
// Metric hosts — including every implicit geometric/tree/1-2 space,
// answered in O(1) via the Classifier capability — compute matrix-free:
// d_H = w pointwise, so the distance term is the Game's TrafficFloorTotal
// (O(n) once scans have cached each agent's floor row, O(n²) weight
// evaluations otherwise), and the MST weight comes from the space's
// metric.MSTWeighter capability when it has one (tree metrics: the
// defining tree's edge sum) and from an O(n²) Prim scan over implicit
// weights otherwise. O(n) memory: the path the equilibrium ladders' PoA
// columns take at n = 10⁵, where materializing the complete host graph
// (the general fallback below) would cost gigabytes.
func LowerBound(g *game.Game) float64 {
	spans := demandSpans(g)
	if g.Host.IsMetric(1e-9) {
		dist := g.TrafficFloorTotal()
		if !spans {
			return dist
		}
		return g.Rules().SpanningEdgeCostLB(g.Alpha, metricMSTWeight(g.Host), g.N()) + dist
	}
	full := hostGraph(g)
	dist, unreached := graph.SumDistances(0, full.APSP(), demand(g))
	if unreached > 0 {
		dist = math.Inf(1)
	}
	if !spans {
		return dist
	}
	_, mstW := full.MST()
	return g.Rules().SpanningEdgeCostLB(g.Alpha, mstW, g.N()) + dist
}

// demandSpans reports whether the pairs with positive demand connect
// every agent: always under the paper's uniform demand.
func demandSpans(g *game.Game) bool {
	if !g.HasTraffic() {
		return true
	}
	n := g.N()
	support := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if g.Traffic(u, v) > 0 || g.Traffic(v, u) > 0 {
				support.AddEdge(u, v, 1)
			}
		}
	}
	return support.Connected()
}

// metricMSTWeight returns the MST weight of the complete host: the
// space's closed form when it has the MSTWeighter capability, otherwise
// Prim's algorithm with an O(n) frontier array: O(n²) weight
// evaluations, no materialized edges. Deterministic: the minimum-key
// vertex is chosen by lowest index on ties and the weight folds in
// insertion order.
func metricMSTWeight(h *game.Host) float64 {
	if mw, ok := h.Space().(metric.MSTWeighter); ok {
		return mw.MSTWeight()
	}
	n := h.N()
	if n <= 1 {
		return 0
	}
	inTree := make([]bool, n)
	key := make([]float64, n)
	for v := 1; v < n; v++ {
		key[v] = h.Weight(0, v)
	}
	inTree[0] = true
	total := 0.0
	for round := 1; round < n; round++ {
		best := -1
		for v := 0; v < n; v++ {
			if !inTree[v] && (best < 0 || key[v] < key[best]) {
				best = v
			}
		}
		inTree[best] = true
		total += key[best]
		for v := 0; v < n; v++ {
			if !inTree[v] {
				if w := h.Weight(best, v); w < key[v] {
					key[v] = w
				}
			}
		}
	}
	return total
}

// BestCandidate evaluates several heuristics (MST, complete graph, local
// search from both) and returns the cheapest: a practical OPT upper bound
// for instances beyond exact reach.
func BestCandidate(g *game.Game, maxIters int) Result {
	mst := MSTCandidate(g)
	complete := CompleteCandidate(g)
	best := mst
	if complete.Cost < best.Cost {
		best = complete
	}
	ls := LocalSearch(g, best.Edges, g.Eps, maxIters)
	if ls.Cost < best.Cost {
		best = ls
	}
	return best
}
