package graph

import "math"

// Dynamic single-source shortest-path repair, after Ramalingam & Reps
// (1996): when one edge changes, a previously computed Dijkstra row can be
// repaired by touching only the vertices whose distance actually changed,
// instead of being recomputed from scratch. This is the primitive behind
// the game engine's incremental distance cache — a single buy/delete/swap
// move perturbs one or two edges of the created network, so the per-source
// rows survive speculation (CostAfter) and dynamics at a fraction of the
// full-Dijkstra price.
//
// The repair keeps the row bit-identical to what a fresh Dijkstra on the
// mutated graph would produce: repaired values are settled by the same
// label-correcting core as fresh rows (settle.go), whose fixpoint is the
// minimum over exactly the same left-to-right float path sums whatever
// the order of relaxation, and untouched values are proven unchanged (an
// edge insertion only relaxes, and a deletion can only affect vertices
// whose every tight predecessor chain crossed the deleted edge).
//
// The deletion side is output-sensitive but not worst-case better than
// Dijkstra: on graphs with many equal-length ties the potentially-affected
// set can balloon, so RepairRowBatch takes a budget and reports failure
// once the set exceeds it, leaving the row untouched for the caller to
// recompute (or discard). DefaultRepairBudget is the threshold used by the
// game's distance cache.
//
// The deletion side's bookkeeping (the affected set and the masked
// insertions) is epoch-stamped dense memory in the caller's Scratch, so
// its cost is O(affected) array writes with nothing allocated once warm,
// and a refusal wastes no more than the closure walk it cut short.

// DefaultRepairBudget returns the affected-set size beyond which deletion
// repair falls back to a full recomputation, for an n-vertex graph. Small
// affected sets are the common case for single-edge game moves; past
// roughly n/4 the repair's bookkeeping stops paying for itself.
func DefaultRepairBudget(n int) int { return 16 + n/4 }

// repairAddBatch repairs dist (valid for g before the added edges were
// inserted) across the simultaneous insertion of all of them: every
// improvement any new edge enables opens one shared wavefront, which
// settle relaxes to its fixpoint, the row a fresh run computes.
func (g *Graph) repairAddBatch(sc *Scratch, dist []float64, added []Edge, mark func(x int), factor int) {
	sc.beginSettle(g.n)
	for _, e := range added {
		if math.IsInf(e.W, 1) {
			continue
		}
		if nd := addF(dist[e.U], e.W); nd < dist[e.V] {
			dist[e.V] = nd
			sc.open(e.V)
			if mark != nil {
				mark(e.V)
			}
		}
		if nd := addF(dist[e.V], e.W); nd < dist[e.U] {
			dist[e.U] = nd
			sc.open(e.U)
			if mark != nil {
				mark(e.U)
			}
		}
	}
	g.settle(sc, dist, -1, false, mark, factor)
}

// addF adds a finite weight to a possibly-infinite distance without
// producing NaN (Inf + w = Inf, which never relaxes anything).
func addF(d, w float64) float64 {
	if math.IsInf(d, 1) {
		return d
	}
	return d + w
}

// RepairRowBatch repairs the shortest-path row dist from src across an
// arbitrary net edge difference applied to the graph: dist must be valid
// for g with the `added` edges absent and the `removed` edges present
// (weights as recorded); g must already be in its final state. The same
// (u,v) pair must not appear in both lists — callers collapse histories
// to a net diff first, which is what makes batch replay of a delta log
// sound: repairing one logged delta at a time against the final adjacency
// would violate each repair's precondition, while the net diff is a
// single well-defined edit of the row's own network.
//
// The repair runs in two phases, each of which preserves bit-equality
// with a fresh Dijkstra: first the removals are repaired against the
// pre-addition graph (g with the added edges masked out), producing the
// row of the intermediate network; then all additions seed one shared
// insertion wavefront over the full graph. mark fires (possibly
// repeatedly) for every entry that may have changed. If the removal
// phase's affected set exceeds budget, dist is left untouched and ok is
// false: the caller should recompute the row from scratch.
//
// sc is the repair's working memory; a warm call allocates nothing.
func (g *Graph) RepairRowBatch(sc *Scratch, dist []float64, src int, removed, added []Edge, budget int, mark func(x int)) (ok bool) {
	return g.repairRowBatch(sc, dist, src, removed, added, budget, mark, settleFactor)
}

// repairRowBatch is RepairRowBatch with settle's cap factor passed in.
func (g *Graph) repairRowBatch(sc *Scratch, dist []float64, src int, removed, added []Edge, budget int, mark func(x int), factor int) bool {
	if len(removed) > 0 && !g.repairRemoveBatch(sc, dist, src, removed, added, budget, mark, factor) {
		return false
	}
	if len(added) > 0 {
		g.repairAddBatch(sc, dist, added, mark, factor)
	}
	return true
}

func pairKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// begin starts a repair on an n-vertex graph: it grows the stamps to n
// if they are shorter, advances the epoch, so every stamp from an
// earlier repair reads as unset, and masks the added pairs.
func (sc *Scratch) begin(n int, added []Edge) {
	if len(sc.aff) < n {
		sc.aff, sc.skipEnd = make([]uint32, n), make([]uint32, n)
	}
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.aff)
		clear(sc.skipEnd)
		sc.epoch = 1
	}
	sc.affected = sc.affected[:0]
	sc.skip = sc.skip[:0]
	for _, e := range added {
		sc.skip = append(sc.skip, pairKey(e.U, e.V))
		sc.skipEnd[e.U], sc.skipEnd[e.V] = sc.epoch, sc.epoch
	}
}

// affect adds x to the affected set.
func (sc *Scratch) affect(x int) {
	sc.aff[x] = sc.epoch
	sc.affected = append(sc.affected, int32(x))
}

func (sc *Scratch) isAffected(x int) bool { return sc.aff[x] == sc.epoch }

// masked reports whether (x,y) is an added pair, which the removal phase
// must not see. The pair list is searched only when both endpoints are
// stamped, which on most edges they are not.
func (sc *Scratch) masked(x, y int) bool {
	if sc.skipEnd[x] != sc.epoch || sc.skipEnd[y] != sc.epoch {
		return false
	}
	k := pairKey(x, y)
	for _, p := range sc.skip {
		if p == k {
			return true
		}
	}
	return false
}

// repairRemoveBatch repairs dist across the simultaneous deletion of the
// removed edges. The graph it repairs against is g minus the added pairs
// (edges inserted after the row's network state, masked out so the
// removal phase sees exactly the row's own graph minus the removals); g
// itself must no longer contain any removed edge. sc holds the
// bookkeeping: the affected set and the masked pairs are epoch stamps
// in sc's dense arrays, so the repair costs O(affected) plus the edges
// it scans, with nothing allocated once sc is warm; factor is settle's
// cap factor.
//
// Only vertices whose every shortest path crossed a removed edge can
// change; the repair finds that set by walking tight edges
// (dist[y] == dist[x] + w(x,y)) from every unsupported far endpoint, then
// re-settles exactly those vertices from their unaffected boundary.
// If the potentially-affected set exceeds budget, the row is left exactly
// as it was and ok is false.
func (g *Graph) repairRemoveBatch(sc *Scratch, dist []float64, src int, removed, added []Edge, budget int, mark func(x int), factor int) (ok bool) {
	sc.begin(g.n, added)
	// Roots: endpoints whose distance was supported through a deleted
	// edge and have no alternative tight support left. If every endpoint
	// keeps a support, no distance in the row can change. The source is
	// its own support and is never a root. Roots open the affected list.
	for _, re := range removed {
		if math.IsInf(re.W, 1) {
			continue // an unbuyable edge never carried a shortest path
		}
		for _, e := range [2][2]int{{re.U, re.V}, {re.V, re.U}} {
			far, near := e[0], e[1]
			if far == src || sc.isAffected(far) || dist[far] != addF(dist[near], re.W) || math.IsInf(dist[far], 1) {
				continue
			}
			if !g.hasStrictSupport(sc, dist, far) {
				sc.affect(far)
			}
		}
	}
	if len(sc.affected) == 0 {
		return true
	}

	// Phase 1: the potentially-affected set — everything reachable from a
	// root via tight edges in the remaining graph. This overestimates the
	// truly-affected set (a vertex with an untouched alternative support
	// is collected anyway) but never misses a vertex whose distance must
	// change, and phase 2 recomputes members from scratch either way. The
	// affected list is its own work list; the closure, and so whether it
	// exceeds budget, does not depend on the visit order.
	for i := 0; i < len(sc.affected); i++ {
		x := int(sc.affected[i])
		dx := dist[x]
		for _, e := range g.adj[x] {
			if math.IsInf(e.w, 1) || sc.isAffected(e.to) || e.to == src || sc.masked(x, e.to) {
				continue
			}
			if dist[e.to] == dx+e.w {
				if len(sc.affected) >= budget {
					return false
				}
				sc.affect(e.to)
			}
		}
	}

	// Phase 2: recompute the affected vertices. Seed each from its best
	// unaffected neighbor (whose distance is proven unchanged) and open
	// it, then settle the wavefront with the added pairs still masked;
	// relaxations into unaffected vertices can never win (their value is
	// already the minimum) so no guard is needed beyond the usual strict
	// comparison.
	if mark != nil {
		for _, x := range sc.affected {
			mark(int(x))
		}
	}
	for _, x := range sc.affected {
		dist[x] = math.Inf(1)
	}
	sc.beginSettle(g.n)
	for _, x32 := range sc.affected {
		x := int(x32)
		best := math.Inf(1)
		for _, e := range g.adj[x] {
			if math.IsInf(e.w, 1) || sc.isAffected(e.to) || sc.masked(x, e.to) {
				continue
			}
			if nd := addF(dist[e.to], e.w); nd < best {
				best = nd
			}
		}
		if !math.IsInf(best, 1) {
			dist[x] = best
			sc.open(x)
		}
	}
	g.settle(sc, dist, -1, true, nil, factor)
	return true
}

// hasStrictSupport reports whether some remaining edge still certifies
// dist[x] from strictly below: a neighbor z with dist[z] < dist[x] and
// dist[z] + w(z,x) == dist[x]. Equal-distance supports (zero-weight ties)
// are deliberately not counted — two zero-weight cycle mates can "support"
// each other while both are grounded only through the deleted edge, so an
// equal-distance support proves nothing. Treating such endpoints as roots
// is conservative: phase 2 recomputes them and lands on the same values
// whenever the tie was genuine. Pairs masked in sc (inserted after the
// row's network state) are not remaining edges and never count.
func (g *Graph) hasStrictSupport(sc *Scratch, dist []float64, x int) bool {
	dx := dist[x]
	for _, e := range g.adj[x] {
		if math.IsInf(e.w, 1) || dist[e.to] >= dx || sc.masked(x, e.to) {
			continue
		}
		if dist[e.to]+e.w == dx {
			return true
		}
	}
	return false
}
