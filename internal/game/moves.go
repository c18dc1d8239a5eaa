package game

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"gncg/internal/bitset"
)

// MoveKind enumerates the single-edge moves of the paper's greedy
// equilibrium notion: buying one edge, deleting one owned edge, or
// swapping one owned edge for another.
type MoveKind int

const (
	// Buy adds V to the agent's strategy.
	Buy MoveKind = iota
	// Delete removes V from the agent's strategy.
	Delete
	// Swap removes V and adds X.
	Swap
)

// Move is a single-edge strategy change by one agent.
type Move struct {
	Agent int
	Kind  MoveKind
	V     int // edge endpoint bought (Buy), deleted (Delete), or deleted side of a swap
	X     int // bought side of a swap
}

// String renders the move in the paper's vocabulary.
func (m Move) String() string {
	switch m.Kind {
	case Buy:
		return fmt.Sprintf("agent %d buys (%d,%d)", m.Agent, m.Agent, m.V)
	case Delete:
		return fmt.Sprintf("agent %d deletes (%d,%d)", m.Agent, m.Agent, m.V)
	case Swap:
		return fmt.Sprintf("agent %d swaps (%d,%d) for (%d,%d)", m.Agent, m.Agent, m.V, m.Agent, m.X)
	default:
		return fmt.Sprintf("invalid move kind %d", int(m.Kind))
	}
}

// NewStrategy returns the strategy that applying m to cur produces,
// without mutating cur. It is the single definition of how a move edits a
// strategy — State.Apply and the dynamics movers both go through it, so
// the two paths cannot drift. It panics on malformed moves: an invalid
// kind, a self-targeted endpoint, or a Delete/Swap whose deleted endpoint
// V is not owned (buying an already-owned node remains a no-op, and is
// allowed).
func (m Move) NewStrategy(cur bitset.Set) bitset.Set {
	strat := cur.Clone()
	switch m.Kind {
	case Buy:
		m.checkEndpoint(m.V)
		strat.Add(m.V)
	case Delete:
		m.checkOwned(cur, m.V)
		strat.Remove(m.V)
	case Swap:
		m.checkOwned(cur, m.V)
		m.checkEndpoint(m.X)
		strat.Remove(m.V)
		strat.Add(m.X)
	default:
		panic("game: invalid move kind")
	}
	return strat
}

func (m Move) checkEndpoint(v int) {
	if v == m.Agent {
		panic(fmt.Sprintf("game: malformed move %q: self-targeted endpoint", m))
	}
}

func (m Move) checkOwned(cur bitset.Set, v int) {
	m.checkEndpoint(v)
	if !cur.Has(v) {
		panic(fmt.Sprintf("game: malformed move %q: agent %d does not own (%d,%d)",
			m, m.Agent, m.Agent, v))
	}
}

// Apply mutates the state by performing the move. It panics on malformed
// moves, with Move.NewStrategy's contract: deleting or swapping out an
// edge the agent does not own is an error, not a silent no-op or a
// degenerate buy; buying an already-bought edge is a no-op and allowed.
func (s *State) Apply(m Move) {
	s.SetStrategy(m.Agent, m.NewStrategy(s.P.S[m.Agent]))
}

// CostAfter evaluates the mover's cost after the move without changing
// the state: the model's StrategyCost of the new strategy plus the
// distance part from distAfter. It prices the new strategy directly, so
// it never writes the profile, and it never writes the distance cache.
// A malformed move panics before anything is touched.
func (s *State) CostAfter(m Move) float64 {
	next, dist := s.distAfter(m)
	return s.G.Rules().StrategyCost(s.G, m.Agent, next) + dist
}

// distAfter returns the strategy move m gives its agent and the agent's
// distance cost after the move: the current DistCost when the move only
// changes ownership, else a scratch repair of the agent's current row
// across the move's edge flips (speculativeDistCost), so every row
// current before the call is current, and bit for bit the same, after
// it. It is CostAfter without the edge part, which scanMoves skips when
// the distance part alone is +Inf.
func (s *State) distAfter(m Move) (next bitset.Set, dist float64) {
	u := m.Agent
	next = m.NewStrategy(s.P.S[u])
	flips := s.strategyFlips(u, s.P.S[u], next)
	if len(flips) == 0 {
		return next, s.DistCost(u) // ownership only: every distance is intact
	}
	return next, s.speculativeDistCost(u, flips)
}

// CandidateMoves enumerates every legal single-edge move for agent u in
// the current state: all buys of non-owned nodes, all deletions of owned
// edges, and all swaps of an owned edge for a non-owned node — filtered
// through the cost model's feasibility predicate (a no-op under the
// unconstrained default SumRules).
func (s *State) CandidateMoves(u int) []Move {
	n := s.G.N()
	owned := s.P.S[u]
	r := s.G.Rules()
	var moves []Move
	add := func(m Move) {
		if r.MoveFeasible(s.G, owned, m) {
			moves = append(moves, m)
		}
	}
	for v := 0; v < n; v++ {
		if v == u || owned.Has(v) {
			continue
		}
		add(Move{Agent: u, Kind: Buy, V: v})
	}
	owned.ForEach(func(v int) {
		add(Move{Agent: u, Kind: Delete, V: v})
		for x := 0; x < n; x++ {
			if x == u || x == v || owned.Has(x) {
				continue
			}
			add(Move{Agent: u, Kind: Swap, V: v, X: x})
		}
	})
	return moves
}

// BestSingleMove returns agent u's best single-edge move and the cost it
// achieves. If no move strictly improves on the current cost, ok is false,
// the returned cost is the current cost, and the returned move is
// meaningless. The scan is neighborhood-pruned: candidates whose
// distance-gain upper bound (derived from u's current distance row and
// the network triangle inequality, see moveBounds) provably cannot beat
// the running best are skipped without evaluation. Pruning never changes
// the outcome — BestSingleMoveExact is the unpruned oracle, and property
// tests pin (move, cost, ok) equality between the two.
func (s *State) BestSingleMove(u int) (best Move, cost float64, ok bool) {
	return s.bestSingleMove(u, true)
}

// BestSingleMoveExact is the exhaustive-scan oracle for BestSingleMove:
// every candidate move is evaluated. It exists for tests and as the
// fallback when pruning bounds do not apply (infinite current cost).
func (s *State) BestSingleMoveExact(u int) (best Move, cost float64, ok bool) {
	return s.bestSingleMove(u, false)
}

// bestSingleMove picks the scan tier for agent u and hands its
// acquisition targets to scanMoves, the one scan loop every tier shares.
// Every tier's targets ascend, as the oracle's do, so the first candidate
// attaining the minimum — which is never pruned — wins in every tier.
//
// On top of the per-candidate pruning sit two geometric tiers (see
// candidates.go), both reserved for pruned scans on hosts exposing the
// capability they need, and both outcome-preserving: the metric excess
// certificate, which reduces the scan to the agent's deletions (no
// targets at all), and the candidate tier, whose targets are the host's
// CandidateSource neighborhood inside a certified cutoff radius — every
// unenumerated target provably satisfies the same skip condition the
// pruned scan applies. Every other scan targets every vertex.
func (s *State) bestSingleMove(u int, prune bool) (best Move, cost float64, ok bool) {
	cur := s.Cost(u)
	owned := s.P.S[u]
	if prune && s.excessRulesOutAcquisitions(u, cur, owned) {
		s.scan.ExcessSkips++
		return s.scanMoves(u, cur, nil, nil)
	}
	var pb *moveBounds
	if prune {
		pb = s.newMoveBounds(u, cur)
	}
	if pb != nil {
		if src := s.G.Host.candidateSource(); src != nil {
			if rCut, cok := pb.acquireCutoff(s.maxRefundPrice(u, owned)); cok {
				s.scan.CandidateScans++
				s.candBuf = src.AppendWithin(u, rCut, s.candBuf[:0])
				s.scan.CandidatesScanned += len(s.candBuf)
				return s.scanMoves(u, cur, pb, s.candBuf)
			}
			s.scan.Fallbacks++
		}
	}
	if prune {
		s.scan.ExhaustiveScans++
	}
	s.candBuf = s.candBuf[:0]
	for v := range s.G.N() {
		s.candBuf = append(s.candBuf, v)
	}
	return s.scanMoves(u, cur, pb, s.candBuf)
}

// scanMoves evaluates agent u's candidates in CandidateMoves order,
// restricted to targets (ascending): the buys towards targets, then, per
// owned edge, its delete followed by its swaps towards targets,
// skipping acquisitions pb proves unable to beat the running best (pb
// nil skips nothing). It returns the first move attaining the minimum
// cost, or (Move{}, cur, false) when no move strictly improves on the
// current cost cur.
//
// Each candidate is priced as CostAfter prices it, distance part first:
// a move whose distance part is +Inf (one that leaves the mover cut off
// from a node it has demand towards) skips the model's StrategyCost
// fold, since edge + Inf is +Inf or NaN and neither passes c < cost.
// Each of the star centre's deletes is such a move; folding its strategy
// would price every remaining owned weight only to produce +Inf.
func (s *State) scanMoves(u int, cur float64, pb *moveBounds, targets []int) (best Move, cost float64, ok bool) {
	cost = cur
	owned := s.P.S[u]
	r := s.G.Rules()
	consider := func(m Move) {
		if !r.MoveFeasible(s.G, owned, m) {
			return
		}
		next, dist := s.distAfter(m)
		if math.IsInf(dist, 1) {
			return
		}
		if c := r.StrategyCost(s.G, u, next) + dist; c < cost {
			cost = c
			best = m
		}
	}
	// Adaptive bail: bound checks only pay for themselves when they
	// actually prune (near-stable states, large α). If the first probe
	// window prunes under a sixth of its candidates — improvement-rich
	// states where most moves genuinely must be evaluated — stop checking
	// and run exhaustively. The decision depends only on the scan's own
	// history, so results stay deterministic (and pruning never changes
	// them either way).
	checked, prunedCnt := 0, 0
	skip := func(y int, refund float64) bool {
		if pb == nil || (checked >= 96 && prunedCnt*6 < checked) {
			return false
		}
		checked++
		if pb.skipAcquire(s.hostWeight(u, y), pb.duv[y], refund, cur-cost) {
			prunedCnt++
			return true
		}
		return false
	}
	for _, v := range targets {
		if v == u || owned.Has(v) || skip(v, 0) {
			continue
		}
		consider(Move{Agent: u, Kind: Buy, V: v})
	}
	owned.ForEach(func(v int) {
		consider(Move{Agent: u, Kind: Delete, V: v})
		var refund float64
		if pb != nil {
			refund = pb.rules.AcquirePrice(pb.alpha, s.hostWeight(u, v))
		}
		for _, x := range targets {
			if x == u || x == v || owned.Has(x) || skip(x, refund) {
				continue
			}
			consider(Move{Agent: u, Kind: Swap, V: v, X: x})
		}
	})
	if ok = s.G.Improves(cost, cur); !ok {
		// The running best may hold a sub-tolerance improver that a tier
		// with fewer targets never saw; reset it so the "meaningless"
		// move is one fixed value and every scan tier — and the exact
		// oracle — returns an identical triple.
		cost, best = cur, Move{}
	}
	return best, cost, ok
}

// moveBounds holds the per-agent quantities behind the pruned move scan.
// For a move that acquires the host edge (u,y) of weight w — a buy, or
// the bought half of a swap — the traffic-weighted distance gain is
// bounded above by both
//
//	gainUB(w) = Σ_x t(u,x)·max(0, d(u,x) − w)
//
// (acquiring a direct edge of length w cannot bring any x closer than w;
// one sorted pass over u's distance row answers it in O(log n) per
// candidate) and
//
//	T · max(0, d(u,y) − w),  T = Σ_x t(u,x)
//
// (by the network triangle inequality d(u,x) ≤ d(u,y) + d(y,x), each
// term of the gain is at most d(u,y) − w; deletions on the swapped-out
// side only increase distances and cannot enlarge the gain). A candidate
// is skipped when the smaller bound, minus the edge-price delta, cannot
// exceed the larger of the strict-improvement tolerance and the running
// best improvement — minus a float slack absorbing the ulp-level
// divergence between real-arithmetic bounds and float path sums, so a
// pruned candidate can never be one the oracle would have accepted.
//
// The bounds need a finite current cost (an agent that cannot reach a
// positive-demand node gains unboundedly from reconnection) and a cost
// model whose DistTerm is linear in d (Rules.GainBoundsSound);
// newMoveBounds returns nil otherwise and the scan falls back to the
// oracle. Edge prices and refunds go through Rules.AcquirePrice, so the
// bounds stay sound under any model that declares them applicable.
type moveBounds struct {
	duv   []float64 // u's distance row
	pairs []distDemand
	ds    []float64 // positive-traffic distances, ascending (lazy: ensureSorted)
	// sorted reports whether ds, std and st hold this scan's arrays; the
	// slices themselves are kept across scans as reusable buffers.
	sorted bool
	std    []float64 // std[i] = Σ_{j≥i} t_j·ds[j]
	st     []float64 // st[i] = Σ_{j≥i} t_j
	tpos   float64   // Σ_x t(u,x)
	sumTD  float64   // Σ_x t(u,x)·d(u,x) = gainUB(0), the coarse gain ceiling
	minD   float64   // smallest positive-traffic distance
	maxD   float64   // largest positive-traffic distance
	// excessUB bounds the gain of ANY acquiring move on a structurally
	// metric host: distances cannot drop below the host-metric floor, so
	// gain ≤ Σ_x t·(d − w) = sumTD − trafficFloorSum. +Inf on non-metric
	// hosts. O(1) per candidate, independent of the candidate — it is
	// what prunes the near field where the pair and sorted-row bounds
	// (which allow a short edge to shortcut towards everything) stay
	// hopelessly loose.
	excessUB float64
	alpha    float64
	eps      float64
	slack    float64
	rules    Rules
}

type distDemand struct{ d, t float64 }

// boundSlack is the float slack the pruning bounds and the excess
// certificate subtract from their thresholds for an agent of current
// cost cur: it absorbs the ulp-level divergence between real-arithmetic
// bounds and float path sums.
func boundSlack(cur float64) float64 { return 1e-11 * (1 + math.Abs(cur)) }

// newMoveBounds fills the state's reused bounds for a scan of agent u.
// The result stays valid until the next newMoveBounds call on s.
func (s *State) newMoveBounds(u int, cur float64) *moveBounds {
	if math.IsInf(cur, 1) {
		return nil
	}
	r := s.G.Rules()
	if !r.GainBoundsSound() {
		return nil
	}
	row := s.Dist(u)
	pb := &s.bounds
	*pb = moveBounds{
		duv:   row,
		pairs: pb.pairs[:0],
		ds:    pb.ds,
		std:   pb.std,
		st:    pb.st,
		alpha: s.G.Alpha,
		eps:   s.G.Eps,
		slack: boundSlack(cur),
		rules: r,
	}
	pb.minD = math.Inf(1)
	for x, d := range row {
		if x == u {
			continue
		}
		t := s.G.Traffic(u, x)
		if t == 0 {
			continue // zero demand contributes no gain (and tolerates d = +Inf)
		}
		pb.pairs = append(pb.pairs, distDemand{d, t})
		pb.tpos += t
		pb.sumTD += t * d
		if d > pb.maxD {
			pb.maxD = d
		}
		if d < pb.minD {
			pb.minD = d
		}
	}
	pb.excessUB = math.Inf(1)
	if s.G.Host.metricByConstruction(s.G.Eps) {
		if floor := s.G.trafficFloorSum(u); !math.IsInf(floor, 0) && !math.IsNaN(floor) {
			pb.excessUB = pb.sumTD - floor
		}
	}
	return pb
}

// ensureSorted builds the sorted-row prefix arrays behind gainUB on
// first use. The O(n log n) sort is deferred because the geometric
// candidate tier usually resolves its whole scan from the coarse
// min(sumTD, excessUB) ceiling and the O(1) pair bound, and the
// verifier's certificate consults gainUB only where those lose — the
// common large-n case never pays for a sort it does not consult.
func (pb *moveBounds) ensureSorted() {
	if pb.sorted {
		return
	}
	pb.sorted = true
	pairs := pb.pairs
	slices.SortFunc(pairs, byDist)
	m := len(pairs)
	pb.ds, pb.std, pb.st = resize(pb.ds, m), resize(pb.std, m+1), resize(pb.st, m+1)
	pb.std[m], pb.st[m] = 0, 0
	for i := m - 1; i >= 0; i-- {
		pb.ds[i] = pairs[i].d
		pb.std[i] = pb.std[i+1] + pairs[i].t*pairs[i].d
		pb.st[i] = pb.st[i+1] + pairs[i].t
	}
}

// byDist orders pairs by distance alone. slices.SortFunc runs the same
// pdqsort as sort.Slice with a less of a.d < b.d, so tied distances keep
// sort.Slice's permutation, and it allocates nothing.
func byDist(a, b distDemand) int {
	switch {
	case a.d < b.d:
		return -1
	case a.d > b.d:
		return 1
	}
	return 0
}

// resize returns b with length m, reusing its backing array when it is
// large enough; the contents are left for the caller to overwrite.
func resize(b []float64, m int) []float64 {
	if cap(b) < m {
		return make([]float64, m)
	}
	return b[:m]
}

// gainUB returns Σ_x t(u,x)·max(0, d(u,x) − w).
func (pb *moveBounds) gainUB(w float64) float64 {
	if w <= pb.minD {
		// Every positive-traffic distance is ≥ w, so no max(·) clamps and
		// the sum collapses to the O(1) aggregates — the geometric tier's
		// candidates all sit below the nearest network distance, so this
		// shortcut is what keeps that tier free of the O(n log n) sort.
		return pb.sumTD - w*pb.tpos
	}
	pb.ensureSorted()
	i := sort.SearchFloat64s(pb.ds, w) // first index with ds[i] ≥ w; equal terms contribute 0
	return pb.std[i] - w*pb.st[i]
}

// skipAcquire reports whether acquiring a host edge of weight w towards a
// node at network distance duy — with refund AcquirePrice(α, w(u,V)) when
// the move also deletes owned edge (u,V), 0 for a plain buy — provably
// cannot beat the running best improvement (or the strict-improvement
// tolerance, whichever is larger).
func (pb *moveBounds) skipAcquire(w, duy, refund, bestGain float64) bool {
	if math.IsInf(w, 1) {
		return true // unbuyable pair: the move's edge cost alone is +Inf
	}
	threshold := bestGain
	if pb.eps > threshold {
		threshold = pb.eps
	}
	threshold += pb.rules.AcquirePrice(pb.alpha, w) - refund - pb.slack
	// O(1) bounds first — the triangle pair bound and the metric excess
	// ceiling — then the sorted-row bound only when both fail.
	var pair float64
	if pb.tpos > 0 && duy > w {
		pair = pb.tpos * (duy - w) // duy may be +Inf (zero-demand pair): pair = +Inf, no prune
	}
	if pair <= threshold {
		return true
	}
	if pb.excessUB <= threshold {
		return true
	}
	return pb.gainUB(w) <= threshold
}

// BestBuy returns agent u's best single Buy move, mirroring the add-only
// equilibrium notion. Buys the cost model rules infeasible are skipped.
func (s *State) BestBuy(u int) (best Move, cost float64, ok bool) {
	cur := s.Cost(u)
	cost = cur
	n := s.G.N()
	r := s.G.Rules()
	for v := 0; v < n; v++ {
		if v == u || s.P.S[u].Has(v) {
			continue
		}
		m := Move{Agent: u, Kind: Buy, V: v}
		if !r.MoveFeasible(s.G, s.P.S[u], m) {
			continue
		}
		if c := s.CostAfter(m); c < cost {
			cost = c
			best = m
		}
	}
	ok = s.G.Improves(cost, cur)
	if !ok {
		cost = cur
		best = Move{}
	}
	return best, cost, ok
}

// IsAddOnlyEquilibrium reports whether no agent can strictly improve by
// buying a single edge (the paper's AE).
func (s *State) IsAddOnlyEquilibrium() bool {
	for u := 0; u < s.G.N(); u++ {
		if _, _, ok := s.BestBuy(u); ok {
			return false
		}
	}
	return true
}

// IsGreedyEquilibrium reports whether no agent can strictly improve by a
// single buy, delete or swap (the paper's GE, after Lenzner 2012).
func (s *State) IsGreedyEquilibrium() bool {
	for u := 0; u < s.G.N(); u++ {
		if _, _, ok := s.BestSingleMove(u); ok {
			return false
		}
	}
	return true
}

// GreedyApproxFactor returns the largest factor β by which any agent can
// reduce its cost with a single move: the state is a β-GE. Returns 1 when
// the state is a GE, +Inf if an agent with infinite cost can make its cost
// finite.
func (s *State) GreedyApproxFactor() float64 {
	worst := 1.0
	for u := 0; u < s.G.N(); u++ {
		cur := s.Cost(u)
		_, best, ok := s.BestSingleMove(u)
		if !ok {
			continue
		}
		if best <= 0 || math.IsInf(cur, 1) {
			return math.Inf(1)
		}
		if f := cur / best; f > worst {
			worst = f
		}
	}
	return worst
}
