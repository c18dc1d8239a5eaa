package game

import (
	"math"

	"gncg/internal/bitset"
	"gncg/internal/graph"
	"gncg/internal/parallel"
)

// State is a strategy profile bound to its game, with the created network
// G(s) kept materialized and shortest-path queries memoized (see
// cache.go). All cost queries and move evaluations go through a State.
// States are not safe for concurrent mutation; read-only cost queries on
// distinct sources are safe, and parallel work that mutates goes through
// the workers of a Fork. States must be created with NewState (or Clone
// or Fork); the zero value is unusable.
type State struct {
	G     *Game
	P     Profile
	net   *graph.Graph
	cache *distCache

	// touched counts vertices examined by SetStrategy's diff walk. It is
	// a white-box regression guard: a single-edge move must do O(Δ) work,
	// not rescan all n vertices (see TestSetStrategyTouchesOnlyDiff).
	touched int

	// scan accumulates best-response scan telemetry (see candidates.go);
	// candBuf is the reused scratch buffer for candidate-source queries,
	// bounds the reused pruning bounds of the scan in progress
	// (newMoveBounds), and flips strategyFlips' result, so a scan
	// allocates nothing for any of them. Clones start with zero counters
	// and empty buffers.
	scan    ScanStats
	candBuf []int
	bounds  moveBounds
	flips   []edgeFlip
}

// NewState binds profile p to game g and materializes G(s). The profile is
// used as-is (not cloned); callers that need the original intact should
// pass p.Clone(). From the first NewState on, g's demand and cost model
// are fixed (see SetTraffic and SetRules).
func NewState(g *Game, p Profile) *State {
	if p.N() != g.N() {
		panic("game: profile size does not match host")
	}
	g.bound.Store(true)
	s := &State{G: g, P: p, cache: newDistCache(g.N())}
	s.rebuild()
	return s
}

func (s *State) rebuild() {
	n := s.G.N()
	s.net = graph.New(n)
	for u := 0; u < n; u++ {
		// An edge both endpoints buy is added twice; AddEdge keeps one
		// copy, and both owners carry the same host weight.
		s.P.S[u].ForEach(func(v int) { s.net.AddEdge(u, v, s.hostWeight(u, v)) })
	}
	s.cache.bump()
}

// hostWeight returns w(u,v), mapping +Inf host weights onto +Inf network
// edges (present but useless, and infinitely expensive to buy).
func (s *State) hostWeight(u, v int) float64 { return s.G.Host.Weight(u, v) }

// Network returns the created network G(s). Callers must not mutate it.
func (s *State) Network() *graph.Graph { return s.net }

// Clone returns an independent copy of the state with a fresh, empty
// distance cache.
func (s *State) Clone() *State {
	return &State{G: s.G, P: s.P.Clone(), net: s.net.Clone(), cache: newDistCache(s.G.N())}
}

// repairFlipLimit is the edge-change count up to which SetStrategy logs
// per-edge deltas for lazy row repair instead of wholesale invalidation:
// 2 covers every single-edge move (buy and delete flip one edge, swap
// flips two), while bulk strategy replacements — whose collapsed diff
// would rarely be worth replaying — fall back to one bump.
const repairFlipLimit = 2

// edgeFlip records one network edge that a strategy change toggles.
type edgeFlip struct {
	v   int
	add bool
	w   float64
}

// SetStrategy replaces agent u's strategy and incrementally repairs the
// network: only edges incident to u whose ownership flip actually toggles
// existence change, found by diffing the old and new strategy bitsets —
// a single-edge move does O(Δ) edge work, never an O(n) vertex rescan.
func (s *State) SetStrategy(u int, strat bitset.Set) {
	next := strat.Clone()
	flips := s.strategyFlips(u, s.P.S[u], next)
	s.P.S[u] = next
	s.applyFlips(u, flips)
}

// applyFlips edits the network by agent u's edge flips and brings the
// distance cache along. Cached distance rows survive changes of at most
// repairFlipLimit edges via in-place shortest-path repair; larger
// changes invalidate them, and pure ownership changes (no flips) keep
// them as they are.
func (s *State) applyFlips(u int, flips []edgeFlip) {
	for _, f := range flips {
		if f.add {
			s.net.AddEdge(u, f.v, f.w)
		} else {
			s.net.RemoveEdge(u, f.v)
		}
		if len(flips) <= repairFlipLimit {
			s.cache.edgeChanged(u, f.v, f.w, f.add)
		}
	}
	if len(flips) > repairFlipLimit {
		s.cache.bump()
	}
}

// strategyFlips returns the network edges that replacing agent u's
// strategy old by next toggles, in ascending order of the other
// endpoint: only pairs in the symmetric difference of the two bitsets
// are examined, and a pair flips only if the other endpoint does not
// own it too. It is the one definition of a strategy change's edge
// work, shared by SetStrategy and CostAfter. The result lives in the
// state's reused buffer s.flips and is valid until the next call.
func (s *State) strategyFlips(u int, old, next bitset.Set) []edgeFlip {
	s.flips = s.flips[:0]
	old.ForEachSymDiff(next, func(v int) {
		s.touched++
		if v == u {
			return
		}
		want := next.Has(v) || s.P.S[v].Has(u)
		switch has := s.net.HasEdge(u, v); {
		case want && !has:
			s.flips = append(s.flips, edgeFlip{v, true, s.hostWeight(u, v)})
		case !want && has:
			s.flips = append(s.flips, edgeFlip{v, false, s.net.EdgeWeight(u, v)})
		}
	})
	return s.flips
}

// EdgeCost returns what agent u pays for its purchases under the game's
// cost model: α·w(u,S_u) in the paper's default SumRules.
func (s *State) EdgeCost(u int) float64 {
	return s.G.Rules().StrategyCost(s.G, u, s.P.S[u])
}

// DistCost returns Σ_v t(u,v)·d_{G(s)}(u,v), where t is the game's
// traffic matrix (uniformly 1 in the paper's model); +Inf if u cannot
// reach a node it has positive demand towards. Cached rows answer in
// O(1) from their maintained aggregate (see aggregate.go); uncached
// queries fold the row in the same fixed shape, so the two paths are
// bit-identical.
func (s *State) DistCost(u int) float64 {
	if total, ok := s.cache.aggTotal(u, true); ok {
		return total
	}
	row := s.Dist(u)
	// Dist may have replayed or recomputed the row, publishing a current
	// aggregate as a side effect; a second miss means the row was evicted
	// by a concurrent reader — fold the row we hold.
	if total, ok := s.cache.aggTotal(u, false); ok {
		return total
	}
	return s.foldDistCost(u, row)
}

// Cost returns agent u's total cost α·w(u,S_u) + d_{G(s)}(u,V).
func (s *State) Cost(u int) float64 { return s.EdgeCost(u) + s.DistCost(u) }

// TotalEdgeCost returns Σ_u α·w(u,S_u). Doubly-bought edges charge both
// owners, per the model.
func (s *State) TotalEdgeCost() float64 {
	total := 0.0
	for u := 0; u < s.G.N(); u++ {
		total += s.EdgeCost(u)
	}
	return total
}

// TotalDistCost returns Σ_u Σ_v d(u,v) over ordered pairs.
func (s *State) TotalDistCost() float64 {
	n := s.G.N()
	return parallel.Reduce(n, 0.0,
		func(u int) float64 { return s.DistCost(u) },
		func(a, b float64) float64 { return a + b })
}

// SocialCost returns the sum of all agents' costs.
func (s *State) SocialCost() float64 { return s.TotalEdgeCost() + s.TotalDistCost() }

// Connected reports whether G(s) is connected (equivalently, whether all
// costs are finite, given finite weights).
func (s *State) Connected() bool { return s.net.Connected() }

// SocialCostOfEdgeSet evaluates the social cost of an arbitrary edge set
// on game g assuming single ownership per edge (the relevant case for
// social optimum candidates): each edge contributes the model's marginal
// price — α·w under the default SumRules, giving α·Σw(e) — plus
// Σ_{ordered pairs} t(u,v)·d(u,v) under the game's demand.
func SocialCostOfEdgeSet(g *Game, edges []graph.Edge) float64 {
	net := graph.New(g.N())
	r := g.Rules()
	total := 0.0
	for _, e := range edges {
		w := g.Host.Weight(e.U, e.V)
		if !net.HasEdge(e.U, e.V) {
			net.AddEdge(e.U, e.V, w)
			total += r.AcquirePrice(g.Alpha, w)
		}
	}
	dist, unreached := graph.SumDistances(0, net.APSP(), g.traffic)
	if unreached > 0 {
		dist = math.Inf(1)
	}
	return total + dist
}

// ProfileFromEdgeSet turns an undirected edge set into a profile with a
// deterministic single-ownership rule (the lower-numbered endpoint buys).
// Constructions that need a specific ownership build profiles directly.
func ProfileFromEdgeSet(n int, edges []graph.Edge) Profile {
	p := EmptyProfile(n)
	for _, e := range edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if !p.HasEdge(u, v) {
			p.Buy(u, v)
		}
	}
	return p
}

// Inf is a convenience alias for +Inf used across experiment code.
func Inf() float64 { return math.Inf(1) }
