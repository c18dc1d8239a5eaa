// Package dynamics simulates the game's move dynamics and detects their
// two possible fates: convergence to a stable state or a revisited state,
// which certifies an improving-move cycle and hence refutes the finite
// improvement property (the paper's Thms 14 and 17 assert exactly such
// cycles exist for the T–GNCG and the Rd–GNCG with the 1-norm).
//
// Four move oracles are provided: exact best responses (expensive,
// exponential worst case), UMFL 3-approximate best responses, greedy
// single-edge responses (polynomial, the GE notion), and add-only
// responses (polynomial; these always converge because strategies only
// grow, yielding the AE networks of Thm 2). One activation loop,
// RunToConvergence, plays them all; Run records the moves on top of it
// to detect recurrences. ProfileSpace enumerates every strategy profile
// of a tiny game for the exhaustive checks (ExhaustiveFIP here, the
// equilibrium census in package poa).
//
// The simulation layer is cost-model-blind: movers see only costs and
// moves, both of which the state's game.Rules already shapes, so
// GreedyMover and AddOnlyMover run unchanged under every model
// (single-edge scans respect the model's feasibility predicate inside
// BestSingleMove/BestBuy). The two best-response movers go through the
// UMFL reduction and therefore carry its model gate: BestResponseMover
// and ApproxBRMover panic under models whose Rules.ExactNashViaUMFL is
// false (budget) — schedule GreedyMover for those.
package dynamics

import (
	"math/rand"
	"time"

	"gncg/internal/bestresponse"
	"gncg/internal/bitset"
	"gncg/internal/game"
)

// Mover computes agent u's next strategy in state s. It returns the new
// strategy and whether it strictly improves on u's current cost.
type Mover func(s *game.State, u int) (bitset.Set, bool)

// BestResponseMover plays exact best responses.
func BestResponseMover(s *game.State, u int) (bitset.Set, bool) {
	br := bestresponse.Exact(s, u)
	if !s.G.Improves(br.Cost, s.Cost(u)) {
		return bitset.Set{}, false
	}
	return br.Strategy, true
}

// GreedyMover plays the best single buy/delete/swap move. The winning
// move is turned into a strategy by game.Move.NewStrategy — the same
// helper State.Apply uses — so the two mutation paths cannot drift.
func GreedyMover(s *game.State, u int) (bitset.Set, bool) {
	m, _, ok := s.BestSingleMove(u)
	if !ok {
		return bitset.Set{}, false
	}
	return m.NewStrategy(s.P.S[u]), true
}

// AddOnlyMover plays the best single buy move (never deletes). Add-only
// dynamics need no move budget: every move buys a new edge and strictly
// improves the buyer, so a run makes at most n(n-1) moves and ends in an
// add-only equilibrium; Thm 2 and Cor. 2 then bound how unstable it can
// be — for CONNECTED states. Start from a connected profile (e.g.
// game.StarProfile): from a sufficiently disconnected state no single
// purchase yields finite cost, so the empty network is vacuously
// add-only stable yet infinitely bad, a degenerate case the paper's
// finite-cost arguments exclude.
func AddOnlyMover(s *game.State, u int) (bitset.Set, bool) {
	m, _, ok := s.BestBuy(u)
	if !ok {
		return bitset.Set{}, false
	}
	return m.NewStrategy(s.P.S[u]), true
}

// ApproxBRMover plays the UMFL-local-search 3-approximate best response,
// accepting it only when it strictly improves.
func ApproxBRMover(s *game.State, u int) (bitset.Set, bool) {
	br := bestresponse.ApproxLocalSearch(s, u)
	if !s.G.Improves(br.Cost, s.Cost(u)) {
		return bitset.Set{}, false
	}
	return br.Strategy, true
}

// Scheduler yields the order in which agents are offered moves in each
// round.
type Scheduler interface {
	Order(round, n int) []int
}

// RoundRobin activates agents 0..n-1 in index order every round.
type RoundRobin struct{}

// Order returns 0..n-1.
func (RoundRobin) Order(round, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// RandomOrder activates agents in a fresh seeded permutation each round.
type RandomOrder struct{ Rng *rand.Rand }

// Order returns a permutation of 0..n-1.
func (r RandomOrder) Order(round, n int) []int { return r.Rng.Perm(n) }

// Outcome summarizes a dynamics run.
type Outcome int

const (
	// Converged: a full round passed with no agent moving.
	Converged Outcome = iota
	// CycleDetected: a previously seen strategy profile recurred, proving
	// an improving-move cycle (no FIP).
	CycleDetected
	// Exhausted: the step budget ran out first.
	Exhausted
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Converged:
		return "converged"
	case CycleDetected:
		return "cycle"
	case Exhausted:
		return "exhausted"
	default:
		return "unknown"
	}
}

// Trace records one improving move for replay and inspection.
type Trace struct {
	Agent    int
	Strategy []int // the new strategy, as node indices
}

// Result reports how a run ended. Moves counts applied improving moves.
// When Outcome is CycleDetected, CycleStart/CycleLen describe the
// recurrence within History: the profile after move CycleStart+CycleLen
// equals the one after move CycleStart.
type Result struct {
	Outcome    Outcome
	Moves      int
	Rounds     int
	History    []Trace
	CycleStart int
	CycleLen   int
}

// Run simulates dynamics on state s (mutating it) until convergence,
// state recurrence, or maxMoves applied moves (maxMoves <= 0 is an
// immediately exhausted budget). It records every move on top of
// RunToConvergence's activation loop and hashes every visited profile;
// hash collisions are disambiguated by storing full profiles per hash
// bucket, so a reported cycle is exact.
func Run(s *game.State, mover Mover, sched Scheduler, maxMoves int) Result {
	res := Result{Outcome: Exhausted}
	if maxMoves <= 0 {
		return res
	}
	seen := map[uint64][]seenEntry{}
	record := func(moveIdx int) (int, bool) {
		h := s.P.Hash()
		for _, e := range seen[h] {
			if e.profile.Equal(s.P) {
				return e.moveIdx, true
			}
		}
		seen[h] = append(seen[h], seenEntry{moveIdx: moveIdx, profile: s.P.Clone()})
		return 0, false
	}
	record(0)
	cr := activate(s, mover, sched, Budget{MaxMoves: maxMoves}, time.Time{}, func(u int, strat bitset.Set) bool {
		res.History = append(res.History, Trace{Agent: u, Strategy: strat.Elems()})
		at, dup := record(len(res.History))
		if dup {
			res.CycleStart, res.CycleLen = at, len(res.History)-at
		}
		return dup
	})
	res.Outcome, res.Moves, res.Rounds = cr.Outcome, cr.Moves, cr.Rounds
	return res
}

type seenEntry struct {
	moveIdx int
	profile game.Profile
}
