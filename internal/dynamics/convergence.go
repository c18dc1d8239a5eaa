package dynamics

import (
	"time"

	"gncg/internal/bitset"
	"gncg/internal/game"
)

// Budget bounds a RunToConvergence call. Zero values mean unlimited.
//
// MaxRounds and MaxMoves are deterministic budgets: two runs with the
// same inputs stop at identical points, so budgeted sweep cells stay
// byte-identical under sharding. WallClock is a machine-dependent safety
// net — a run cut off by it produces timing-dependent results, so sweeps
// that feed the byte-deterministic results contract must size the
// deterministic budgets to bind first and use WallClock only as a
// backstop against pathological instances (or leave it zero).
type Budget struct {
	MaxRounds int
	MaxMoves  int
	WallClock time.Duration
}

// ConvergenceResult reports how an equilibrium-seeking run ended.
//
// Outcome is Converged when a full activation round passed with no agent
// moving — the state is an equilibrium of the mover's move set (a greedy
// equilibrium for GreedyMover, a Nash equilibrium for BestResponseMover)
// — and Exhausted when a budget ran out first. SocialCost is the final
// state's social cost, recorded so callers need not re-query it.
type ConvergenceResult struct {
	Outcome    Outcome
	Rounds     int
	Moves      int
	SocialCost float64
	Elapsed    time.Duration
}

// PoA returns the empirical Price-of-Anarchy estimate of the final state
// against a social-optimum bound: SocialCost / optBound. With a certified
// lower bound on OPT (opt.LowerBound) the result upper-bounds the true
// ratio of this equilibrium, so values near 1 certify the paper's
// near-optimality claims. Returns +Inf for a non-positive bound.
func (r ConvergenceResult) PoA(optBound float64) float64 {
	if optBound <= 0 {
		return game.Inf()
	}
	return r.SocialCost / optBound
}

// Verification couples the parallel verifier's report on a converged
// state with the wall time the verification took. Elapsed is
// machine-dependent and must not feed byte-deterministic outputs; the
// embedded VerifyResult is worker-count-invariant and may.
type Verification struct {
	game.VerifyResult
	Elapsed time.Duration
}

// VerifyConvergence re-checks a convergence run's final state with the
// certified parallel verifier (game.VerifyGreedyEquilibrium): the
// independent confirmation tier behind the equilibrium ladder's
// exact_oracle_ne column. Convergence already implies a full no-move
// round under the (pruned) mover, so this is a double-check against a
// different code path — certificates plus, under opt.Exact, the
// unpruned exhaustive oracle. ok is false, and no verification runs,
// when the run did not converge (an Exhausted state proves nothing).
func VerifyConvergence(res ConvergenceResult, s *game.State, opt game.VerifyOptions) (Verification, bool) {
	if res.Outcome != Converged {
		return Verification{}, false
	}
	start := time.Now()
	v := game.VerifyGreedyEquilibrium(s, opt)
	return Verification{VerifyResult: v, Elapsed: time.Since(start)}, true
}

// RunToConvergence drives move dynamics on state s (mutating it) until a
// full round passes without an improving move, or a budget is exhausted.
//
// It keeps no profile history and performs no cycle detection: the
// per-move cost is O(1) bookkeeping on top of the mover itself, which is
// what makes full convergence runs feasible on the n=10⁴ equilibrium
// ladder. Dynamics that can cycle (exact best responses on T-/ℓ1-hosts,
// Thms 14 and 17) simply exhaust their budget; greedy dynamics on the
// ladder's metric hosts converge in practice. Callers who need a cycle
// certificate use Run.
func RunToConvergence(s *game.State, mover Mover, sched Scheduler, b Budget) ConvergenceResult {
	start := time.Now()
	res := activate(s, mover, sched, b, start, nil)
	res.SocialCost = s.SocialCost()
	res.Elapsed = time.Since(start)
	return res
}

// activate is the one activation loop behind RunToConvergence and Run:
// rounds of sched's order, each agent offered one mover call, until a
// round applies no move or b runs out (its WallClock counted from
// start). onMove, when non-nil, sees every applied move; returning true
// stops the run with Outcome CycleDetected. SocialCost and Elapsed are
// left to the caller.
func activate(s *game.State, mover Mover, sched Scheduler, b Budget, start time.Time, onMove func(u int, strat bitset.Set) bool) ConvergenceResult {
	n := s.G.N()
	res := ConvergenceResult{Outcome: Exhausted}
	cut := func() bool {
		if b.MaxMoves > 0 && res.Moves >= b.MaxMoves {
			return true
		}
		return b.WallClock > 0 && time.Since(start) >= b.WallClock
	}
	for !cut() {
		if b.MaxRounds > 0 && res.Rounds >= b.MaxRounds {
			break
		}
		res.Rounds++
		moved := false
		for _, u := range sched.Order(res.Rounds, n) {
			if cut() {
				break
			}
			strat, ok := mover(s, u)
			if !ok {
				continue
			}
			s.SetStrategy(u, strat)
			res.Moves++
			moved = true
			if onMove != nil && onMove(u, strat) {
				res.Outcome = CycleDetected
				return res
			}
		}
		if !moved && !cut() {
			res.Outcome = Converged
			break
		}
	}
	return res
}
