package dynamics

import (
	"sync/atomic"
	"time"

	"gncg/internal/bitset"
	"gncg/internal/game"
	"gncg/internal/parallel"
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
// It keeps no profile history and performs no cycle detection: each
// applied move costs the mover's scan plus the fork's sync (one
// SetStrategy per worker, see activate), which is what makes full
// convergence runs feasible on the n=10⁴ equilibrium ladder. Dynamics
// that can cycle (exact best responses on T-/ℓ1-hosts, Thms 14 and 17)
// simply exhaust their budget; greedy dynamics on the ladder's metric
// hosts converge in practice. Callers who need a cycle certificate use
// Run.
func RunToConvergence(s *game.State, mover Mover, sched Scheduler, b Budget) ConvergenceResult {
	start := time.Now()
	res := activate(s, mover, sched, b, start, nil)
	res.SocialCost = s.SocialCost()
	res.Elapsed = time.Since(start)
	return res
}

// verdict is one speculative mover call: the answer for one schedule
// position against the frozen state, and the scan counters it added.
type verdict struct {
	strat bitset.Set
	ok    bool
	scan  game.ScanStats
}

// activate is the one activation loop behind RunToConvergence and Run:
// rounds of sched's order, each agent offered one mover call, until a
// round applies no move or b runs out (its WallClock counted from
// start). onMove, when non-nil, sees every applied move; returning true
// stops the run with Outcome CycleDetected. SocialCost and Elapsed are
// left to the caller.
//
// Each round is played speculatively on a game.Fork of s with one worker
// per core: agent u belongs to worker u mod W, so each distance row is
// mostly repaired by one worker. The loop offers a window of the round's
// next schedule positions to the workers in parallel, against the frozen
// state. A worker claims its own agents' positions in schedule order,
// then helps with every position of the window no worker has claimed
// yet, so a worker the machine slows down (a busy or descheduled core)
// holds the window up by at most the scan it is in, not by the rest of
// its share. A worker stops at its first improving position, or at any
// position past another worker's improving one. The first improving
// position is committed to s and every worker (Fork.SetStrategy), the
// verdicts after it are discarded, and the round resumes right after
// it. The window starts at one position, doubles after each window
// without a move, and falls back to one after a commit, so busy rounds
// run as the serial loop would and quiet rounds spread over every core.
// Only the scan counters of positions up to the commit — exactly the
// scans a serial loop runs — are folded into s, so every deterministic
// output (outcome, rounds, moves, profile, social cost, ScanStats,
// History) is bit-identical to the serial loop under any worker count.
// Workers are the only goroutines that call mover, hence the Mover
// contract. A WallClock cut is noticed between scans, as serially. A
// mover panic propagates to the caller and leaves s consistent: its
// profile holds every committed move, only the workers' rows are lost.
func activate(s *game.State, mover Mover, sched Scheduler, b Budget, start time.Time, onMove func(u int, strat bitset.Set) bool) ConvergenceResult {
	n := s.G.N()
	res := ConvergenceResult{Outcome: Exhausted}
	expired := func() bool { return b.WallClock > 0 && time.Since(start) >= b.WallClock }
	cut := func() bool { return b.MaxMoves > 0 && res.Moves >= b.MaxMoves || expired() }
	f := s.Fork(parallel.Workers())
	w := f.Size()
	verdicts := make([]verdict, n)
	claimed := make([]atomic.Bool, n)
rounds:
	for !cut() {
		if b.MaxRounds > 0 && res.Rounds >= b.MaxRounds {
			break
		}
		res.Rounds++
		moved := false
		order := sched.Order(res.Rounds, n)
		for pos, window := 0, 1; pos < len(order) && !cut(); {
			end := min(pos+window, len(order))
			// first ends as the window's first improving position, the
			// first position a WallClock cut left unscanned, or end.
			var first atomic.Int64
			first.Store(int64(end))
			for q := pos; q < end; q++ {
				claimed[q].Store(false)
			}
			sweep := func(k int, ws *game.State) {
				for _, own := range [2]bool{true, false} {
					for q := pos; int64(q) < first.Load(); q++ {
						u := order[q]
						if own && u%w != k || !claimed[q].CompareAndSwap(false, true) {
							continue
						}
						if expired() {
							verdicts[q] = verdict{}
						} else {
							before := ws.ScanStats()
							strat, ok := mover(ws, u)
							verdicts[q] = verdict{strat: strat, ok: ok, scan: ws.ScanStats().Sub(before)}
							if !ok {
								continue
							}
						}
						for {
							at := first.Load()
							if int64(q) >= at || first.CompareAndSwap(at, int64(q)) {
								return
							}
						}
					}
				}
			}
			if end-pos == 1 {
				k := order[pos] % w
				sweep(k, f.Worker(k))
			} else {
				f.Each(sweep)
			}
			k := int(first.Load())
			for q := pos; q <= k && q < end; q++ {
				f.FoldScanStats(verdicts[q].scan)
			}
			if k == end {
				pos, window = end, 2*window
				continue
			}
			if !verdicts[k].ok {
				break // the wall clock ran out at position k
			}
			u, strat := order[k], verdicts[k].strat
			f.SetStrategy(u, strat)
			res.Moves++
			moved = true
			if onMove != nil && onMove(u, strat) {
				res.Outcome = CycleDetected
				break rounds
			}
			pos, window = k+1, 1
		}
		if !moved && !cut() {
			res.Outcome = Converged
			break
		}
	}
	f.Join()
	return res
}
