package dynamics

import (
	"testing"
	"time"

	"gncg/internal/bitset"
	"gncg/internal/game"
	"gncg/internal/metric"
	"gncg/internal/opt"
)

func unitSpace(n int) metric.Unit { return metric.Unit{N: n} }

func TestRunToConvergenceReachesGreedyEquilibrium(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := pointGame(seed, 10, 1.5)
		s := game.NewState(g, game.StarProfile(10, 0))
		res := RunToConvergence(s, GreedyMover, RoundRobin{}, Budget{})
		if res.Outcome != Converged {
			t.Fatalf("seed %d: unlimited budget did not converge: %+v", seed, res)
		}
		if !s.IsGreedyEquilibrium() {
			t.Fatalf("seed %d: converged state is not a greedy equilibrium", seed)
		}
		if res.SocialCost != s.SocialCost() {
			t.Fatalf("seed %d: recorded social cost %v != state's %v", seed, res.SocialCost, s.SocialCost())
		}
		if res.Moves < 0 || res.Rounds < 1 {
			t.Fatalf("seed %d: implausible counters %+v", seed, res)
		}
		lb := opt.LowerBound(g)
		if poa := res.PoA(lb); poa < 1-1e-9 {
			t.Fatalf("seed %d: PoA vs certified lower bound is %v < 1", seed, poa)
		}
	}
}

func TestRunToConvergenceAlreadyAtEquilibrium(t *testing.T) {
	// A star on a unit host with alpha > 1 is a greedy equilibrium; the
	// run must confirm it in one scanning round with zero moves.
	g := game.New(game.NewHost(unitSpace(8)), 4)
	s := game.NewState(g, game.StarProfile(8, 0))
	res := RunToConvergence(s, GreedyMover, RoundRobin{}, Budget{})
	if res.Outcome != Converged || res.Moves != 0 || res.Rounds != 1 {
		t.Fatalf("equilibrium start: %+v, want Converged after 1 round, 0 moves", res)
	}
}

func TestRunToConvergenceBudgets(t *testing.T) {
	mk := func(seed int64) *game.State {
		return game.NewState(pointGame(seed, 10, 0.8), game.StarProfile(10, 0))
	}
	// MaxMoves binds exactly.
	res := RunToConvergence(mk(1), GreedyMover, RoundRobin{}, Budget{MaxMoves: 3})
	if res.Outcome != Exhausted || res.Moves != 3 {
		t.Fatalf("MaxMoves=3: %+v", res)
	}
	// MaxRounds binds.
	res = RunToConvergence(mk(1), GreedyMover, RoundRobin{}, Budget{MaxRounds: 1})
	if res.Outcome != Exhausted || res.Rounds != 1 {
		t.Fatalf("MaxRounds=1: %+v", res)
	}
	// Identical deterministic budgets stop at identical states.
	a, b := mk(2), mk(2)
	ra := RunToConvergence(a, GreedyMover, RoundRobin{}, Budget{MaxMoves: 5})
	rb := RunToConvergence(b, GreedyMover, RoundRobin{}, Budget{MaxMoves: 5})
	if ra.Moves != rb.Moves || ra.Rounds != rb.Rounds || ra.SocialCost != rb.SocialCost {
		t.Fatalf("deterministic budget diverged: %+v vs %+v", ra, rb)
	}
	if !a.P.Equal(b.P) {
		t.Fatal("deterministic budget produced different profiles")
	}
	// An elapsed wall clock cuts the run before any move.
	res = RunToConvergence(mk(3), GreedyMover, RoundRobin{}, Budget{WallClock: time.Nanosecond})
	if res.Outcome != Exhausted || res.Moves != 0 {
		t.Fatalf("WallClock=1ns: %+v", res)
	}
}

// --- dynamics.Run edge-case regression corpus ---

func TestRunZeroMoveBudget(t *testing.T) {
	s := game.NewState(pointGame(4, 6, 1), game.EmptyProfile(6))
	res := Run(s, GreedyMover, RoundRobin{}, 0)
	if res.Outcome != Exhausted || res.Moves != 0 || res.Rounds != 0 || len(res.History) != 0 {
		t.Fatalf("maxMoves=0: %+v, want immediate Exhausted with empty history", res)
	}
}

func TestRunAlreadyAtEquilibriumStart(t *testing.T) {
	g := game.New(game.NewHost(unitSpace(6)), 4)
	s := game.NewState(g, game.StarProfile(6, 0))
	res := Run(s, GreedyMover, RoundRobin{}, 100)
	if res.Outcome != Converged || res.Moves != 0 || res.Rounds != 1 {
		t.Fatalf("equilibrium start: %+v, want Converged after 1 scanning round", res)
	}
}

// staleMover reproduces the stale best-response pattern a batching
// scheduler yields: every agent's response is computed once, against
// the start state, and served whenever the agent activates — after
// other agents have moved, so the served response may be stale. A stale
// response that still strictly improves against the current state is
// applied as is (a legal, merely suboptimal move); one that no longer
// improves is discarded and the agent recomputes fresh, so a full round
// without moves still certifies a genuine equilibrium. The batch is
// built before the run and only read during it, so the mover is a pure
// function of (s, u), as the Mover contract requires.
type staleMover struct {
	inner Mover
	batch map[int]bitset.Set
}

func newStaleMover(inner Mover, s *game.State) staleMover {
	m := staleMover{inner: inner, batch: map[int]bitset.Set{}}
	for v := 0; v < s.G.N(); v++ {
		if strat, ok := inner(s, v); ok {
			m.batch[v] = strat
		}
	}
	return m
}

func (m staleMover) move(s *game.State, u int) (bitset.Set, bool) {
	if cached, ok := m.batch[u]; ok && !cached.Equal(s.P.S[u]) {
		c := s.Clone()
		cur := c.Cost(u)
		c.SetStrategy(u, cached)
		if s.G.Improves(c.Cost(u), cur) {
			return cached, true
		}
	}
	return m.inner(s, u)
}

// TestRunStaleBestResponseAfterConcurrentMove is the deterministic
// regression corpus for the stale-response interleaving: a scheduler
// round activates every agent, later agents' cached responses having
// been computed before earlier agents moved. Run must stay well-defined:
// every applied move matched the documented mover contract (strictly
// improving at application time), the cost ledger never increases, and
// the run terminates (converged or exhausted, never a panic or a bogus
// cycle report).
func TestRunStaleBestResponseAfterConcurrentMove(t *testing.T) {
	staleApplied := 0
	for seed := int64(0); seed < 6; seed++ {
		g := pointGame(100+seed, 8, 1.2)
		s := game.NewState(g, game.StarProfile(8, int(seed)%8))
		sm := newStaleMover(GreedyMover, s)
		res := Run(s, sm.move, RoundRobin{}, 5000)
		for i, tr := range res.History {
			// A batched response applied after an earlier move was
			// computed against a state that no longer holds.
			if cached, ok := sm.batch[tr.Agent]; ok && i > 0 && cached.Equal(bitset.FromSlice(8, tr.Strategy)) {
				staleApplied++
			}
		}
		if res.Outcome == Exhausted {
			t.Fatalf("seed %d: stale dynamics exhausted the budget", seed)
		}
		// Replay the recorded history on a fresh state: every applied
		// move must have strictly improved its mover at application time.
		replay := game.NewState(g, game.StarProfile(8, int(seed)%8))
		for i, tr := range res.History {
			before := replay.Cost(tr.Agent)
			replay.SetStrategy(tr.Agent, bitset.FromSlice(8, tr.Strategy))
			if after := replay.Cost(tr.Agent); !g.Improves(after, before) {
				t.Fatalf("seed %d: history move %d did not improve its mover (%v -> %v)",
					seed, i, before, after)
			}
		}
		if !replay.P.Equal(s.P) {
			t.Fatalf("seed %d: history replay diverged from final state", seed)
		}
		if res.Outcome == Converged && !s.IsGreedyEquilibrium() {
			t.Fatalf("seed %d: converged stale dynamics left an improving move", seed)
		}
	}
	if staleApplied == 0 {
		t.Fatal("corpus never exercised the stale-application path; scenario is vacuous")
	}
}
