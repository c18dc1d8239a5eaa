package dynamics

import (
	"math"
	"math/rand"
	"testing"

	"gncg/internal/bestresponse"
	"gncg/internal/bitset"
	"gncg/internal/game"
	"gncg/internal/gen"
	"gncg/internal/metric"
)

func pointGame(seed int64, n int, alpha float64) *game.Game {
	return game.New(game.NewHost(gen.Points(seed, n, 2, 10, 2)), alpha)
}

func TestRunConvergesToGreedyEquilibrium(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := pointGame(seed, 8, 1.5)
		s := game.NewState(g, game.EmptyProfile(8))
		res := Run(s, GreedyMover, RoundRobin{}, 10000)
		if res.Outcome == Exhausted {
			t.Fatalf("seed %d: greedy dynamics exhausted budget", seed)
		}
		if res.Outcome == Converged && !s.IsGreedyEquilibrium() {
			t.Fatalf("seed %d: converged state is not a greedy equilibrium", seed)
		}
	}
}

func TestBestResponseDynamicsReachNash(t *testing.T) {
	for seed := int64(10); seed < 13; seed++ {
		g := pointGame(seed, 6, 1)
		s := game.NewState(g, game.EmptyProfile(6))
		res := Run(s, BestResponseMover, RoundRobin{}, 500)
		if res.Outcome == Converged && !bestresponse.IsNash(s) {
			t.Fatalf("seed %d: converged state fails the exact Nash check", seed)
		}
	}
}

func TestAddOnlyDynamicsAlwaysConverge(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		n := 7
		g := pointGame(seed, n, 0.8)
		s := game.NewState(g, game.StarProfile(n, 0))
		res := RunToConvergence(s, AddOnlyMover, RoundRobin{}, Budget{})
		if res.Outcome != Converged {
			t.Fatalf("seed %d: add-only dynamics did not converge: %v", seed, res.Outcome)
		}
		if !s.IsAddOnlyEquilibrium() {
			t.Fatalf("seed %d: result is not an add-only equilibrium", seed)
		}
	}
}

// TestAddOnlyYieldsAlphaPlus1GE verifies Thm 2 on computed AE networks:
// every AE is an (α+1)-approximate greedy equilibrium.
func TestAddOnlyYieldsAlphaPlus1GE(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		alpha := 0.5 + float64(seed)*0.5
		g := pointGame(seed+100, 7, alpha)
		s := game.NewState(g, game.StarProfile(7, 0))
		RunToConvergence(s, AddOnlyMover, RoundRobin{}, Budget{})
		if f := s.GreedyApproxFactor(); f > alpha+1+1e-6 {
			t.Fatalf("seed %d alpha %v: AE has greedy factor %v > alpha+1", seed, alpha, f)
		}
	}
}

// TestAddOnlyYields3Alpha1NE verifies Cor. 2 on computed AE networks:
// every AE is a 3(α+1)-approximate Nash equilibrium.
func TestAddOnlyYields3Alpha1NE(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		alpha := 0.5 + float64(seed)*0.7
		g := pointGame(seed+200, 7, alpha)
		s := game.NewState(g, game.StarProfile(7, 0))
		RunToConvergence(s, AddOnlyMover, RoundRobin{}, Budget{})
		if f := bestresponse.NashApproxFactor(s); f > 3*(alpha+1)+1e-6 {
			t.Fatalf("seed %d alpha %v: AE has Nash factor %v > 3(alpha+1)=%v",
				seed, alpha, f, 3*(alpha+1))
		}
	}
}

func TestMoversReportNoImprovementAtEquilibrium(t *testing.T) {
	// Unit star at alpha=2 is an NE; all movers must decline to move.
	n := 5
	g := game.New(game.NewHost(metric.Unit{N: n}), 2)
	p := game.EmptyProfile(n)
	for v := 1; v < n; v++ {
		p.Buy(0, v)
	}
	s := game.NewState(g, p)
	for name, mover := range map[string]Mover{
		"best-response": BestResponseMover,
		"greedy":        GreedyMover,
		"add-only":      AddOnlyMover,
		"approx-br":     ApproxBRMover,
	} {
		if _, ok := mover(s, 1); ok {
			t.Errorf("%s mover moved at an equilibrium", name)
		}
	}
}

func TestRunDetectsPlantedCycle(t *testing.T) {
	// Force a cycle with a synthetic mover that alternates agent 0
	// between two strategies regardless of cost. The alternation is read
	// off agent 0's current strategy, so the mover is a pure function of
	// (state, agent), as the Mover contract requires.
	g := game.New(game.NewHost(metric.Unit{N: 3}), 0.1)
	p := game.EmptyProfile(3)
	p.Buy(1, 0)
	p.Buy(1, 2)
	s := game.NewState(g, p)
	mover := func(st *game.State, u int) (bitset.Set, bool) {
		if u != 0 {
			return bitset.Set{}, false
		}
		b := st.P.S[0].Clone()
		b.Clear()
		if !st.P.S[0].Has(2) {
			b.Add(2)
		}
		return b, true
	}
	res := Run(s, mover, RoundRobin{}, 100)
	if res.Outcome != CycleDetected {
		t.Fatalf("planted cycle not detected: %v", res.Outcome)
	}
	if res.CycleLen == 0 || res.CycleLen%2 != 0 {
		t.Fatalf("cycle length = %d, want even > 0", res.CycleLen)
	}
}

func TestSchedulers(t *testing.T) {
	rr := RoundRobin{}.Order(3, 4)
	for i, v := range rr {
		if v != i {
			t.Fatalf("round robin order %v", rr)
		}
	}
	ro := RandomOrder{Rng: rand.New(rand.NewSource(1))}.Order(1, 10)
	seen := map[int]bool{}
	for _, v := range ro {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("random order is not a permutation: %v", ro)
	}
}

// TestVerifyCycleRejectsBogusWitness: a witness whose moves don't improve
// must fail verification.
func TestVerifyCycleRejectsBogusWitness(t *testing.T) {
	g := game.New(game.NewHost(metric.Unit{N: 3}), 1)
	p := game.EmptyProfile(3)
	p.Buy(0, 1)
	p.Buy(1, 2)
	w := CycleWitness{
		Initial:    p,
		Moves:      []Trace{{Agent: 0, Strategy: []int{1, 2}}, {Agent: 0, Strategy: []int{1}}},
		CycleStart: 0,
		CycleLen:   2,
	}
	if VerifyCycle(g, w) {
		t.Fatal("bogus witness accepted")
	}
}

func TestCostNeverIncreasesUnderDynamics(t *testing.T) {
	// Each applied move must strictly lower the mover's cost (the run's
	// fundamental invariant, checked here against a recorded history).
	g := pointGame(77, 7, 1.2)
	s := game.NewState(g, game.EmptyProfile(7))
	initial := s.P.Clone()
	res := Run(s, GreedyMover, RoundRobin{}, 5000)
	if res.Outcome == Exhausted {
		t.Skip("budget exhausted; invariant replay not meaningful")
	}
	replay := game.NewState(g, initial)
	for i, tr := range res.History {
		before := replay.Cost(tr.Agent)
		strat := replay.P.S[tr.Agent].Clone()
		strat.Clear()
		for _, v := range tr.Strategy {
			strat.Add(v)
		}
		replay.SetStrategy(tr.Agent, strat)
		if !g.Improves(replay.Cost(tr.Agent), before) {
			t.Fatalf("move %d did not improve agent %d", i, tr.Agent)
		}
	}
}

// TestTreeMetricEquilibriaAreTrees spot-checks Thm 12: stable networks
// reached by best-response dynamics on tree metrics are trees.
func TestTreeMetricEquilibriaAreTrees(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		tm := gen.Tree(seed, 7, 1, 5)
		g := game.New(game.NewHost(tm), 1.5)
		s := game.NewState(g, game.EmptyProfile(7))
		res := Run(s, BestResponseMover, RoundRobin{}, 300)
		if res.Outcome != Converged {
			continue // cycles are possible (Thm 14); only converged runs assert
		}
		if !bestresponse.IsNash(s) {
			t.Fatalf("seed %d: converged but not Nash", seed)
		}
		if !s.Network().IsTree() {
			t.Fatalf("seed %d: NE on tree metric is not a tree (violates Thm 12)", seed)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	if Converged.String() != "converged" || CycleDetected.String() != "cycle" || Exhausted.String() != "exhausted" {
		t.Fatal("outcome names wrong")
	}
	if math.IsNaN(0) { // keep math import honest
		t.Fatal("unreachable")
	}
}
