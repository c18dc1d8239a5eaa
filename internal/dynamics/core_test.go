package dynamics

import (
	"fmt"
	"math/rand"
	"testing"

	"gncg/internal/bitset"
	"gncg/internal/game"
	"gncg/internal/gen"
	"gncg/internal/metric"
)

// TestRunMatchesRunToConvergence: Run is RunToConvergence's activation
// loop plus a recorder, so on runs without a recurrence the two agree on
// outcome, rounds, moves and the final profile bit for bit — including
// move budgets that run out in the middle of a later round.
func TestRunMatchesRunToConvergence(t *testing.T) {
	const n = 9
	hosts := map[string]*game.Host{
		"points": game.NewHost(gen.Points(3, n, 2, 10, 2)),
		"tree":   game.NewHost(gen.Tree(3, n, 1, 5)),
		"unit":   game.NewHost(metric.Unit{N: n}),
	}
	scheds := map[string]func() Scheduler{
		"rr":     func() Scheduler { return RoundRobin{} },
		"random": func() Scheduler { return RandomOrder{Rng: rand.New(rand.NewSource(5))} },
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	start := game.PathProfile(n, order)
	exhausted := 0
	for hostName, h := range hosts {
		g := game.New(h, 1.5)
		for schedName, sched := range scheds {
			for _, budget := range []int{1, 5, 11, 10000} {
				name := fmt.Sprintf("%s/%s/budget=%d", hostName, schedName, budget)
				a := game.NewState(g, start.Clone())
				b := game.NewState(g, start.Clone())
				run := Run(a, GreedyMover, sched(), budget)
				conv := RunToConvergence(b, GreedyMover, sched(), Budget{MaxMoves: budget})
				if run.Outcome == CycleDetected {
					t.Fatalf("%s: unexpected cycle; pick a converging instance", name)
				}
				if run.Outcome != conv.Outcome || run.Rounds != conv.Rounds || run.Moves != conv.Moves {
					t.Fatalf("%s: Run %v/%d rounds/%d moves, RunToConvergence %v/%d rounds/%d moves",
						name, run.Outcome, run.Rounds, run.Moves, conv.Outcome, conv.Rounds, conv.Moves)
				}
				if !a.P.Equal(b.P) {
					t.Fatalf("%s: final profiles differ", name)
				}
				if run.Outcome == Exhausted && run.Rounds > 1 {
					exhausted++
				}
			}
		}
	}
	if exhausted == 0 {
		t.Fatal("no budget ran out after the first round")
	}
}

// TestRunCycleCensusCell pins the cycle_census quick cell n = 100,
// α = 100, round-robin from the index-order path: greedy dynamics on the
// seed-13 ℓ2 cloud revisit a profile after move 215, closing a 4-move
// improving cycle that starts after move 211.
func TestRunCycleCensusCell(t *testing.T) {
	const n = 100
	g := game.New(game.NewHost(gen.Points(13, n, 2, 1000, 2)), 100)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	start := game.PathProfile(n, order)
	res := Run(game.NewState(g, start.Clone()), GreedyMover, RoundRobin{}, 40*n)
	if res.Outcome != CycleDetected || res.Moves != 215 || res.CycleStart != 211 || res.CycleLen != 4 {
		t.Fatalf("got %v at move %d (start %d, len %d), want cycle at move 215 (start 211, len 4)",
			res.Outcome, res.Moves, res.CycleStart, res.CycleLen)
	}
	w := CycleWitness{Initial: start, Moves: res.History, CycleStart: res.CycleStart, CycleLen: res.CycleLen}
	if !VerifyCycle(g, w) {
		t.Fatal("census cycle failed verification")
	}
}

// TestProfileSpaceReplace: at n = 3, every unilateral deviation
// Replace(idx, u, alt) decodes to idx's profile with only agent u's
// strategy changed, to StrategySet(n, u, alt); and the cost table holds
// each profile's agent costs.
func TestProfileSpaceReplace(t *testing.T) {
	g := game.New(game.NewHost(gen.Points(1, 3, 2, 10, 2)), 1)
	ps, err := NewProfileSpace(g)
	if err != nil {
		t.Fatal(err)
	}
	if ps.N != 3 || ps.PerAgent != 4 || ps.Total != 64 || len(ps.Costs) != 64 {
		t.Fatalf("space %d agents, %d per agent, %d total, %d cost rows", ps.N, ps.PerAgent, ps.Total, len(ps.Costs))
	}
	for idx := 0; idx < ps.Total; idx++ {
		p := ps.Profile(idx)
		s := game.NewState(g, p.Clone())
		for u := 0; u < ps.N; u++ {
			if got, want := ps.Costs[idx][u], s.Cost(u); got != want {
				t.Fatalf("idx %d agent %d: cost %v, want %v", idx, u, got, want)
			}
			for alt := 0; alt < ps.PerAgent; alt++ {
				q := ps.Profile(ps.Replace(idx, u, alt))
				for v := 0; v < ps.N; v++ {
					want := p.S[v]
					if v == u {
						want = StrategySet(ps.N, u, alt)
					}
					if !q.S[v].Equal(want) {
						t.Fatalf("idx %d: agent %d -> %d changed agent %d's strategy to %v", idx, u, alt, v, q.S[v].Elems())
					}
				}
			}
		}
	}
}

// TestVerifyRejectsMalformedWitnesses: both witness verifiers are
// public, so a malformed witness must be rejected, never panic. Each row
// corrupts one field of a genuine Thm 14 cycle.
func TestVerifyRejectsMalformedWitnesses(t *testing.T) {
	g := game.New(game.NewHost(gen.Tree(2, 4, 1, 12)), 1.5)
	fip, has, err := ExhaustiveFIP(g)
	if err != nil || !has {
		t.Fatalf("no cycle on the seed-2 tree at alpha 1.5 (err %v)", err)
	}
	fipCopy := func() *FIPWitness {
		w := &FIPWitness{Agents: append([]int(nil), fip.Agents...)}
		for _, p := range fip.Profiles {
			w.Profiles = append(w.Profiles, p.Clone())
		}
		return w
	}
	cycleCopy := func() CycleWitness {
		w := CycleWitness{Initial: fip.Profiles[0].Clone(), CycleLen: len(fip.Agents)}
		for i, u := range fip.Agents {
			w.Moves = append(w.Moves, Trace{Agent: u, Strategy: fip.Profiles[i+1].S[u].Elems()})
		}
		return w
	}
	wrongUniverse := func(p game.Profile) { p.S[0] = bitset.New(9) }

	cycleRows := []struct {
		name    string
		corrupt func(w *CycleWitness)
	}{
		{"negative cycle start", func(w *CycleWitness) { w.CycleStart = -1 }},
		{"cycle past the history", func(w *CycleWitness) { w.CycleLen++ }},
		{"zero cycle length", func(w *CycleWitness) { w.CycleLen = 0 }},
		{"agent above n", func(w *CycleWitness) { w.Moves[0].Agent = 4 }},
		{"negative agent", func(w *CycleWitness) { w.Moves[1].Agent = -1 }},
		{"strategy element above n", func(w *CycleWitness) { w.Moves[0].Strategy = append(w.Moves[0].Strategy, 4) }},
		{"negative strategy element", func(w *CycleWitness) { w.Moves[0].Strategy = append(w.Moves[0].Strategy, -1) }},
		{"self purchase", func(w *CycleWitness) {
			w.Moves[0].Strategy = append(w.Moves[0].Strategy, w.Moves[0].Agent)
		}},
		{"initial profile of another size", func(w *CycleWitness) { w.Initial = game.EmptyProfile(5) }},
		{"initial strategy over another universe", func(w *CycleWitness) { wrongUniverse(w.Initial) }},
	}
	if !VerifyCycle(g, cycleCopy()) {
		t.Fatal("genuine cycle witness rejected")
	}
	for _, r := range cycleRows {
		w := cycleCopy()
		r.corrupt(&w)
		if VerifyCycle(g, w) {
			t.Errorf("VerifyCycle accepted a witness with a %s", r.name)
		}
	}

	fipRows := []struct {
		name    string
		corrupt func(w *FIPWitness)
	}{
		{"agent above n", func(w *FIPWitness) { w.Agents[0] = 4 }},
		{"negative agent", func(w *FIPWitness) { w.Agents[1] = -1 }},
		{"profile of another size", func(w *FIPWitness) { w.Profiles[1] = game.EmptyProfile(5) }},
		{"strategy over another universe", func(w *FIPWitness) { wrongUniverse(w.Profiles[2]) }},
		{"self purchase", func(w *FIPWitness) { w.Profiles[1].S[2].Add(2) }},
	}
	if !VerifyFIPWitness(g, fipCopy()) {
		t.Fatal("genuine FIP witness rejected")
	}
	if VerifyFIPWitness(g, nil) {
		t.Error("VerifyFIPWitness accepted a nil witness")
	}
	for _, r := range fipRows {
		w := fipCopy()
		r.corrupt(w)
		if VerifyFIPWitness(g, w) {
			t.Errorf("VerifyFIPWitness accepted a witness with a %s", r.name)
		}
	}
}
