package gncg_test

import (
	"fmt"
	"log"

	"gncg"
)

// Example builds a tiny geometric game on four points in the plane,
// plays exact best-response dynamics from the empty profile, and checks
// the reached state is a Nash equilibrium.
func Example() {
	coords := [][]float64{{0, 0}, {3, 0}, {3, 4}, {0, 4}}
	host, err := gncg.HostFromPoints(coords, 2)
	if err != nil {
		log.Fatal(err)
	}
	g := gncg.NewGame(host, 1)
	s := gncg.NewState(g, gncg.EmptyProfile(g.N()))
	res := gncg.RunBestResponseDynamics(s, 1000)
	fmt.Println("outcome:", res.Outcome)
	fmt.Println("nash:", gncg.IsNashEquilibrium(s))
	// Output:
	// outcome: converged
	// nash: true
}

// ExampleRunToConvergence drives greedy single-edge dynamics with the
// O(1)-overhead convergence engine: no history, no cycle detection,
// deterministic round/move budgets — the configuration behind the
// equilibrium ladder.
func ExampleRunToConvergence() {
	host, err := gncg.HostFromTree(6, []gncg.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 1, V: 3, W: 1},
		{U: 3, V: 4, W: 3}, {U: 4, V: 5, W: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	g := gncg.NewGame(host, 6) // alpha = n: the rewiring-tier regime
	s := gncg.NewState(g, gncg.StarProfile(g.N(), 0))
	res := gncg.RunToConvergence(s, gncg.GreedyMover, gncg.RoundRobinScheduler(),
		gncg.ConvergenceBudget{MaxRounds: 32, MaxMoves: 500})
	fmt.Println("outcome:", res.Outcome)
	fmt.Println("greedy equilibrium:", gncg.IsGreedyEquilibrium(s))
	// Output:
	// outcome: converged
	// greedy equilibrium: true
}

// ExampleVerifyGreedyEquilibrium re-checks a converged run with the
// certified parallel verifier: gain-bound certificates skip provably
// stable agents, workers shard the rest, and the verdict is identical
// for every worker count.
func ExampleVerifyGreedyEquilibrium() {
	host, err := gncg.HostFromPoints([][]float64{
		{0, 0}, {1, 0}, {2, 1}, {0, 2}, {3, 3}, {1, 4}, {4, 0}, {2, 3},
	}, 2)
	if err != nil {
		log.Fatal(err)
	}
	g := gncg.NewGame(host, 64) // large alpha: the star is (near-)stable
	s := gncg.NewState(g, gncg.StarProfile(g.N(), 0))
	res := gncg.RunToConvergence(s, gncg.GreedyMover, gncg.RoundRobinScheduler(),
		gncg.ConvergenceBudget{MaxRounds: 32})
	if res.Outcome != gncg.Converged {
		log.Fatal("did not converge")
	}

	v := gncg.VerifyGreedyEquilibrium(s, gncg.VerifyOptions{Workers: 4, Exact: true})
	fmt.Println("stable:", v.Stable)
	fmt.Println("checked:", v.CertSkipped+v.Scanned == g.N())

	serial := gncg.VerifyGreedyEquilibrium(s, gncg.VerifyOptions{Workers: 1, Exact: true})
	fmt.Println("worker-invariant:", serial.Stable == v.Stable &&
		serial.FirstImproving == v.FirstImproving && serial.CertSkipped == v.CertSkipped)
	// Output:
	// stable: true
	// checked: true
	// worker-invariant: true
}

// ExampleNewGameWithRules sweeps the model axis of the rules layer: the
// same host played under every registered cost model — "sum" (the
// paper's per-unit-weight price, the default), "budget" (edges free
// under a per-agent spend cap) and "unit" (flat price per edge) — with
// greedy dynamics to convergence and the certified verifier on the
// result. Alpha keeps its model-specific meaning, so each model gets a
// comparable regime derived from the host's weight scale.
func ExampleNewGameWithRules() {
	host, err := gncg.HostFromPoints([][]float64{
		{0, 0}, {4, 0}, {4, 3}, {0, 3}, {2, 5}, {6, 1},
	}, 2)
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range gncg.RuleSetNames() {
		r, err := gncg.RulesByName(name)
		if err != nil {
			log.Fatal(err)
		}
		alpha := 2.0
		if name == "budget" {
			alpha = 9 // budget on purchased host weight, not a price
		}
		g := gncg.NewGameWithRules(host, alpha, r)
		s := gncg.NewState(g, gncg.StarProfile(g.N(), 0))
		res := gncg.RunToConvergence(s, gncg.GreedyMover, gncg.RoundRobinScheduler(),
			gncg.ConvergenceBudget{MaxRounds: 32, MaxMoves: 500})
		v := gncg.VerifyGreedyEquilibrium(s, gncg.VerifyOptions{Workers: 2})
		fmt.Printf("%-6s outcome=%s moves=%d stable=%v\n",
			name, res.Outcome, res.Moves, v.Stable)
	}
	// Output:
	// budget outcome=converged moves=10 stable=true
	// sum    outcome=converged moves=8 stable=true
	// unit   outcome=converged moves=8 stable=true
}
