package gncg

import (
	"math"
	"testing"
)

func TestRunToConvergenceFacade(t *testing.T) {
	host, err := HostFromPoints([][]float64{{0, 0}, {9, 0}, {0, 7}, {6, 6}, {3, 1}, {8, 3}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGame(host, 1.5)
	s := NewState(g, StarProfile(g.N(), 0))
	res := RunToConvergence(s, GreedyMover, RoundRobinScheduler(), ConvergenceBudget{MaxRounds: 100})
	if res.Outcome != Converged {
		t.Fatalf("6-agent greedy dynamics did not converge: %+v", res)
	}
	if res.SocialCost != s.SocialCost() {
		t.Fatalf("recorded social cost %v != state's %v", res.SocialCost, s.SocialCost())
	}
	lb := SocialOptimumLowerBound(g)
	if poa := res.PoA(lb); poa < 1-1e-9 || math.IsInf(poa, 1) {
		t.Fatalf("PoA vs certified lower bound: %v", poa)
	}
	// The generic entry point; a converged state stays converged (the
	// single scanning round finds no improving move).
	res = RunToConvergence(s, GreedyMover, RoundRobinScheduler(), ConvergenceBudget{})
	if res.Outcome != Converged || res.Moves != 0 {
		t.Fatalf("re-run on converged state: %+v", res)
	}
}

func TestRemainingFacadeSurface(t *testing.T) {
	if !math.IsInf(Inf(), 1) {
		t.Fatal("Inf() must be +Inf")
	}
	if RoundRobinScheduler() == nil {
		t.Fatal("nil scheduler")
	}

	host, err := HostFromPoints([][]float64{{0}, {2}, {5}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m := DensifyHost(host); m[0][1] != host.Weight(0, 1) || &m[0][0] != &host.Matrix()[0][0] {
		t.Fatal("DensifyHost must return the host's shared memoized dense view")
	}
	g := NewGame(host, 1)
	p := ProfileFromEdgeSet(3, []Edge{{U: 0, V: 1}, {U: 2, V: 1}})
	if !p.Buys(0, 1) || !p.Buys(1, 2) || p.Buys(2, 1) {
		t.Fatal("ProfileFromEdgeSet ownership rule wrong (lower endpoint buys)")
	}
	s := NewState(g, p)
	res := RunDynamics(s, GreedyMover, RoundRobinScheduler(), 1000)
	if res.Outcome == Exhausted {
		t.Fatalf("greedy dynamics exhausted on 3 agents")
	}

	// FIP witness verification through the facade.
	tree, err := HostFromTree(4, []Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 9}, {U: 0, V: 3, W: 4}})
	if err != nil {
		t.Fatal(err)
	}
	tg := NewGame(tree, 1)
	if w, has, err := ExhaustiveFIPCheck(tg); err != nil {
		t.Fatal(err)
	} else if has && !VerifyFIPWitness(tg, w) {
		t.Fatal("facade witness verification failed")
	}
}

func TestHostConstructorErrorPaths(t *testing.T) {
	if _, err := HostFromTree(3, []Edge{{U: 0, V: 1, W: 1}}); err == nil {
		t.Error("bad tree accepted")
	}
	if _, err := HostFromOneTwo(3, [][2]int{{0, 5}}); err == nil {
		t.Error("bad 1-2 edge accepted")
	}
	if _, err := HostFromOneInf(3, [][2]int{{2, 2}}); err == nil {
		t.Error("self-loop 1-inf edge accepted")
	}
	if _, err := NewSetCoverTreeGadget(2, [][]int{{0}}, 100, 0.001, 1); err == nil {
		t.Error("uncoverable tree gadget accepted")
	}
	if _, err := NewSetCoverTreeGadget(2, [][]int{{0, 1}}, 100, 0.9, 1); err == nil {
		t.Error("beta <= k*eps tree gadget accepted")
	}
	if _, err := NewVertexCoverGadget(3, [][2]int{{0, 9}}); err == nil {
		t.Error("out-of-range VC edge accepted")
	}
}

func TestUnmarshalEdgeCases(t *testing.T) {
	// "Inf" alternative spelling and numeric weights both parse.
	data := []byte(`{"alpha":1,"weights":[[0,"Inf"],["Inf",0]]}`)
	g, _, err := UnmarshalInstance(data)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(g.Host.Weight(0, 1), 1) {
		t.Fatal("'Inf' spelling not parsed")
	}
	// Owned edges out of range must fail.
	bad := []byte(`{"alpha":1,"weights":[[0,1],[1,0]],"owned":[[0,5]]}`)
	if _, _, err := UnmarshalInstance(bad); err == nil {
		t.Fatal("out-of-range owned edge accepted")
	}
}

func TestTrafficJSONRoundTrip(t *testing.T) {
	host, err := HostFromPoints([][]float64{{0}, {1}, {4}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGame(host, 1)
	tr := [][]float64{{0, 2, 0}, {1, 0, 3}, {0.5, 1, 0}}
	if err := g.SetTraffic(tr); err != nil {
		t.Fatal(err)
	}
	data, err := MarshalInstance(g, EmptyProfile(3))
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := UnmarshalInstance(data)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.HasTraffic() || g2.Traffic(0, 1) != 2 || g2.Traffic(1, 2) != 3 {
		t.Fatal("traffic lost in round trip")
	}
	// Invalid traffic in JSON must be rejected.
	bad := []byte(`{"alpha":1,"weights":[[0,1],[1,0]],"traffic":[[0,-1],[1,0]]}`)
	if _, _, err := UnmarshalInstance(bad); err == nil {
		t.Fatal("negative traffic accepted via JSON")
	}
}
