package gncg

import (
	"math"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	host, err := HostFromPoints([][]float64{{0, 0}, {3, 0}, {0, 4}, {3, 4}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGame(host, 1.5)
	s := NewState(g, EmptyProfile(g.N()))
	res := RunBestResponseDynamics(s, 1000)
	if res.Outcome != Converged {
		t.Fatalf("dynamics outcome %v", res.Outcome)
	}
	if !IsNashEquilibrium(s) {
		t.Fatal("converged best-response dynamics must reach a Nash equilibrium")
	}
	if math.IsInf(s.SocialCost(), 1) {
		t.Fatal("equilibrium disconnected")
	}
	if NashApproxFactor(s) != 1 {
		t.Fatal("NE must have approximation factor 1")
	}
}

func TestHostConstructors(t *testing.T) {
	if _, err := HostFromPoints([][]float64{{0}, {1, 2}}, 2); err == nil {
		t.Error("ragged points accepted")
	}
	tree, err := HostFromTree(3, []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Weight(0, 2) != 3 {
		t.Errorf("tree closure weight = %v", tree.Weight(0, 2))
	}
	ot, err := HostFromOneTwo(3, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if ClassifyHost(ot, 1e-9) != ClassOneTwo {
		t.Error("1-2 host misclassified")
	}
	oi, err := HostFromOneInf(3, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if ClassifyHost(oi, 1e-9) != ClassOneInf {
		t.Error("1-inf host misclassified")
	}
	if ClassifyHost(UnitHost(4), 1e-9) != ClassNCG {
		t.Error("unit host misclassified")
	}
	if !IsMetricHost(tree, 1e-9) {
		t.Error("tree host must be metric")
	}
	if IsMetricHost(oi, 1e-9) {
		t.Error("1-inf host must not be metric")
	}
}

func TestSolverFacade(t *testing.T) {
	host := UnitHost(5)
	g := NewGame(host, 2)
	s := NewState(g, StarProfile(5, 0))
	br := ExactBestResponse(s, 1)
	if g.Improves(br.Cost, s.Cost(1)) {
		t.Fatal("leaf of a unit star at alpha=2 should have no improving response")
	}
	approx := ApproxBestResponse(s, 1)
	if approx.Cost < br.Cost-1e-9 {
		t.Fatal("approximate response beat the exact one")
	}
	if !IsGreedyEquilibrium(s) || !IsAddOnlyEquilibrium(s) {
		t.Fatal("unit star at alpha=2 must be GE and AE")
	}
	if GreedyApproxFactor(s) != 1 {
		t.Fatal("GE state must have greedy factor 1")
	}
	if f := Stretch(s); f != 2 {
		t.Fatalf("unit star stretch %v, want 2", f)
	}
	if !IsKSpanner(s, 2) || IsKSpanner(s, 1.5) {
		t.Fatal("spanner check wrong")
	}
}

func TestOptimumFacade(t *testing.T) {
	host, _ := HostFromPoints([][]float64{{0}, {1}, {2}, {5}}, 2)
	g := NewGame(host, 2)
	exact, err := SocialOptimumExact(g)
	if err != nil {
		t.Fatal(err)
	}
	heur := SocialOptimumHeuristic(g)
	lb := SocialOptimumLowerBound(g)
	if exact.Cost < lb-1e-9 || heur.Cost < exact.Cost-1e-9 {
		t.Fatalf("bounds out of order: lb %v exact %v heur %v", lb, exact.Cost, heur.Cost)
	}
	ot, _ := HostFromOneTwo(4, [][2]int{{0, 1}, {1, 2}})
	alg, err := Algorithm1(ot)
	if err != nil {
		t.Fatal(err)
	}
	evaluated := EvaluateCandidate(NewGame(ot, 0.5), alg)
	if math.IsNaN(evaluated.Cost) || math.IsInf(evaluated.Cost, 1) {
		t.Fatalf("Algorithm1 candidate cost %v", evaluated.Cost)
	}
}

func TestConstructionFacade(t *testing.T) {
	for _, build := range []func() (*LowerBoundConstruction, error){
		func() (*LowerBoundConstruction, error) { return Thm15Star(6, 2) },
		func() (*LowerBoundConstruction, error) { return Thm19CrossPolytope(2, 1) },
		func() (*LowerBoundConstruction, error) { return Thm18FourPoint(3) },
		func() (*LowerBoundConstruction, error) { return Thm20Triangle(2) },
		func() (*LowerBoundConstruction, error) { return Thm8AlphaOne(2) },
		func() (*LowerBoundConstruction, error) { return Thm8HalfToOne(2, 0.6) },
	} {
		lb, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if lb.Ratio() <= 0 || math.IsNaN(lb.Ratio()) {
			t.Fatalf("%s: ratio %v", lb.Name, lb.Ratio())
		}
	}
}

func TestExhaustiveFIPFacade(t *testing.T) {
	tree, err := HostFromTree(4, []Edge{{U: 0, V: 1, W: 3}, {U: 0, V: 2, W: 7}, {U: 1, V: 3, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGame(tree, 1)
	w, has, err := ExhaustiveFIPCheck(g)
	if err != nil {
		t.Fatal(err)
	}
	if has && !VerifyFIPWitness(g, w) {
		t.Fatal("reported witness failed verification")
	}
}

func TestInstanceJSONRoundTrip(t *testing.T) {
	host, _ := HostFromOneInf(3, [][2]int{{0, 1}, {1, 2}})
	g := NewGame(host, 1.5)
	p := EmptyProfile(3)
	p.Buy(0, 1)
	p.Buy(2, 1)
	data, err := MarshalInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	g2, p2, err := UnmarshalInstance(data)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Alpha != 1.5 || g2.N() != 3 {
		t.Fatalf("round trip lost game parameters: alpha %v n %d", g2.Alpha, g2.N())
	}
	if !math.IsInf(g2.Host.Weight(0, 2), 1) {
		t.Fatal("inf weight lost in round trip")
	}
	if !p2.Equal(p) {
		t.Fatal("profile lost in round trip")
	}
}

func TestUnmarshalRejectsBadInput(t *testing.T) {
	if _, _, err := UnmarshalInstance([]byte(`{"alpha":0,"weights":[[0]]}`)); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, _, err := UnmarshalInstance([]byte(`{"alpha":1,"weights":[[0,1]]}`)); err == nil {
		t.Error("ragged weights accepted")
	}
	if _, _, err := UnmarshalInstance([]byte(`{"alpha":1,"weights":[[0,"nope"],["nope",0]]}`)); err == nil {
		t.Error("bad weight string accepted")
	}
	if _, _, err := UnmarshalInstance([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestValidate(t *testing.T) {
	g := NewGame(UnitHost(3), 1)
	if err := Validate(g, EmptyProfile(4)); err == nil {
		t.Error("size mismatch accepted")
	}
	if err := Validate(g, EmptyProfile(3)); err != nil {
		t.Error(err)
	}
}

func TestCustomDynamicsFacade(t *testing.T) {
	host, _ := HostFromPoints([][]float64{{0}, {1}, {3}, {6}}, 2)
	g := NewGame(host, 1)
	s := NewState(g, PathProfile(4, []int{0, 1, 2, 3}))
	res := RunDynamics(s, GreedyMover, RandomScheduler(1), 1000)
	if res.Outcome == Exhausted {
		t.Fatal("tiny instance exhausted the budget")
	}
	s2 := NewState(g, StarProfile(4, 0))
	if r := RunToConvergence(s2, AddOnlyMover, RoundRobinScheduler(), ConvergenceBudget{}); r.Outcome != Converged {
		t.Fatalf("add-only outcome %v", r.Outcome)
	}
	s3 := NewState(g, EmptyProfile(4))
	if r := RunDynamics(s3, BestResponseMover, RandomScheduler(42), 500); r.Outcome == Exhausted {
		t.Fatal("random-order BR dynamics exhausted on tiny instance")
	}
}

func TestTrafficExtensionViaFacade(t *testing.T) {
	// The traffic-weighted extension (Albers-et-al-style demands) is
	// available on the public Game type directly.
	host, err := HostFromPoints([][]float64{{0}, {1}, {4}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGame(host, 1)
	if err := g.SetTraffic([][]float64{
		{0, 10, 0},
		{1, 0, 1},
		{1, 1, 0},
	}); err != nil {
		t.Fatal(err)
	}
	s := NewState(g, EmptyProfile(3))
	res := RunBestResponseDynamics(s, 100)
	if res.Outcome != Converged {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if !IsNashEquilibrium(s) {
		t.Fatal("traffic-weighted dynamics did not reach an NE")
	}
	// Agent 0 has zero demand towards 2; its cost only counts node 1.
	if s.Cost(0) > g.Alpha*host.Weight(0, 1)+10*host.Weight(0, 1)+1e-9 {
		t.Fatalf("agent 0 cost %v too high for its demand profile", s.Cost(0))
	}
}
