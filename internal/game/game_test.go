package game

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gncg/internal/bitset"
	"gncg/internal/graph"
	"gncg/internal/metric"
)

func unitGame(n int, alpha float64) *Game {
	return New(NewHost(metric.Unit{N: n}), alpha)
}

func randomMetricGame(rng *rand.Rand, n int, alpha float64) *Game {
	coords := make([][]float64, n)
	for i := range coords {
		coords[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	pts, err := metric.NewPoints(coords, 2)
	if err != nil {
		panic(err)
	}
	return New(NewHost(pts), alpha)
}

func randomProfile(rng *rand.Rand, n int, p float64) Profile {
	prof := EmptyProfile(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				prof.Buy(u, v)
			}
		}
	}
	return prof
}

func TestHostFromMatrixRejectsBadInput(t *testing.T) {
	if _, err := HostFromMatrix([][]float64{{0, 1}, {2, 0}}); err == nil {
		t.Error("asymmetric host accepted")
	}
}

func TestCostAccountingStar(t *testing.T) {
	// Star on 4 unit nodes, center 0 owns all edges, alpha = 2.
	g := unitGame(4, 2)
	p := EmptyProfile(4)
	for v := 1; v < 4; v++ {
		p.Buy(0, v)
	}
	s := NewState(g, p)
	// Center: edge cost 3*2 = 6, dist cost 3 => 9.
	if got := s.Cost(0); got != 9 {
		t.Fatalf("center cost = %v, want 9", got)
	}
	// Leaf: edge cost 0, dist 1 + 2 + 2 = 5.
	if got := s.Cost(1); got != 5 {
		t.Fatalf("leaf cost = %v, want 5", got)
	}
	// Social: 9 + 3*5 = 24. Also equals alpha*3 + sum over ordered pairs.
	if got := s.SocialCost(); got != 24 {
		t.Fatalf("social cost = %v, want 24", got)
	}
}

func TestDoubleOwnershipChargesBoth(t *testing.T) {
	g := unitGame(2, 3)
	p := EmptyProfile(2)
	p.Buy(0, 1)
	p.Buy(1, 0)
	s := NewState(g, p)
	if got := s.TotalEdgeCost(); got != 6 {
		t.Fatalf("TotalEdgeCost = %v, want 6 (both owners pay)", got)
	}
	if got := len(p.DoublyOwned()); got != 1 {
		t.Fatalf("DoublyOwned = %d, want 1", got)
	}
	if s.Network().M() != 1 {
		t.Fatal("doubly-owned edge must appear once in the network")
	}
}

func TestDisconnectedCostIsInf(t *testing.T) {
	g := unitGame(3, 1)
	s := NewState(g, EmptyProfile(3))
	if !math.IsInf(s.Cost(0), 1) || !math.IsInf(s.SocialCost(), 1) {
		t.Fatal("empty network must have infinite cost")
	}
	if s.Connected() {
		t.Fatal("empty network reported connected")
	}
}

// TestSocialCostDecomposition: Σ_u cost(u) == TotalEdgeCost + TotalDistCost
// and TotalDistCost == graph.SumDistances on random states.
func TestSocialCostDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		g := randomMetricGame(rng, n, 0.5+rng.Float64()*3)
		s := NewState(g, randomProfile(rng, n, 0.4))
		perAgent := 0.0
		for u := 0; u < n; u++ {
			perAgent += s.Cost(u)
		}
		social := s.SocialCost()
		if math.IsInf(social, 1) {
			return math.IsInf(perAgent, 1)
		}
		if math.Abs(perAgent-social) > 1e-6 {
			return false
		}
		dist, unreached := graph.SumDistances(0, s.Network().APSP(), nil)
		return unreached == 0 && math.Abs(s.TotalDistCost()-dist) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSetStrategyMatchesRebuild: incremental network repair must agree
// with building the network from scratch.
func TestSetStrategyMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		g := randomMetricGame(rng, n, 1)
		s := NewState(g, randomProfile(rng, n, 0.3))
		for step := 0; step < 10; step++ {
			u := rng.Intn(n)
			strat := bitset.New(n)
			for v := 0; v < n; v++ {
				if v != u && rng.Float64() < 0.3 {
					strat.Add(v)
				}
			}
			s.SetStrategy(u, strat)
			fresh := NewState(g, s.P.Clone())
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					if s.Network().HasEdge(a, b) != fresh.Network().HasEdge(a, b) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMovesApplyAndRevert(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomMetricGame(rng, 8, 1.5)
	s := NewState(g, randomProfile(rng, 8, 0.3))
	before := s.P.Clone()
	for u := 0; u < 8; u++ {
		for _, m := range s.CandidateMoves(u) {
			_ = s.CostAfter(m)
		}
	}
	if !s.P.Equal(before) {
		t.Fatal("CostAfter left the profile mutated")
	}
}

// TestCostAfterMatchesApply: evaluating a move must equal applying it.
func TestCostAfterMatchesApply(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		g := randomMetricGame(rng, n, 0.5+2*rng.Float64())
		s := NewState(g, randomProfile(rng, n, 0.4))
		u := rng.Intn(n)
		moves := s.CandidateMoves(u)
		if len(moves) == 0 {
			return true
		}
		m := moves[rng.Intn(len(moves))]
		want := s.CostAfter(m)
		s.Apply(m)
		got := s.Cost(u)
		if math.IsInf(want, 1) && math.IsInf(got, 1) {
			return true
		}
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBestSingleMoveImprovesOrReportsNone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(8)
		g := randomMetricGame(rng, n, 0.5+2*rng.Float64())
		s := NewState(g, randomProfile(rng, n, 0.3))
		for u := 0; u < n; u++ {
			cur := s.Cost(u)
			m, c, ok := s.BestSingleMove(u)
			if ok {
				if !(c < cur) {
					t.Fatalf("claimed improving move %v does not improve: %v -> %v", m, cur, c)
				}
				if got := s.CostAfter(m); math.Abs(got-c) > 1e-9 {
					t.Fatalf("reported move cost %v, evaluation %v", c, got)
				}
			} else if c != cur {
				t.Fatalf("no-improvement case must return current cost")
			}
		}
	}
}

// TestScanBuffersReuseMatchesFresh: a state reuses its pruning-bound
// buffers from one scan to the next. Agents here have positive demand
// towards different numbers of nodes, so each scan's sorted arrays are
// shorter or longer than the last one's; every scan and certificate must
// still equal, bit for bit, the one a fresh state computes.
func TestScanBuffersReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(8)
		g := randomMetricGame(rng, n, 0.5+4*rng.Float64())
		tr := make([][]float64, n)
		for u := range tr {
			tr[u] = make([]float64, n)
			for v := range tr[u] {
				if v != u && (u%3 == 0 || rng.Float64() < 0.25) {
					tr[u][v] = 0.5 + rng.Float64()
				}
			}
		}
		if err := g.SetTraffic(tr); err != nil {
			t.Fatal(err)
		}
		s := NewState(g, randomProfile(rng, n, 0.4))
		for _, u := range rng.Perm(n) {
			m, c, ok := s.BestSingleMove(u)
			fm, fc, fok := s.Clone().BestSingleMove(u)
			if m != fm || math.Float64bits(c) != math.Float64bits(fc) || ok != fok {
				t.Fatalf("trial %d agent %d: reused scan (%v, %v, %v), fresh (%v, %v, %v)", trial, u, m, c, ok, fm, fc, fok)
			}
			cert, ok := s.AcquireGainCertificate(u)
			fcert, fok := s.Clone().AcquireGainCertificate(u)
			if ok != fok || math.Float64bits(cert.AcquireBound) != math.Float64bits(fcert.AcquireBound) ||
				cert.MaxRefund != fcert.MaxRefund || cert.Slack != fcert.Slack {
				t.Fatalf("trial %d agent %d: reused certificate %+v, fresh %+v", trial, u, cert, fcert)
			}
		}
	}
}

func TestStarIsGreedyEquilibriumUnitAlpha2(t *testing.T) {
	// Classic NCG fact: for alpha in (1,2) the star bought by the center
	// is an equilibrium; for the GE notion this must hold at alpha = 2.
	g := unitGame(6, 2)
	p := EmptyProfile(6)
	for v := 1; v < 6; v++ {
		p.Buy(0, v)
	}
	s := NewState(g, p)
	if !s.IsGreedyEquilibrium() {
		t.Fatal("center-owned unit star not a greedy equilibrium at alpha=2")
	}
	if !s.IsAddOnlyEquilibrium() {
		t.Fatal("GE must imply AE")
	}
	if got := s.GreedyApproxFactor(); got != 1 {
		t.Fatalf("GE state has GreedyApproxFactor %v, want 1", got)
	}
}

func TestCompleteGraphEquilibriumSmallAlpha(t *testing.T) {
	// For alpha < 1 in the unit NCG the complete graph is stable; deleting
	// an edge saves alpha but costs 1 in distance.
	n := 5
	g := unitGame(n, 0.5)
	p := EmptyProfile(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p.Buy(u, v)
		}
	}
	s := NewState(g, p)
	if !s.IsGreedyEquilibrium() {
		t.Fatal("complete unit graph not GE at alpha=0.5")
	}
}

func TestAddOnlyNotGreedy(t *testing.T) {
	// A complete unit graph at huge alpha: no buys possible (AE holds
	// trivially) but deletions improve, so not GE.
	n := 4
	g := unitGame(n, 100)
	p := EmptyProfile(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p.Buy(u, v)
		}
	}
	s := NewState(g, p)
	if !s.IsAddOnlyEquilibrium() {
		t.Fatal("complete graph must be add-only stable")
	}
	if s.IsGreedyEquilibrium() {
		t.Fatal("complete graph at alpha=100 must not be greedy stable")
	}
	if f := s.GreedyApproxFactor(); f <= 1 {
		t.Fatalf("approx factor must exceed 1, got %v", f)
	}
}

func TestSocialCostOfEdgeSetMatchesState(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomMetricGame(rng, 7, 1.3)
	var edges []graph.Edge
	for v := 1; v < 7; v++ {
		edges = append(edges, graph.Edge{U: 0, V: v, W: g.Host.Weight(0, v)})
	}
	viaEdges := SocialCostOfEdgeSet(g, edges)
	s := NewState(g, ProfileFromEdgeSet(7, edges))
	if math.Abs(viaEdges-s.SocialCost()) > 1e-9 {
		t.Fatalf("edge-set social cost %v != state social cost %v", viaEdges, s.SocialCost())
	}
}

func TestProfileHashDistinguishesOwnership(t *testing.T) {
	p := EmptyProfile(3)
	p.Buy(0, 1)
	q := EmptyProfile(3)
	q.Buy(1, 0)
	if p.Hash() == q.Hash() {
		t.Fatal("ownership direction must change the hash")
	}
	if p.Equal(q) {
		t.Fatal("profiles with different ownership must differ")
	}
}

func TestProfileFromOwnedEdges(t *testing.T) {
	p, err := ProfileFromOwnedEdges(3, []OwnedEdge{{0, 1}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Buys(0, 1) || !p.Buys(2, 1) || p.Buys(1, 0) {
		t.Fatal("purchases wrong")
	}
	if p.EdgeCount() != 2 {
		t.Fatalf("EdgeCount = %d", p.EdgeCount())
	}
	if _, err := ProfileFromOwnedEdges(3, []OwnedEdge{{0, 0}}); err == nil {
		t.Error("self-purchase accepted")
	}
	if _, err := ProfileFromOwnedEdges(3, []OwnedEdge{{0, 5}}); err == nil {
		t.Error("out-of-range purchase accepted")
	}
}

func TestImprovesRespectsEps(t *testing.T) {
	g := unitGame(2, 1)
	if g.Improves(10-1e-12, 10) {
		t.Error("sub-eps change counted as improvement")
	}
	if !g.Improves(9, 10) {
		t.Error("unit improvement rejected")
	}
	if !g.Improves(5, math.Inf(1)) {
		t.Error("finite vs infinite must improve")
	}
	if g.Improves(math.Inf(1), math.Inf(1)) {
		t.Error("inf vs inf is not an improvement")
	}
}

func TestOneInfHostBuyingInfEdge(t *testing.T) {
	oi, err := metric.NewOneInf(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	g := New(NewHost(oi), 1)
	p := EmptyProfile(3)
	p.Buy(0, 2) // unbuyable pair
	s := NewState(g, p)
	if !math.IsInf(s.EdgeCost(0), 1) {
		t.Fatal("buying an Inf edge must cost Inf")
	}
	// The Inf edge provides no connectivity either.
	if !math.IsInf(s.DistCost(0), 1) {
		t.Fatal("Inf edge must not carry shortest paths")
	}
}
