package poa

// Complete verifications: the exhaustive census enumerates EVERY Nash
// equilibrium of tiny instances, so structural theorems quantified over
// "any NE" can be checked in full rather than sampled.

import (
	"math"
	"testing"

	"gncg/internal/dynamics"
	"gncg/internal/game"
	"gncg/internal/gen"
	"gncg/internal/graph"
	"gncg/internal/opt"
	"gncg/internal/spanner"
)

// profileSpace enumerates every profile of a tiny game.
func profileSpace(t *testing.T, g *game.Game) *dynamics.ProfileSpace {
	t.Helper()
	ps, err := dynamics.NewProfileSpace(g)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// allNashProfiles enumerates every exact NE of a tiny game.
func allNashProfiles(t *testing.T, g *game.Game) []game.Profile {
	t.Helper()
	ps := profileSpace(t, g)
	var out []game.Profile
	for idx := 0; idx < ps.Total; idx++ {
		ne := true
		for u := 0; u < ps.N && ne; u++ {
			for alt := 0; alt < ps.PerAgent; alt++ {
				nidx := ps.Replace(idx, u, alt)
				if nidx != idx && g.Improves(ps.Costs[nidx][u], ps.Costs[idx][u]) {
					ne = false
					break
				}
			}
		}
		if ne {
			out = append(out, ps.Profile(idx))
		}
	}
	return out
}

// TestThm12AllNEAreTrees: EVERY Nash equilibrium of 4-agent tree-metric
// games is a tree (complete verification of Thm 12 at n=4). Equilibria
// with infinite cost (degenerate disconnected profiles where no agent
// can unilaterally reconnect) are excluded, as in the paper's
// finite-cost setting.
func TestThm12AllNEAreTrees(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		tm := gen.Tree(seed, 4, 1, 9)
		for _, alpha := range []float64{0.8, 1.5, 3} {
			g := game.New(game.NewHost(tm), alpha)
			for _, p := range allNashProfiles(t, g) {
				s := game.NewState(g, p)
				if !s.Connected() {
					continue
				}
				if !s.Network().IsTree() {
					t.Fatalf("seed %d alpha %v: connected NE %v is not a tree (Thm 12)",
						seed, alpha, p.OwnedEdges())
				}
			}
		}
	}
}

// TestThm9AllNEEqualAlgorithm1: for α < 1/2 on 1-2 hosts, EVERY
// (connected) Nash equilibrium network equals Algorithm 1's optimum
// (complete verification of Thm 9 at n=4).
func TestThm9AllNEEqualAlgorithm1(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		h := game.NewHost(gen.OneTwo(seed+40, 4, 0.5))
		algRes, err := opt.Algorithm1(h)
		if err != nil {
			t.Fatal(err)
		}
		want := graph.FromEdges(4, algRes.Edges)
		for _, alpha := range []float64{0.1, 0.3, 0.45} {
			g := game.New(h, alpha)
			found := 0
			for _, p := range allNashProfiles(t, g) {
				s := game.NewState(g, p)
				if !s.Connected() {
					continue
				}
				found++
				for u := 0; u < 4; u++ {
					for v := u + 1; v < 4; v++ {
						if s.Network().HasEdge(u, v) != want.HasEdge(u, v) {
							t.Fatalf("seed %d alpha %v: NE network differs from Algorithm 1 at (%d,%d)",
								seed, alpha, u, v)
						}
					}
				}
			}
			if found == 0 {
				t.Fatalf("seed %d alpha %v: no connected NE found", seed, alpha)
			}
		}
	}
}

// TestLemma6StableSubsetOfOptimum: for 0 < α ≤ 1 on 1-2 hosts, every
// connected NE's edge set is contained in Algorithm 1's optimum G*, with
// d(u,v) = 2 for missing 1-edges (complete verification of Lemma 6's
// first parts at n=4).
func TestLemma6StableSubsetOfOptimum(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		h := game.NewHost(gen.OneTwo(seed+80, 4, 0.5))
		algRes, err := opt.Algorithm1(h)
		if err != nil {
			t.Fatal(err)
		}
		gStar := graph.FromEdges(4, algRes.Edges)
		for _, alpha := range []float64{0.6, 0.9} {
			g := game.New(h, alpha)
			for _, p := range allNashProfiles(t, g) {
				s := game.NewState(g, p)
				if !s.Connected() {
					continue
				}
				d := s.Network().APSP()
				for u := 0; u < 4; u++ {
					for v := u + 1; v < 4; v++ {
						if s.Network().HasEdge(u, v) && !gStar.HasEdge(u, v) {
							t.Fatalf("seed %d alpha %v: NE edge (%d,%d) not in G* (Lemma 6)",
								seed, alpha, u, v)
						}
						if h.Weight(u, v) == 1 && !s.Network().HasEdge(u, v) && d[u][v] != 2 {
							t.Fatalf("seed %d alpha %v: missing 1-edge (%d,%d) at distance %v, want 2",
								seed, alpha, u, v, d[u][v])
						}
					}
				}
			}
		}
	}
}

// TestLemma1AllAEAreSpanners: every connected add-only equilibrium among
// ALL profiles of tiny geometric games is an (α+1)-spanner (complete
// verification of Lemma 1 at n=4). AE membership is checked against
// single buys only, per the definition.
func TestLemma1AllAEAreSpanners(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		alpha := 0.7 + float64(seed)*0.9
		g := game.New(game.NewHost(gen.Points(seed+300, 4, 2, 10, 2)), alpha)
		ps := profileSpace(t, g)
		for idx := 0; idx < ps.Total; idx++ {
			s := game.NewState(g, ps.Profile(idx))
			if !s.Connected() || !s.IsAddOnlyEquilibrium() {
				continue
			}
			if !spanner.IsKSpanner(s.Network(), g.Host, alpha+1, 1e-9) {
				t.Fatalf("seed %d alpha %v: AE %v has stretch %v > α+1",
					seed, alpha, s.P.OwnedEdges(), spanner.Stretch(s.Network(), g.Host))
			}
		}
	}
}

// TestThm7ExactPoAWithinBound: for 1/2 <= α < 1 on 1-2 hosts, the EXACT
// PoA (by census over all profiles) respects Thm 7's 3/(α+2) bound.
func TestThm7ExactPoAWithinBound(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		h := game.NewHost(gen.OneTwo(seed+120, 4, 0.5))
		for _, alpha := range []float64{0.5, 0.7, 0.95} {
			g := game.New(h, alpha)
			c, err := ExhaustiveCensus(g)
			if err != nil {
				t.Fatal(err)
			}
			if c.Nash == 0 || math.IsInf(c.WorstNECost, 1) {
				continue
			}
			bound := 3 / (alpha + 2)
			if c.PoA() > bound+1e-9 {
				t.Fatalf("seed %d alpha %v: exact PoA %v exceeds 3/(α+2) = %v",
					seed, alpha, c.PoA(), bound)
			}
		}
	}
}

// TestThm2AllConnectedAEAreAlphaPlus1GE: EVERY connected add-only
// equilibrium of tiny geometric games is an (α+1)-approximate greedy
// equilibrium (complete verification of Thm 2 at n=4).
func TestThm2AllConnectedAEAreAlphaPlus1GE(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		alpha := 0.8 + float64(seed)
		g := game.New(game.NewHost(gen.Points(seed+700, 4, 2, 10, 2)), alpha)
		ps := profileSpace(t, g)
		for idx := 0; idx < ps.Total; idx++ {
			s := game.NewState(g, ps.Profile(idx))
			if !s.Connected() || !s.IsAddOnlyEquilibrium() {
				continue
			}
			if f := s.GreedyApproxFactor(); f > alpha+1+1e-6 {
				t.Fatalf("seed %d alpha %v: AE %v has greedy factor %v > α+1",
					seed, alpha, s.P.OwnedEdges(), f)
			}
		}
	}
}

// TestCensusWorstRatioBelowSigmaBound: the exact PoA of tiny metric
// instances is bounded by the worst pair sigma of the worst NE — the
// aggregation inequality underlying Thm 1, verified end to end.
func TestCensusWorstRatioBelowSigmaBound(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := game.New(game.NewHost(gen.Points(seed+500, 4, 2, 10, 2)), 1.5)
		c, err := ExhaustiveCensus(g)
		if err != nil {
			t.Fatal(err)
		}
		if c.Nash == 0 || math.IsInf(c.WorstNECost, 1) {
			continue
		}
		optRes, err := opt.ExactSmall(g)
		if err != nil {
			t.Fatal(err)
		}
		worstState := game.NewState(g, c.WorstNE.Clone())
		sig := SigmaMax(worstState, optRes.Edges)
		if c.PoA() > sig.Sigma+1e-9 {
			t.Fatalf("seed %d: exact PoA %v exceeds max sigma %v", seed, c.PoA(), sig.Sigma)
		}
	}
}
