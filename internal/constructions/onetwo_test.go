package constructions

import (
	"math"
	"testing"

	"gncg/internal/bestresponse"
	"gncg/internal/game"
	"gncg/internal/gen"
	"gncg/internal/opt"
)

func TestThm8AlphaOneExactNEAtN2(t *testing.T) {
	lb, err := Thm8AlphaOne(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := lb.Game.N(); got != 7 {
		t.Fatalf("N=2 instance has %d agents, want 7", got)
	}
	if !bestresponse.IsNash(neState(t, lb)) {
		t.Fatal("Thm 8 (alpha=1) equilibrium candidate fails the exact NE check at N=2")
	}
}

func TestThm8AlphaOneGreedyStableLarger(t *testing.T) {
	lb, err := Thm8AlphaOne(4) // n = 21
	if err != nil {
		t.Fatal(err)
	}
	if !neState(t, lb).IsGreedyEquilibrium() {
		t.Fatal("Thm 8 (alpha=1) candidate fails the greedy check at N=4")
	}
}

func TestThm8AlphaOneOptimumExactSmall(t *testing.T) {
	lb, err := Thm8AlphaOne(2)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := opt.ExactSmall(lb.Game)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lb.OptimumCost()-exact.Cost) > 1e-9 {
		t.Fatalf("1-edge subgraph cost %v != exhaustive OPT %v", lb.OptimumCost(), exact.Cost)
	}
}

func TestThm8AlphaOneRatioApproaches32(t *testing.T) {
	var prev float64
	for i, N := range []int{2, 4, 8, 12} {
		lb, err := Thm8AlphaOne(N)
		if err != nil {
			t.Fatal(err)
		}
		r := lb.Ratio()
		if r <= 1 || r > 1.5+1e-9 {
			t.Fatalf("N=%d: ratio %v outside (1, 3/2]", N, r)
		}
		if i > 0 && r < prev-1e-9 {
			t.Fatalf("N=%d: ratio %v not increasing towards 3/2 (prev %v)", N, r, prev)
		}
		prev = r
	}
	if math.Abs(prev-1.5) > 0.15 {
		t.Fatalf("N=12 ratio %v still far from 3/2", prev)
	}
}

func TestThm8HalfToOneExactNEAtN2(t *testing.T) {
	for _, alpha := range []float64{0.5, 0.75, 0.99} {
		lb, err := Thm8HalfToOne(2, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !bestresponse.IsNash(neState(t, lb)) {
			t.Fatalf("alpha %v: Thm 8 candidate fails the exact NE check at N=2", alpha)
		}
	}
}

func TestThm8HalfToOneRatioApproaches3OverAlphaPlus2(t *testing.T) {
	alpha := 0.6
	limit := 3 / (alpha + 2)
	var last float64
	for _, N := range []int{2, 6, 12} {
		lb, err := Thm8HalfToOne(N, alpha)
		if err != nil {
			t.Fatal(err)
		}
		last = lb.Ratio()
		if last > limit+1e-9 {
			t.Fatalf("N=%d: ratio %v exceeds asymptote %v", N, last, limit)
		}
	}
	if math.Abs(last-limit) > 0.1 {
		t.Fatalf("N=12 ratio %v still far from %v", last, limit)
	}
}

func TestThm8ParamValidation(t *testing.T) {
	if _, err := Thm8AlphaOne(1); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := Thm8HalfToOne(3, 0.3); err == nil {
		t.Error("alpha=0.3 accepted")
	}
	if _, err := Thm8HalfToOne(3, 1.0); err == nil {
		t.Error("alpha=1.0 accepted")
	}
	if _, err := Thm8HalfToOne(3, math.NaN()); err == nil {
		t.Error("alpha=NaN accepted")
	}
}

func TestThm10StarIsNE(t *testing.T) {
	// Thm 10: for alpha >= 3 every star is an NE on any 1-2 host.
	for seed := int64(0); seed < 5; seed++ {
		h := game.NewHost(gen.OneTwo(seed, 7, 0.4))
		for _, alpha := range []float64{3, 5, 10} {
			g, p, err := Thm10Star(h, alpha, int(seed)%7)
			if err != nil {
				t.Fatal(err)
			}
			if !bestresponse.IsNash(game.NewState(g, p)) {
				t.Fatalf("seed %d alpha %v: star is not an NE (violates Thm 10)", seed, alpha)
			}
		}
	}
}

func TestThm10RejectsBadParams(t *testing.T) {
	h := game.NewHost(gen.OneTwo(1, 5, 0.5))
	if _, _, err := Thm10Star(h, 2.5, 0); err == nil {
		t.Error("alpha < 3 accepted")
	}
	pts := game.NewHost(gen.Points(1, 4, 2, 10, 2))
	if _, _, err := Thm10Star(pts, 4, 0); err == nil {
		t.Error("non-1-2 host accepted")
	}
}

// TestLemma3OneEdgesForLowAlpha: for alpha < 1, buying a missing 1-edge
// is always an improving move — so a stable network contains all 1-edges.
func TestLemma3OneEdgesForLowAlpha(t *testing.T) {
	h := game.NewHost(gen.OneTwo(3, 6, 0.5))
	g := game.New(h, 0.8)
	// Build a connected star profile and check: any missing 1-edge is an
	// improving buy for an endpoint.
	s := game.NewState(g, game.StarProfile(6, 0))
	for u := 0; u < 6; u++ {
		for v := 0; v < 6; v++ {
			if u == v || h.Weight(u, v) != 1 || s.Network().HasEdge(u, v) {
				continue
			}
			m := game.Move{Agent: u, Kind: game.Buy, V: v}
			if !(s.CostAfter(m) < s.Cost(u)+1e-12) {
				t.Fatalf("buying missing 1-edge (%d,%d) at alpha<1 did not improve", u, v)
			}
		}
	}
}
