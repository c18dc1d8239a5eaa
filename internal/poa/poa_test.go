package poa

import (
	"math"
	"testing"

	"gncg/internal/constructions"
	"gncg/internal/game"
	"gncg/internal/gen"
)

// verifyRows builds the construction at each size and verifies it.
func verifyRows(t *testing.T, build func(size int) (*constructions.LowerBound, error), sizes ...int) []Row {
	t.Helper()
	rows := make([]Row, len(sizes))
	for i, size := range sizes {
		lb, err := build(size)
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = VerifyLowerBound(lb, size)
	}
	return rows
}

func TestSweepThm15RowsVerify(t *testing.T) {
	rows := verifyRows(t, func(n int) (*constructions.LowerBound, error) {
		return constructions.Thm15Star(n, 2)
	}, 4, 8, 20)
	for _, r := range rows {
		if !r.Stable {
			t.Fatalf("row %+v: equilibrium candidate unstable", r)
		}
		if math.Abs(r.Ratio-r.Predicted) > 1e-9 {
			t.Fatalf("row %+v: ratio != predicted", r)
		}
	}
	// Small sizes must use the exact tier, large the greedy tier.
	if rows[0].Tier != TierExactNash {
		t.Fatalf("n=4 verified at tier %v, want exact", rows[0].Tier)
	}
	if rows[2].Tier != TierGreedy {
		t.Fatalf("n=20 verified at tier %v, want greedy", rows[2].Tier)
	}
}

func TestSweepThm19RowsVerify(t *testing.T) {
	rows := verifyRows(t, func(d int) (*constructions.LowerBound, error) {
		return constructions.Thm19CrossPolytope(d, 1.5)
	}, 1, 2, 4)
	for _, r := range rows {
		if !r.Stable || math.Abs(r.Ratio-r.Predicted) > 1e-9 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

func TestSweepThm8Rows(t *testing.T) {
	for _, r := range verifyRows(t, constructions.Thm8AlphaOne, 2, 3) {
		if !r.Stable {
			t.Fatalf("Thm8 alpha=1 candidate unstable: %+v", r)
		}
		if r.Ratio > 1.5+1e-9 {
			t.Fatalf("Thm8 alpha=1 ratio %v exceeds asymptote", r.Ratio)
		}
	}
	half := verifyRows(t, func(n int) (*constructions.LowerBound, error) {
		return constructions.Thm8HalfToOne(n, 0.7)
	}, 2, 3)
	for _, r := range half {
		if !r.Stable {
			t.Fatalf("Thm8 half candidate unstable: %+v", r)
		}
	}
}

func TestSweepLemma8Rows(t *testing.T) {
	rows := verifyRows(t, func(m int) (*constructions.LowerBound, error) {
		return constructions.Lemma8Path(m, 1)
	}, 4, 5, 6)
	for _, r := range rows {
		if !r.Stable || r.Ratio <= 1 {
			t.Fatalf("bad Lemma 8 row %+v", r)
		}
	}
}

// TestEmpiricalRespectsThm1Bound: equilibria found on random metric
// instances must respect the M–GNCG PoA upper bound (α+2)/2 ... relative
// to the OPT candidate, which can only make the measured ratio larger,
// so a pass is meaningful evidence.
func TestEmpiricalRespectsThm1Bound(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		alpha := 0.5 + float64(seed)
		g := game.New(game.NewHost(gen.Points(seed, 6, 2, 10, 2)), alpha)
		e := EmpiricalPoA(g, 6, seed*17, (alpha+2)/2)
		if e.Found == 0 {
			t.Logf("seed %d: no converged equilibria (cycles possible)", seed)
			continue
		}
		// Greedy equilibria are a superset of NE, so the bound may not
		// apply strictly; record but only fail on gross violations that
		// would indicate a cost-accounting bug.
		if e.WorstRatio > 3*e.UpperBound {
			t.Fatalf("seed %d: ratio %v wildly above bound %v", seed, e.WorstRatio, e.UpperBound)
		}
	}
}

func TestEmpiricalFindsEquilibria(t *testing.T) {
	g := game.New(game.NewHost(gen.Points(3, 6, 2, 10, 2)), 1)
	e := EmpiricalPoA(g, 4, 9, math.Inf(1))
	if e.Found == 0 {
		t.Fatal("no equilibria found on a benign instance")
	}
	if e.WorstRatio < 1-1e-9 {
		t.Fatalf("worst ratio %v below 1: OPT candidate beaten by equilibrium?", e.WorstRatio)
	}
	if !e.RespectsBound() {
		t.Fatal("infinite bound not respected")
	}
	if e.Diameter <= 0 {
		t.Fatalf("diameter %v", e.Diameter)
	}
}

func TestTierString(t *testing.T) {
	if TierExactNash.String() != "NE-exact" || TierGreedy.String() != "GE-checked" || TierNone.String() != "unchecked" {
		t.Fatal("tier names wrong")
	}
}
