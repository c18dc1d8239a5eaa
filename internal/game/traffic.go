package game

import (
	"fmt"
	"math"
)

// Traffic weights generalize the distance cost to weighted demands, the
// feature of the Albers et al. NCG variant the paper contrasts with
// (§1.2): agent u pays Σ_v t(u,v)·d(u,v) instead of plain distance sums.
// Traffic matrices need not be symmetric (u's demand towards v is u's
// alone); the diagonal must be zero and entries non-negative and finite.
// A nil traffic matrix means uniform demand 1, the paper's model.
//
// The UMFL best-response reduction survives weighted demands unchanged —
// client x's connection costs are simply scaled by t(u,x) — so exact
// best responses remain available (see bestresponse.BuildInstance).
func validateTraffic(n int, t [][]float64) error {
	if len(t) != n {
		return fmt.Errorf("game: traffic matrix has %d rows, want %d", len(t), n)
	}
	for u := range t {
		if len(t[u]) != n {
			return fmt.Errorf("game: traffic row %d has %d entries, want %d", u, len(t[u]), n)
		}
		if t[u][u] != 0 {
			return fmt.Errorf("game: nonzero traffic diagonal at %d", u)
		}
		for v, x := range t[u] {
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("game: invalid traffic t(%d,%d)=%v", u, v, x)
			}
		}
	}
	return nil
}

// SetTraffic installs a demand matrix on the game. Passing nil restores
// the uniform (paper) model. The demand is fixed once a State exists:
// after the first NewState, SetTraffic returns an error and leaves the
// demand unchanged.
func (g *Game) SetTraffic(t [][]float64) error {
	if g.bound.Load() {
		return fmt.Errorf("game: SetTraffic after NewState; the demand is fixed once a State exists")
	}
	if t != nil {
		if err := validateTraffic(g.N(), t); err != nil {
			return err
		}
	}
	g.traffic = t
	g.floorMu.Lock()
	g.floorSums, g.floorDone = nil, nil
	g.floorMu.Unlock()
	return nil
}

// Traffic returns agent u's demand towards v: 1 under the uniform model.
func (g *Game) Traffic(u, v int) float64 {
	if g.traffic == nil {
		if u == v {
			return 0
		}
		return 1
	}
	return g.traffic[u][v]
}

// HasTraffic reports whether a non-uniform demand matrix is installed.
func (g *Game) HasTraffic() bool { return g.traffic != nil }
