package constructions

import (
	"fmt"

	"gncg/internal/game"
	"gncg/internal/graph"
	"gncg/internal/metric"
)

// Thm20Triangle builds the paper's closing non-metric witness: a 3-cycle
// with weights w(a,b) = 0, w(b,c) = 1, w(a,c) = (α+2)/2 (which violates
// the triangle inequality for every α > 0). The social optimum is the
// path {(a,b),(b,c)}; the path {(a,b),(a,c)} with a owning both edges is
// a Nash equilibrium. The ratio of the two is exactly (α+2)/2, while the
// pairwise contribution ratio σ of the pair (a,c) is ((α+2)/2)² — the
// value showing Thm 20's per-pair technique cannot beat ((α+2)/2)².
func Thm20Triangle(alpha float64) (*LowerBound, error) {
	if !(alpha > 0) {
		return nil, fmt.Errorf("constructions: Thm20Triangle needs alpha > 0, got %v", alpha)
	}
	heavy := (alpha + 2) / 2
	w := [][]float64{
		{0, 0, heavy},
		{0, 0, 1},
		{heavy, 1, 0},
	}
	sp, err := metric.FromMatrix(w)
	if err != nil {
		return nil, err
	}
	g := game.New(game.NewHost(sp), alpha)
	ne := game.EmptyProfile(3)
	ne.Buy(0, 1) // a buys the 0-weight edge
	ne.Buy(0, 2) // a buys the heavy edge
	return &LowerBound{
		Name:        fmt.Sprintf("Thm20 non-metric triangle (alpha=%g)", alpha),
		Game:        g,
		Equilibrium: ne,
		Optimum: []graph.Edge{
			{U: 0, V: 1, W: 0},
			{U: 1, V: 2, W: 1},
		},
		Predicted: (alpha + 2) / 2,
	}, nil
}

// Thm20PairSigma computes the per-pair contribution ratio σ of Thm 20 for
// the heavy pair (a,c) of the triangle witness:
//
//	σ = (α·w·x + 2 d_NE) / (α·w·x* + 2 d_OPT),
//
// where x/x* indicate whether the NE/OPT contains the edge (a,c). For the
// witness this is exactly ((α+2)/2)².
func Thm20PairSigma(lb *LowerBound) float64 {
	g := lb.Game
	neState := game.NewState(g, lb.Equilibrium.Clone())
	optNet := graph.FromEdges(3, lb.Optimum)
	w := g.Host.Weight(0, 2)
	x, xStar := 0.0, 0.0
	if lb.Equilibrium.HasEdge(0, 2) {
		x = 1
	}
	if optNet.HasEdge(0, 2) {
		xStar = 1
	}
	dNE := neState.Network().Dijkstra(0)[2]
	dOPT := optNet.Dijkstra(0)[2]
	return (g.Alpha*w*x + 2*dNE) / (g.Alpha*w*xStar + 2*dOPT)
}
