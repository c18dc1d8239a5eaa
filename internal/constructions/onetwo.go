package constructions

import (
	"fmt"

	"gncg/internal/game"
	"gncg/internal/graph"
	"gncg/internal/metric"
)

// thm8Layout assigns node indices for the Thm 8 clique-of-stars family:
// clique vertices 0..N-1, the N leaves of clique vertex v at
// N + v*N .. N + v*N + N-1, and the hub u at index N + N².
type thm8Layout struct{ N int }

func (l thm8Layout) clique(v int) int  { return v }
func (l thm8Layout) leaf(v, j int) int { return l.N + v*l.N + j }
func (l thm8Layout) u() int            { return l.N + l.N*l.N }
func (l thm8Layout) n() int            { return l.N*l.N + l.N + 1 }

// Thm8AlphaOne builds the 1-2–GNCG lower bound for α = 1 (Thm 8, Fig. 3):
// a clique of N vertices joined by 1-edges, each clique vertex the center
// of a star of N leaves joined by 1-edges, and a hub u joined to EVERY
// other vertex by a 1-edge; all remaining pairs have weight 2. The
// optimum candidate is the subgraph of all 1-edges; the equilibrium
// candidate is all 1-edges except those between u and leaves. The family
// ratio tends to 3/2.
//
// (The paper states n = N²+1 but constructs N clique vertices + N² leaves
// + u = N²+N+1 nodes; we follow the construction — the asymptotics are
// unchanged. See DESIGN.md.)
func Thm8AlphaOne(N int) (*LowerBound, error) {
	if N < 2 {
		return nil, fmt.Errorf("constructions: Thm8AlphaOne needs N >= 2, got %d", N)
	}
	l := thm8Layout{N}
	var ones [][2]int
	// Clique 1-edges.
	for a := 0; a < N; a++ {
		for b := a + 1; b < N; b++ {
			ones = append(ones, [2]int{l.clique(a), l.clique(b)})
		}
	}
	// Star 1-edges.
	for v := 0; v < N; v++ {
		for j := 0; j < N; j++ {
			ones = append(ones, [2]int{l.clique(v), l.leaf(v, j)})
		}
	}
	// u's 1-edges to everyone.
	for x := 0; x < l.n()-1; x++ {
		ones = append(ones, [2]int{l.u(), x})
	}
	ot, err := metric.NewOneTwo(l.n(), ones)
	if err != nil {
		return nil, err
	}
	g := game.New(game.NewHost(ot), 1)

	// Optimum candidate: every 1-edge (single ownership).
	var opt []graph.Edge
	for _, e := range ones {
		opt = append(opt, graph.Edge{U: e[0], V: e[1], W: 1})
	}
	// Equilibrium candidate: all 1-edges except u–leaf. Ownership: clique
	// edges by the lower vertex, star edges by the center, u's edges by u.
	ne := game.EmptyProfile(l.n())
	for a := 0; a < N; a++ {
		for b := a + 1; b < N; b++ {
			ne.Buy(l.clique(a), l.clique(b))
		}
	}
	for v := 0; v < N; v++ {
		for j := 0; j < N; j++ {
			ne.Buy(l.clique(v), l.leaf(v, j))
		}
	}
	for v := 0; v < N; v++ {
		ne.Buy(l.u(), l.clique(v))
	}
	return &LowerBound{
		Name:        fmt.Sprintf("Thm8 1-2 clique-of-stars (alpha=1, N=%d)", N),
		Game:        g,
		Equilibrium: ne,
		Optimum:     opt,
		Predicted:   1.5,
		Asymptotic:  true,
	}, nil
}

// Thm8HalfToOne builds the Thm 8 lower bound for 1/2 <= α < 1: the same
// clique-of-stars, except the hub u has 1-edges only to the clique
// vertices (u–leaf pairs weigh 2). The equilibrium candidate is the
// subgraph of all 1-edges (for α < 1 every NE must contain them, Lemma
// 3); the paper upper-bounds OPT by the entire host graph, and the family
// ratio tends to 3/(α+2).
func Thm8HalfToOne(N int, alpha float64) (*LowerBound, error) {
	if N < 2 {
		return nil, fmt.Errorf("constructions: Thm8HalfToOne needs N >= 2, got %d", N)
	}
	if !(alpha >= 0.5 && alpha < 1) {
		return nil, fmt.Errorf("constructions: Thm8HalfToOne needs 1/2 <= alpha < 1, got %v", alpha)
	}
	l := thm8Layout{N}
	var ones [][2]int
	for a := 0; a < N; a++ {
		for b := a + 1; b < N; b++ {
			ones = append(ones, [2]int{l.clique(a), l.clique(b)})
		}
	}
	for v := 0; v < N; v++ {
		for j := 0; j < N; j++ {
			ones = append(ones, [2]int{l.clique(v), l.leaf(v, j)})
		}
	}
	for v := 0; v < N; v++ {
		ones = append(ones, [2]int{l.u(), l.clique(v)})
	}
	ot, err := metric.NewOneTwo(l.n(), ones)
	if err != nil {
		return nil, err
	}
	g := game.New(game.NewHost(ot), alpha)

	// Equilibrium candidate: all 1-edges, canonical ownership.
	ne := game.EmptyProfile(l.n())
	for _, e := range ones {
		ne.Buy(e[0], e[1])
	}
	// Optimum candidate: the complete host graph (paper's upper bound).
	var opt []graph.Edge
	n := l.n()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			opt = append(opt, graph.Edge{U: a, V: b, W: g.Host.Weight(a, b)})
		}
	}
	return &LowerBound{
		Name:        fmt.Sprintf("Thm8 1-2 clique-of-stars (alpha=%g, N=%d)", alpha, N),
		Game:        g,
		Equilibrium: ne,
		Optimum:     opt,
		Predicted:   3 / (alpha + 2),
		Asymptotic:  true,
	}, nil
}

// Thm10Star returns the star profile centered at `center` for an
// arbitrary 1-2 host: Thm 10 asserts it is a Nash equilibrium whenever
// α >= 3 (regardless of which node is the center or who the host is).
func Thm10Star(h *game.Host, alpha float64, center int) (*game.Game, game.Profile, error) {
	if alpha < 3 {
		return nil, game.Profile{}, fmt.Errorf("constructions: Thm10Star requires alpha >= 3, got %v", alpha)
	}
	n := h.N()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if w := h.Weight(u, v); w != 1 && w != 2 {
				return nil, game.Profile{}, fmt.Errorf("constructions: Thm10Star requires a 1-2 host, found %v", w)
			}
		}
	}
	g := game.New(h, alpha)
	return g, game.StarProfile(n, center), nil
}
