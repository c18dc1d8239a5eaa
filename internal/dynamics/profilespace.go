package dynamics

import (
	"fmt"

	"gncg/internal/bitset"
	"gncg/internal/game"
	"gncg/internal/parallel"
)

// maxProfileSpaceAgents caps the exhaustive profile enumeration: the
// space has 2^(n(n-1)) profiles, so n = 4 gives 4096 and n = 5 about one
// million.
const maxProfileSpaceAgents = 5

// ProfileSpace is the full strategy-profile space of a tiny game, packed
// into indices 0..Total-1: agent u's digit (base PerAgent) is a bitmask
// over the other agents in increasing order (see StrategySet). It backs
// the exhaustive checks — ExhaustiveFIP and the equilibrium census of
// package poa — which walk the unilateral deviations of every profile.
type ProfileSpace struct {
	N        int
	PerAgent int         // strategies per agent: 2^(N-1)
	Total    int         // profiles: PerAgent^N
	Costs    [][]float64 // Costs[idx][u] is agent u's cost in profile idx
}

// NewProfileSpace enumerates every profile of g and tabulates all agent
// costs, in parallel by profile. It refuses n > 5.
func NewProfileSpace(g *game.Game) (*ProfileSpace, error) {
	n := g.N()
	if n > maxProfileSpaceAgents {
		return nil, fmt.Errorf("dynamics: exhaustive profile space supports n <= %d, got %d", maxProfileSpaceAgents, n)
	}
	ps := &ProfileSpace{N: n, PerAgent: 1 << (n - 1), Total: 1}
	for i := 0; i < n; i++ {
		ps.Total *= ps.PerAgent
	}
	ps.Costs = parallel.Map(ps.Total, func(idx int) []float64 {
		s := game.NewState(g, ps.Profile(idx))
		out := make([]float64, n)
		for u := range out {
			out[u] = s.Cost(u)
		}
		return out
	})
	return ps, nil
}

// Profile expands a packed profile index into a Profile.
func (ps *ProfileSpace) Profile(idx int) game.Profile {
	p := game.Profile{S: make([]bitset.Set, ps.N)}
	for u := range p.S {
		p.S[u] = StrategySet(ps.N, u, idx%ps.PerAgent)
		idx /= ps.PerAgent
	}
	return p
}

// Replace returns the index of profile idx with agent u's digit replaced
// by alt: u's unilateral deviation to strategy alt.
func (ps *ProfileSpace) Replace(idx, u, alt int) int {
	pow := 1
	for i := 0; i < u; i++ {
		pow *= ps.PerAgent
	}
	digit := (idx / pow) % ps.PerAgent
	return idx + (alt-digit)*pow
}

// StrategySet converts agent u's strategy mask over the other agents (in
// increasing order) into a bitset over all n nodes.
func StrategySet(n, u, mask int) bitset.Set {
	s := bitset.New(n)
	bit := 0
	for v := 0; v < n; v++ {
		if v == u {
			continue
		}
		if mask&(1<<bit) != 0 {
			s.Add(v)
		}
		bit++
	}
	return s
}
