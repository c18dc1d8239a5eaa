package poa

import (
	"math"

	"gncg/internal/dynamics"
	"gncg/internal/game"
	"gncg/internal/parallel"
)

// Census is an exhaustive equilibrium census of a tiny game: every
// strategy profile is enumerated and classified. It yields the EXACT
// Price of Anarchy and Price of Stability of the instance — the paper's
// conclusion names the PoS analysis as the natural next step, and
// Cor. 3's footnote (PoS = 1 for the T–GNCG) becomes checkable.
type Census struct {
	Profiles int // total strategy profiles enumerated
	Nash     int // exact Nash equilibria among them
	// OptCost is the exact social optimum cost (min over all profiles;
	// coincides with the edge-subset optimum since double purchases are
	// never beneficial).
	OptCost float64
	// BestNECost and WorstNECost are the cheapest and most expensive
	// Nash equilibrium social costs; +Inf / -Inf if no NE exists.
	BestNECost  float64
	WorstNECost float64
	// BestNE and WorstNE are witnesses (empty profiles if none).
	BestNE  game.Profile
	WorstNE game.Profile
}

// PoA returns the exact Price of Anarchy: worst NE cost over optimum.
// NaN if the instance has no Nash equilibrium.
func (c Census) PoA() float64 {
	if c.Nash == 0 {
		return math.NaN()
	}
	return c.WorstNECost / c.OptCost
}

// PoS returns the exact Price of Stability: best NE cost over optimum.
// NaN if the instance has no Nash equilibrium.
func (c Census) PoS() float64 {
	if c.Nash == 0 {
		return math.NaN()
	}
	return c.BestNECost / c.OptCost
}

// ExhaustiveCensus enumerates every strategy profile of a game with
// n <= 5 agents, classifies the exact Nash equilibria (a profile is an
// NE iff no agent's digit can be replaced by a cheaper one — the full
// strategy space is the deviation space, so this is exact), and returns
// the instance's exact PoA and PoS.
//
// The census is enumeration-based, not reduction-based, so it is exact
// under every cost model — including those the UMFL Nash tier rejects
// (budget): the model's feasibility predicate restricts both the NE
// candidates and the deviation space (an agent cannot deviate to an
// inadmissible strategy), and OptCost ranges over feasible profiles
// only. Under unconstrained models every profile is feasible and the
// classification is unchanged.
func ExhaustiveCensus(g *game.Game) (Census, error) {
	ps, err := dynamics.NewProfileSpace(g)
	if err != nil {
		return Census{}, err
	}
	n, perAgent, total := ps.N, ps.PerAgent, ps.Total

	// Per-agent strategy-digit admissibility under the cost model,
	// precomputed once (n·2^(n-1) entries) so the deviation loop below
	// stays a table lookup.
	rules := g.Rules()
	feas := make([][]bool, n)
	for u := 0; u < n; u++ {
		feas[u] = make([]bool, perAgent)
		for alt := 0; alt < perAgent; alt++ {
			feas[u][alt] = rules.Feasible(g, u, dynamics.StrategySet(n, u, alt))
		}
	}
	profFeasible := func(idx int) bool {
		for u := 0; u < n; u++ {
			if !feas[u][idx%perAgent] {
				return false
			}
			idx /= perAgent
		}
		return true
	}
	// Social cost per profile, summed in agent order.
	social := make([]float64, total)
	for idx, costs := range ps.Costs {
		for _, c := range costs {
			social[idx] += c
		}
	}

	c := Census{
		Profiles:    total,
		OptCost:     math.Inf(1),
		BestNECost:  math.Inf(1),
		WorstNECost: math.Inf(-1),
	}
	isNE := parallel.Map(total, func(idx int) bool {
		if !profFeasible(idx) {
			return false
		}
		for u := 0; u < n; u++ {
			for alt := 0; alt < perAgent; alt++ {
				if !feas[u][alt] {
					continue // inadmissible deviation under the model
				}
				nidx := ps.Replace(idx, u, alt)
				if nidx != idx && g.Improves(ps.Costs[nidx][u], ps.Costs[idx][u]) {
					return false
				}
			}
		}
		return true
	})
	for idx := 0; idx < total; idx++ {
		if profFeasible(idx) && social[idx] < c.OptCost {
			c.OptCost = social[idx]
		}
		if !isNE[idx] {
			continue
		}
		c.Nash++
		if social[idx] < c.BestNECost {
			c.BestNECost = social[idx]
			c.BestNE = ps.Profile(idx)
		}
		if social[idx] > c.WorstNECost {
			c.WorstNECost = social[idx]
			c.WorstNE = ps.Profile(idx)
		}
	}
	return c, nil
}
