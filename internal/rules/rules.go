// Package rules collects the concrete cost models of the NCG family
// beyond the paper's default, plus the name registry the sweep engine's
// model axis resolves through. The game engine itself (package game) is
// model-agnostic and owns only the Rules interface and the default
// SumRules; this package adds:
//
//   - "budget": the bounded-budget NCG of Ehsani et al. (PAPERS.md).
//     Edges are free but each agent may buy at most a fixed total host
//     weight; the game's Alpha parameter is reinterpreted as that
//     per-agent budget B, and an agent's cost is its distance cost
//     alone. Feasibility is a cross-edge constraint, so the UMFL
//     best-response reduction does not apply (ExactNashViaUMFL is
//     false) and the exact-Nash verification tier rejects the model.
//   - "unit": the classic unit-price model of Fabrikant et al. (the
//     degenerate host of Àlvarez & Messegué): every edge costs a flat α
//     regardless of host weight. On a unit-weight host it coincides
//     with the paper's sum model, which the cross-model tests exploit.
//
// All models here keep DistTerm = t·d (linear in d), so the
// gain-bound pruning and certificate machinery stays sound for each
// (GainBoundsSound is true); the budget model's feasibility gate runs
// in the move enumeration underneath the bounds.
package rules

import (
	"fmt"
	"math"
	"sort"

	"gncg/internal/bitset"
	"gncg/internal/game"
)

// Budget is the bounded-budget NCG: Alpha is the per-agent budget B on
// total purchased host weight, edges are otherwise free, and an agent's
// cost is its traffic-weighted distance sum. A strategy is feasible iff
// its host-weight spend is at most B (+ the game's tolerance); a move
// from an over-budget strategy is additionally admitted when it
// strictly decreases spend, so dynamics can repair infeasible starts
// (e.g. a star center handed more edges than B) instead of deadlocking.
type Budget struct{}

// Name returns "budget".
func (Budget) Name() string { return "budget" }

// StrategyCost returns 0: purchases are free under the budget cap.
func (Budget) StrategyCost(*game.Game, int, bitset.Set) float64 { return 0 }

// DistTerm returns t·d.
func (Budget) DistTerm(t, d float64) float64 { return t * d }

// AcquirePrice returns 0 for buyable pairs and +Inf for unbuyable ones
// (+Inf host weights stay unbuyable in every model).
func (Budget) AcquirePrice(_, w float64) float64 {
	if math.IsInf(w, 1) {
		return w
	}
	return 0
}

// MoveFeasible admits m iff the resulting strategy is within budget, or
// strictly cheaper than the current one (the repair rule).
func (Budget) MoveFeasible(g *game.Game, cur bitset.Set, m game.Move) bool {
	spent, next := spendBeforeAfter(g, cur, m)
	return next <= g.Alpha+g.Eps || next < spent
}

// spendBeforeAfter returns SpendOnStrategy of cur and of m.NewStrategy(cur)
// for m's agent, in one pass over cur and without building the new
// strategy: the move is applied on the fly, dropping the deleted endpoint
// and folding the added one at its ascending position. Both sums fold in
// the same order as SpendOnStrategy's, so they are bit-identical to it.
func spendBeforeAfter(g *game.Game, cur bitset.Set, m game.Move) (spent, next float64) {
	add, drop := -1, -1
	switch m.Kind {
	case game.Buy:
		add = m.V
	case game.Delete:
		drop = m.V
	case game.Swap:
		drop, add = m.V, m.X
	}
	u := m.Agent
	cur.ForEach(func(v int) {
		w := g.Host.Weight(u, v)
		spent += w
		if add >= 0 && add < v {
			next += g.Host.Weight(u, add)
			add = -1
		}
		if v == add {
			add = -1 // already owned: the new strategy holds it once
		} else if v == drop {
			return
		}
		next += w
	})
	if add >= 0 {
		next += g.Host.Weight(u, add)
	}
	return spent, next
}

// Feasible reports whether strat's host-weight spend is within budget.
func (Budget) Feasible(g *game.Game, u int, strat bitset.Set) bool {
	return game.SpendOnStrategy(g, u, strat) <= g.Alpha+g.Eps
}

// GainBoundsSound reports true: DistTerm is linear in d, and pricing
// acquisitions at 0 only loosens the bounds.
func (Budget) GainBoundsSound() bool { return true }

// ExactNashViaUMFL reports false: the budget cap couples facility
// choices across edges, which UMFL cannot express.
func (Budget) ExactNashViaUMFL() bool { return false }

// SpanningEdgeCostLB returns 0: edges are free.
func (Budget) SpanningEdgeCostLB(_, _ float64, _ int) float64 { return 0 }

// Unit is the flat-price model: every buyable edge costs α, whatever
// its host weight. Distances still follow the host weights, so on a
// non-unit host the model separates edge-price structure from distance
// structure; on a unit-weight host it is exactly the paper's sum model.
type Unit struct{}

// Name returns "unit".
func (Unit) Name() string { return "unit" }

// StrategyCost returns α·|S_u|, +Inf if u owns an unbuyable pair.
func (Unit) StrategyCost(g *game.Game, u int, strat bitset.Set) float64 {
	count, inf := 0, false
	strat.ForEach(func(v int) {
		if math.IsInf(g.Host.Weight(u, v), 1) {
			inf = true
		}
		count++
	})
	if inf {
		return math.Inf(1)
	}
	return g.Alpha * float64(count)
}

// DistTerm returns t·d.
func (Unit) DistTerm(t, d float64) float64 { return t * d }

// AcquirePrice returns α for buyable pairs and +Inf for unbuyable ones.
func (Unit) AcquirePrice(alpha, w float64) float64 {
	if math.IsInf(w, 1) {
		return w
	}
	return alpha
}

// MoveFeasible always reports true: the model is unconstrained.
func (Unit) MoveFeasible(*game.Game, bitset.Set, game.Move) bool { return true }

// Feasible always reports true.
func (Unit) Feasible(*game.Game, int, bitset.Set) bool { return true }

// GainBoundsSound reports true: DistTerm is linear in d.
func (Unit) GainBoundsSound() bool { return true }

// ExactNashViaUMFL reports true: the cost is separable per edge, so
// the Thm 3 reduction applies with flat opening costs.
func (Unit) ExactNashViaUMFL() bool { return true }

// SpanningEdgeCostLB returns α·(n−1): a connected spanning subgraph
// has at least n−1 edges, each priced α.
func (Unit) SpanningEdgeCostLB(alpha, _ float64, n int) float64 {
	if n <= 1 {
		return 0
	}
	return alpha * float64(n-1)
}

// registry maps model names to their Rules values. Models are stateless
// singletons; the map is written only at init time and read-only after,
// so lookups are safe from concurrent sweep cells.
var registry = map[string]game.Rules{
	game.SumRules{}.Name(): game.SumRules{},
	Budget{}.Name():        Budget{},
	Unit{}.Name():          Unit{},
}

// ByName resolves a model name ("sum", "budget", "unit") to its Rules
// value. The error lists the known models for sweep-axis typos.
func ByName(name string) (game.Rules, error) {
	if r, ok := registry[name]; ok {
		return r, nil
	}
	return nil, fmt.Errorf("rules: unknown cost model %q (known: %v)", name, Names())
}

// MustByName is ByName for callers holding a registry-produced name
// (sweep cells iterating a model axis); it panics on unknown names.
func MustByName(name string) game.Rules {
	r, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return r
}

// Names returns the registered model names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
