package gncg

import (
	"gncg/internal/bestresponse"
	"gncg/internal/constructions"
	"gncg/internal/game"
	"gncg/internal/opt"
	"gncg/internal/poa"
	"gncg/internal/spanner"
)

// EquilibriumCensus is an exhaustive census of a tiny game's strategy
// space: exact Nash count, exact social optimum, and the exact Price of
// Anarchy / Price of Stability of the instance.
type EquilibriumCensus = poa.Census

// ExhaustiveEquilibriumCensus enumerates every strategy profile of a
// game with at most 5 agents and classifies the exact Nash equilibria,
// yielding the instance's exact PoA and PoS (the paper's conclusion
// poses the PoS analysis as future work; Cor. 3 implies PoS = 1 for
// tree metrics, which the census confirms). Exponential in n².
func ExhaustiveEquilibriumCensus(g *Game) (EquilibriumCensus, error) {
	return poa.ExhaustiveCensus(g)
}

// BestResponse is a computed best response: the agent, the strategy (as
// sorted node indices) and the cost it achieves.
type BestResponse struct {
	Agent    int
	Strategy []int
	Cost     float64
}

func fromResult(r bestresponse.Result) BestResponse {
	return BestResponse{Agent: r.Agent, Strategy: r.Strategy.Elems(), Cost: r.Cost}
}

// ExactBestResponse computes agent u's optimal strategy by
// branch-and-bound over the paper's facility-location formulation.
// Worst-case exponential (best response is NP-hard in every variant,
// Cor. 1); practical for hosts up to a few dozen agents.
func ExactBestResponse(s *State, u int) BestResponse {
	return fromResult(bestresponse.Exact(s, u))
}

// ApproxBestResponse computes a 3-approximate best response by facility
// local search (Thm 3), polynomial time.
func ApproxBestResponse(s *State, u int) BestResponse {
	return fromResult(bestresponse.ApproxLocalSearch(s, u))
}

// IsNashEquilibrium reports whether no agent has any improving strategy
// change, by exact best responses for every agent (exponential worst
// case; intended for verification at small n).
func IsNashEquilibrium(s *State) bool { return bestresponse.IsNash(s) }

// IsGreedyEquilibrium reports whether no agent improves by a single buy,
// delete or swap (polynomial).
func IsGreedyEquilibrium(s *State) bool { return s.IsGreedyEquilibrium() }

// IsAddOnlyEquilibrium reports whether no agent improves by a single buy.
func IsAddOnlyEquilibrium(s *State) bool { return s.IsAddOnlyEquilibrium() }

// VerifyOptions configures a certified parallel greedy-equilibrium
// verification: worker count (0 = GOMAXPROCS), exact vs pruned scans for
// uncertified agents, and whether gain-bound certificates may skip
// agents.
type VerifyOptions = game.VerifyOptions

// VerifyResult reports a certified verification: stability, the first
// improving agent, and how many agents the certificates skipped. The
// result is identical for every worker count.
type VerifyResult = game.VerifyResult

// GainCertificate is a per-agent upper bound on the gain of any single
// acquiring move, used by VerifyGreedyEquilibrium to skip provably
// stable agents without scanning their candidates.
type GainCertificate = game.GainCertificate

// VerifyGreedyEquilibrium checks the greedy-equilibrium property by
// sharding per-agent checks across a worker pool, with gain-bound
// certificates skipping agents whose best single move is provably not
// improving. Read-only on s; the verdict is bit-identical to a serial
// in-order scan for any worker count.
func VerifyGreedyEquilibrium(s *State, opt VerifyOptions) VerifyResult {
	return game.VerifyGreedyEquilibrium(s, opt)
}

// NashVerification reports a sharded exact-Nash check: the verdict, the
// first deviating agent (-1 if none) and the worker count used.
type NashVerification = bestresponse.NashReport

// VerifyNashEquilibrium checks the exact Nash property with an explicit
// worker budget (0 = GOMAXPROCS), one exact best response per agent.
// Exponential worst case; intended for small n.
func VerifyNashEquilibrium(s *State, workers int) NashVerification {
	return bestresponse.VerifyNashWorkers(s, workers)
}

// NashApproxFactor returns the smallest β for which the state is a β-NE.
func NashApproxFactor(s *State) float64 { return bestresponse.NashApproxFactor(s) }

// GreedyApproxFactor returns the smallest β for which the state is a
// β-GE.
func GreedyApproxFactor(s *State) float64 { return s.GreedyApproxFactor() }

// OptimumCandidate is a social-optimum candidate network.
type OptimumCandidate = opt.Result

// SocialOptimumExact computes the social optimum by exhaustive search
// (n <= 7).
func SocialOptimumExact(g *Game) (OptimumCandidate, error) { return opt.ExactSmall(g) }

// SocialOptimumHeuristic returns the best of the MST, complete-graph and
// local-search optimum candidates: an upper bound on OPT for any size.
func SocialOptimumHeuristic(g *Game) OptimumCandidate { return opt.BestCandidate(g, 400) }

// SocialOptimumLowerBound returns the certified lower bound
// α·MST(H) + Σ_{u,v} t(u,v)·d_H(u,v) on the social optimum cost, with t
// the game's demand (the edge term drops when the demand leaves some
// agent apart).
func SocialOptimumLowerBound(g *Game) float64 { return opt.LowerBound(g) }

// Algorithm1 computes the social optimum of a 1-2 host for α <= 1 by the
// paper's triangle-removal algorithm (Thm 6), polynomial time.
func Algorithm1(h *Host) (OptimumCandidate, error) { return opt.Algorithm1(h) }

// EvaluateCandidate fills in the social cost of an optimum candidate for
// game g.
func EvaluateCandidate(g *Game, r OptimumCandidate) OptimumCandidate {
	return opt.Evaluate(g, r)
}

// IsKSpanner reports whether the state's network is a k-spanner of the
// host (Lemmas 1-2 assert this for AE networks with k = α+1 and optima
// with k = α/2+1).
func IsKSpanner(s *State, k float64) bool {
	return spanner.IsKSpanner(s.Network(), s.G.Host, k, s.G.Eps)
}

// Stretch returns the maximum distance stretch of the state's network
// over the host metric: the smallest k for which it is a k-spanner.
func Stretch(s *State) float64 { return spanner.Stretch(s.Network(), s.G.Host) }

// LowerBoundConstruction is a PoA lower-bound instance from the paper:
// game, equilibrium candidate, optimum candidate and predicted ratio.
type LowerBoundConstruction = constructions.LowerBound

// Thm15Star builds the T–GNCG star family of Thm 15/Fig. 6 (ratio →
// (α+2)/2).
func Thm15Star(n int, alpha float64) (*LowerBoundConstruction, error) {
	return constructions.Thm15Star(n, alpha)
}

// Thm19CrossPolytope builds the ℓ1 cross-polytope family of Thm 19 /
// Fig. 10 (ratio = 1 + α/(2+α/(2d-1))).
func Thm19CrossPolytope(d int, alpha float64) (*LowerBoundConstruction, error) {
	return constructions.Thm19CrossPolytope(d, alpha)
}

// Thm18FourPoint builds the four-point geometric witness of Thm 18.
func Thm18FourPoint(alpha float64) (*LowerBoundConstruction, error) {
	return constructions.Thm18FourPoint(alpha)
}

// Thm20Triangle builds the non-metric triangle witness with ratio
// (α+2)/2 and pairwise σ of ((α+2)/2)².
func Thm20Triangle(alpha float64) (*LowerBoundConstruction, error) {
	return constructions.Thm20Triangle(alpha)
}

// Thm8AlphaOne builds the 1-2 clique-of-stars family for α = 1 (ratio →
// 3/2).
func Thm8AlphaOne(N int) (*LowerBoundConstruction, error) {
	return constructions.Thm8AlphaOne(N)
}

// Thm8HalfToOne builds the 1-2 clique-of-stars family for 1/2 <= α < 1
// (ratio → 3/(α+2)).
func Thm8HalfToOne(N int, alpha float64) (*LowerBoundConstruction, error) {
	return constructions.Thm8HalfToOne(N, alpha)
}
