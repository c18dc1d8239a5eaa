// Package gncg is a complete implementation of Geometric Network Creation
// Games (Bilò, Friedrich, Lenzner, Melnichenko; SPAA 2019): the network
// creation game of Fabrikant et al. generalized to edge-weighted host
// graphs, where agent u buys incident edges at price α·w(u,v) and pays
// its total shortest-path distance to all other agents.
//
// The package exposes the game model (hosts, profiles, states, costs),
// every host-graph class the paper studies (general weights, metric,
// tree metric, {1,2}, points in R^d under p-norms, {1,∞}, unit), exact
// and approximate best-response solvers (via the paper's facility-
// location reduction), equilibrium checks (Nash, greedy, add-only and
// β-approximate variants), move dynamics with improving-move-cycle
// detection, social-optimum solvers, and programmatic builders for every
// construction in the paper's proofs. The cmd/experiments tool and the
// root benchmark suite regenerate the paper's Table 1 and Figures 1-10.
//
// Hosts are lazy: a Host wraps its distance space (points under a p-norm,
// a tree metric, a {1,2}/{1,∞}/unit host, or an explicit matrix) and
// computes weights on demand, so building a game on an n-point geometric
// host costs O(n) memory — 10k+ agents are practical. Classification and
// metricity checks answer structurally in O(1) for implicit spaces. The
// dense O(n²) matrix exists only after an explicit DensifyHost /
// Host.Matrix call and is memoized and shared; callers must not mutate
// it.
//
// Quick start:
//
//	host, _ := gncg.HostFromPoints([][]float64{{0, 0}, {3, 0}, {0, 4}}, 2)
//	g := gncg.NewGame(host, 1.5)
//	s := gncg.NewState(g, gncg.EmptyProfile(g.N()))
//	res := gncg.RunBestResponseDynamics(s, 1000)
//	fmt.Println(res.Outcome, gncg.IsNashEquilibrium(s), s.SocialCost())
package gncg

import (
	"fmt"
	"math"

	"gncg/internal/game"
	"gncg/internal/graph"
	"gncg/internal/metric"
	"gncg/internal/rules"
)

// Core model types, re-exported from the internal engine.
type (
	// Game couples a host graph with the edge price parameter α.
	Game = game.Game
	// Host is a complete weighted host graph.
	Host = game.Host
	// Profile is a strategy profile: S[u] is the set of nodes agent u
	// buys an edge towards.
	Profile = game.Profile
	// State is a profile bound to its game with the created network
	// materialized; all cost queries go through it.
	State = game.State
	// Move is a single-edge strategy change (buy, delete or swap).
	Move = game.Move
	// OwnedEdge names a directed purchase: Owner buys the edge to To.
	OwnedEdge = game.OwnedEdge
	// Edge is an undirected weighted edge, used for optimum candidates
	// and network descriptions.
	Edge = graph.Edge
	// ModelClass locates a host in the paper's model hierarchy (Fig. 1).
	ModelClass = metric.Class
	// Rules is a pluggable cost model: the edge-cost, distance-cost and
	// feasibility hooks that turn the one engine into the whole NCG
	// family. Its methods price and admit strategies handed to them
	// (StrategyCost(g, u, strat), MoveFeasible(g, cur, m)), never a
	// State. Games default to the paper's sum-distance model.
	Rules = game.Rules
)

// Move kinds.
const (
	Buy    = game.Buy
	Delete = game.Delete
	Swap   = game.Swap
)

// Model classes (Fig. 1).
const (
	ClassGNCG   = metric.ClassGeneral
	ClassOneInf = metric.ClassOneInf
	ClassMetric = metric.ClassMetric
	ClassOneTwo = metric.ClassOneTwo
	ClassNCG    = metric.ClassUnit
)

// NewGame returns the GNCG on host h with edge-price parameter alpha > 0,
// under the paper's sum-distance cost model.
func NewGame(h *Host, alpha float64) *Game { return game.New(h, alpha) }

// NewGameWithRules returns a game on host h under an explicit cost model
// (see RulesByName; nil means the default sum-distance model). The alpha
// parameter keeps its model-specific meaning: per-unit-weight edge price
// under "sum", flat per-edge price under "unit", per-agent budget under
// "budget".
func NewGameWithRules(h *Host, alpha float64, r Rules) *Game {
	return game.NewWithRules(h, alpha, r)
}

// RulesByName resolves a registered cost-model name — "sum" (the paper's
// model, the default), "budget" (bounded-budget NCG: alpha is a
// per-agent budget on purchased host weight, edges are otherwise free),
// "unit" (flat price alpha per edge, the classic Fabrikant model) — to
// its Rules value.
func RulesByName(name string) (Rules, error) { return rules.ByName(name) }

// RuleSetNames lists the registered cost-model names in sorted order.
func RuleSetNames() []string { return rules.Names() }

// NewState binds a profile to a game and materializes its network.
func NewState(g *Game, p Profile) *State { return game.NewState(g, p) }

// EmptyProfile returns the profile where nobody buys anything.
func EmptyProfile(n int) Profile { return game.EmptyProfile(n) }

// StarProfile returns the profile where center buys an edge to everyone.
func StarProfile(n, center int) Profile { return game.StarProfile(n, center) }

// ProfileFromOwnedEdges builds a profile from an explicit purchase list.
func ProfileFromOwnedEdges(n int, edges []OwnedEdge) (Profile, error) {
	return game.ProfileFromOwnedEdges(n, edges)
}

// ProfileFromEdgeSet assigns each undirected edge to its lower-numbered
// endpoint.
func ProfileFromEdgeSet(n int, edges []Edge) Profile {
	return game.ProfileFromEdgeSet(n, edges)
}

// HostFromMatrix builds a host from an explicit symmetric weight matrix
// (the general GNCG; +Inf entries mark unbuyable pairs).
func HostFromMatrix(w [][]float64) (*Host, error) { return game.HostFromMatrix(w) }

// HostFromPoints builds an Rd–GNCG host: points in R^d under the p-norm
// (p >= 1, or math.Inf(1) for the max norm).
func HostFromPoints(coords [][]float64, p float64) (*Host, error) {
	pts, err := metric.NewPoints(coords, p)
	if err != nil {
		return nil, err
	}
	return game.NewHost(pts), nil
}

// HostFromTree builds a T–GNCG host: the metric closure of a weighted
// tree on n nodes given by its n-1 edges.
func HostFromTree(n int, edges []Edge) (*Host, error) {
	tm, err := metric.NewTreeMetric(n, edges)
	if err != nil {
		return nil, err
	}
	return game.NewHost(tm), nil
}

// HostFromOneTwo builds a 1-2–GNCG host: weight 1 on the listed pairs,
// weight 2 elsewhere.
func HostFromOneTwo(n int, oneEdges [][2]int) (*Host, error) {
	ot, err := metric.NewOneTwo(n, oneEdges)
	if err != nil {
		return nil, err
	}
	return game.NewHost(ot), nil
}

// HostFromOneInf builds a 1-∞–GNCG host: weight 1 on the listed pairs,
// unbuyable (+Inf) elsewhere.
func HostFromOneInf(n int, oneEdges [][2]int) (*Host, error) {
	oi, err := metric.NewOneInf(n, oneEdges)
	if err != nil {
		return nil, err
	}
	return game.NewHost(oi), nil
}

// UnitHost builds the original NCG host: all weights 1.
func UnitHost(n int) *Host { return game.NewHost(metric.Unit{N: n}) }

// ClassifyHost returns the most specific model class of the host within
// tolerance eps. Hosts built from implicit spaces (points, trees, unit,
// {1,2}, {1,∞}) answer structurally in O(1); matrix-backed hosts run the
// dense validators over their memoized view.
func ClassifyHost(h *Host, eps float64) ModelClass { return h.Classify(eps) }

// IsMetricHost reports whether the host satisfies the triangle
// inequality, structurally in O(1) where the backing space allows it (see
// ClassifyHost) and via the dense O(n³) validator otherwise.
func IsMetricHost(h *Host, eps float64) bool { return h.IsMetric(eps) }

// DensifyHost materializes and memoizes the host's dense weight matrix:
// O(n²) memory, an explicit opt-in for code that genuinely needs the full
// matrix. Hosts never densify on their own — Weight, costs, dynamics and
// classification of implicit spaces all run lazily in O(n) host memory.
// The returned matrix is shared with the host; callers must not mutate
// it.
func DensifyHost(h *Host) [][]float64 { return h.Densify() }

// Validate sanity-checks a profile against a game (sizes, self-loops are
// impossible by construction; this confirms dimensions for deserialized
// data).
func Validate(g *Game, p Profile) error {
	if p.N() != g.N() {
		return fmt.Errorf("gncg: profile over %d agents, game has %d", p.N(), g.N())
	}
	return nil
}

// Inf is the +Inf weight marker used for unbuyable pairs and
// disconnected distances.
func Inf() float64 { return math.Inf(1) }
