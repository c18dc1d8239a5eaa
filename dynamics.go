package gncg

import (
	"math/rand"

	"gncg/internal/dynamics"
	"gncg/internal/game"
)

// DynamicsResult reports how a dynamics run ended.
type DynamicsResult = dynamics.Result

// Dynamics outcomes.
const (
	// Converged: a full round passed with no agent moving.
	Converged = dynamics.Converged
	// CycleDetected: a strategy profile recurred, certifying an
	// improving-move cycle (no finite improvement property).
	CycleDetected = dynamics.CycleDetected
	// Exhausted: the move budget ran out.
	Exhausted = dynamics.Exhausted
)

// RunBestResponseDynamics iterates exact best responses in round-robin
// order, mutating s, until convergence (a Nash equilibrium), a state
// recurrence, or maxMoves moves.
func RunBestResponseDynamics(s *State, maxMoves int) DynamicsResult {
	return dynamics.Run(s, dynamics.BestResponseMover, dynamics.RoundRobin{}, maxMoves)
}

// ConvergenceBudget bounds a RunToConvergence call: deterministic round
// and move caps plus an optional machine-dependent wall-clock backstop.
// Zero values mean unlimited.
type ConvergenceBudget = dynamics.Budget

// ConvergenceResult reports how an equilibrium-seeking run ended,
// including the final social cost; its PoA method divides by an optimum
// bound (see SocialOptimumLowerBound) to give the empirical Price of
// Anarchy of the reached state.
type ConvergenceResult = dynamics.ConvergenceResult

// RunToConvergence drives a mover/scheduler combination until a full
// round passes with no improving move or the budget runs out. Unlike
// RunDynamics it keeps no history and detects no cycles — O(1) per-move
// overhead, the engine behind the equilibrium ladder at n = 10⁴. Use
// GreedyMover with RoundRobinScheduler for the paper's greedy dynamics,
// and AddOnlyMover with a zero budget for add-only dynamics, which
// always converge (every move buys a new edge).
func RunToConvergence(s *State, mover Mover, sched Scheduler, b ConvergenceBudget) ConvergenceResult {
	return dynamics.RunToConvergence(s, mover, sched, b)
}

// ConvergenceVerification is an independent certified re-check of a
// converged run: the parallel verifier's result plus the wall time it
// took.
type ConvergenceVerification = dynamics.Verification

// VerifyConvergence re-checks a converged RunToConvergence outcome with
// the certified parallel verifier (see VerifyGreedyEquilibrium). ok is
// false when the run did not converge — there is nothing to certify.
func VerifyConvergence(res ConvergenceResult, s *State, opt VerifyOptions) (ConvergenceVerification, bool) {
	return dynamics.VerifyConvergence(res, s, opt)
}

// CycleWitness is a machine-verified improving-move cycle.
type CycleWitness = dynamics.CycleWitness

// CycleSearchConfig controls FindImprovingCycle.
type CycleSearchConfig = dynamics.CycleSearchConfig

// FindImprovingCycle searches for an improving-move cycle by randomized
// dynamics with recurrence detection (the machine-checkable content of
// Thms 14 and 17). A returned witness should be re-validated with
// VerifyImprovingCycle.
func FindImprovingCycle(g *Game, cfg CycleSearchConfig) (CycleWitness, bool) {
	return dynamics.FindCycle(g, cfg)
}

// VerifyImprovingCycle replays a witness, checking every move strictly
// improved its mover and that the profile truly recurs.
func VerifyImprovingCycle(g *Game, w CycleWitness) bool {
	return dynamics.VerifyCycle(g, w)
}

// FIPWitness is a cycle extracted from the exhaustive improving-move
// graph of a (tiny) instance.
type FIPWitness = dynamics.FIPWitness

// ExhaustiveFIPCheck decides the finite improvement property for an
// instance with n <= 5 agents by building the full improving-move graph:
// hasCycle=false proves the FIP holds for the instance; a witness
// refutes it. Exponential in n².
func ExhaustiveFIPCheck(g *Game) (witness *FIPWitness, hasCycle bool, err error) {
	return dynamics.ExhaustiveFIP(g)
}

// VerifyFIPWitness replays an exhaustive-check witness.
func VerifyFIPWitness(g *Game, w *FIPWitness) bool {
	return dynamics.VerifyFIPWitness(g, w)
}

// Movers and schedulers for custom dynamics loops.
type (
	// Mover computes an agent's next strategy.
	Mover = dynamics.Mover
	// Scheduler orders agent activations per round.
	Scheduler = dynamics.Scheduler
)

// RunDynamics runs a custom mover/scheduler combination.
func RunDynamics(s *State, mover Mover, sched Scheduler, maxMoves int) DynamicsResult {
	return dynamics.Run(s, mover, sched, maxMoves)
}

// BestResponseMover, GreedyMover, AddOnlyMover and ApproxBRMover are the
// built-in move oracles.
var (
	BestResponseMover Mover = dynamics.BestResponseMover
	GreedyMover       Mover = dynamics.GreedyMover
	AddOnlyMover      Mover = dynamics.AddOnlyMover
	ApproxBRMover     Mover = dynamics.ApproxBRMover
)

// RoundRobinScheduler activates agents in index order.
func RoundRobinScheduler() Scheduler { return dynamics.RoundRobin{} }

// RandomScheduler activates agents in a fresh seeded permutation each
// round.
func RandomScheduler(seed int64) Scheduler {
	return dynamics.RandomOrder{Rng: rand.New(rand.NewSource(seed))}
}

// PathProfile returns the profile where consecutive agents in the given
// order buy the connecting edge.
func PathProfile(n int, order []int) Profile { return game.PathProfile(n, order) }
