package rules

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"gncg/internal/bestresponse"
	"gncg/internal/game"
	"gncg/internal/gen"
	"gncg/internal/metric"
)

// randMatrixHost builds a random symmetric host with weights in
// [0.5, 4.5] — every pair buyable, so all three models price every move
// finitely and the certificate bounds are stressed on real numbers.
func randMatrixHost(t *testing.T, rng *rand.Rand, n int) *game.Host {
	t.Helper()
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w[i][j] = 0.5 + 4*rng.Float64()
			w[j][i] = w[i][j]
		}
	}
	h, err := game.HostFromMatrix(w)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func randProfile(rng *rand.Rand, n int, p float64) game.Profile {
	prof := game.EmptyProfile(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if v != u && rng.Float64() < p {
				prof.Buy(u, v)
			}
		}
	}
	return prof
}

// modelAlpha picks a regime where the parameter bites: a mid-range edge
// price for sum and unit, a budget that random profiles straddle (some
// agents over, some under) for budget.
func modelAlpha(model string, rng *rand.Rand) float64 {
	if model == "budget" {
		return 3 + 5*rng.Float64()
	}
	return 0.5 + 6*rng.Float64()
}

// TestCertificateSoundness is the game package's certificate test run
// across the whole rules registry: under every cost model, whenever an
// agent's gain-bound certificate rules out acquisitions, exhaustive
// evaluation of its (feasibility-filtered) buys and swaps must agree
// that none improves. Random — not settled — states stress the bounds
// hardest; the budget cells additionally exercise certificates on
// infeasible-start states, where the repair rule shapes the move set.
func TestCertificateSoundness(t *testing.T) {
	for _, model := range Names() {
		r := MustByName(model)
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(100 + seed))
			n := 6 + rng.Intn(5)
			g := game.NewWithRules(randMatrixHost(t, rng, n), modelAlpha(model, rng), r)
			s := game.NewState(g, randProfile(rng, n, 0.4))
			for u := 0; u < n; u++ {
				cur := s.Cost(u)
				cert, ok := s.AcquireGainCertificate(u)
				if !ok || !cert.RulesOutAcquisitions(g.Eps) {
					continue
				}
				for _, m := range s.CandidateMoves(u) {
					if m.Kind == game.Delete {
						continue
					}
					if after := s.CostAfter(m); g.Improves(after, cur) {
						t.Fatalf("%s seed %d: certificate for agent %d ruled out acquisitions, but %v improves %v -> %v (bound %v + refund %v, slack %v)",
							model, seed, u, m, cur, after, cert.AcquireBound, cert.MaxRefund, cert.Slack)
					}
				}
			}
		}
	}
}

// serialOracleVerify is the reference the parallel verifier is pinned
// against: an in-order exhaustive scan of every agent with the unpruned
// exact oracle (which applies the model's feasibility predicate to
// every candidate, so it is the right serial referee for all models).
func serialOracleVerify(s *game.State) (stable bool, firstImproving int) {
	stable, firstImproving = true, -1
	for u := 0; u < s.G.N(); u++ {
		if _, _, improving := s.BestSingleMoveExact(u); improving {
			return false, u
		}
	}
	return stable, firstImproving
}

// settle plays greedy round-robin dynamics in place for at most
// maxRounds rounds, producing near-equilibrium states where the
// certificates actually fire.
func settle(s *game.State, maxRounds int) {
	n := s.G.N()
	for r := 0; r < maxRounds; r++ {
		moved := false
		for u := 0; u < n; u++ {
			if m, _, ok := s.BestSingleMove(u); ok {
				s.Apply(m)
				moved = true
			}
		}
		if !moved {
			return
		}
	}
}

// TestVerifierWorkerInvariance extends the verifier's sharding contract
// to the rules registry: under every model, the parallel verifier's
// verdict (Stable, FirstImproving) is bit-identical to the serial exact
// oracle for worker counts {1, 4, GOMAXPROCS} and both scan oracles,
// and CertSkipped is identical across worker counts. Run under -race in CI this also checks per-worker clone
// isolation on the non-default models' code paths.
func TestVerifierWorkerInvariance(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, model := range Names() {
		r := MustByName(model)
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(200 + seed))
			n := 6 + rng.Intn(5)
			g := game.NewWithRules(randMatrixHost(t, rng, n), modelAlpha(model, rng), r)
			s := game.NewState(g, randProfile(rng, n, 0.3))
			if seed%2 == 1 {
				settle(s, 8)
			}
			wantStable, wantFirst := serialOracleVerify(s.Clone())
			wantSkipped := -1
			for _, workers := range workerCounts {
				for _, exact := range []bool{false, true} {
					res := game.VerifyGreedyEquilibrium(s, game.VerifyOptions{Workers: workers, Exact: exact})
					if res.Stable != wantStable || res.FirstImproving != wantFirst {
						t.Fatalf("%s seed %d workers=%d exact=%v: got (stable=%v first=%d), oracle (stable=%v first=%d)",
							model, seed, workers, exact,
							res.Stable, res.FirstImproving, wantStable, wantFirst)
					}
					if wantSkipped == -1 {
						wantSkipped = res.CertSkipped
					} else if res.CertSkipped != wantSkipped {
						t.Fatalf("%s seed %d workers=%d exact=%v: CertSkipped=%d, want %d (must be worker-invariant)",
							model, seed, workers, exact, res.CertSkipped, wantSkipped)
					}
				}
			}
		}
	}
}

// TestUnitCoincidesWithSumOnUnitHost: on a unit-weight host the flat
// per-edge price equals the per-unit-weight price, so the two models
// are the same game — every agent cost and every greedy move must
// agree exactly.
func TestUnitCoincidesWithSumOnUnitHost(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 9
	alpha := 1.7
	gSum := game.New(game.NewHost(metric.Unit{N: n}), alpha)
	gUnit := game.NewWithRules(game.NewHost(metric.Unit{N: n}), alpha, MustByName("unit"))
	for trial := 0; trial < 6; trial++ {
		p := randProfile(rng, n, 0.35)
		sSum := game.NewState(gSum, p.Clone())
		sUnit := game.NewState(gUnit, p.Clone())
		for u := 0; u < n; u++ {
			if cs, cu := sSum.Cost(u), sUnit.Cost(u); cs != cu {
				t.Fatalf("trial %d agent %d: sum cost %v, unit cost %v", trial, u, cs, cu)
			}
			mS, cS, okS := sSum.BestSingleMoveExact(u)
			mU, cU, okU := sUnit.BestSingleMoveExact(u)
			if okS != okU || (okS && (mS != mU || cS != cU)) {
				t.Fatalf("trial %d agent %d: sum move (%v,%v,%v) != unit move (%v,%v,%v)",
					trial, u, mS, cS, okS, mU, cU, okU)
			}
		}
	}
}

// TestBudgetFeasibility pins the budget model's two predicates: the
// profile-level budget check and the single-move repair rule (a move
// from an over-budget strategy is admissible iff it lands within budget
// or strictly reduces spend — so infeasible starts can always repair,
// and feasible states can never leave the budget set).
func TestBudgetFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 8
	h := randMatrixHost(t, rng, n)
	budget := MustByName("budget")

	// Mean incident weight as the budget scale: one edge affordable,
	// a full star not.
	meanW := 0.0
	for v := 1; v < n; v++ {
		meanW += h.Weight(0, v)
	}
	meanW /= float64(n - 1)
	g := game.NewWithRules(h, 2*meanW, budget)

	star := game.NewState(g, game.StarProfile(n, 0))
	if star.FeasibleProfile() {
		t.Fatalf("full star (spend %v) should exceed budget %v", game.SpendOnStrategy(g, 0, star.P.S[0]), g.Alpha)
	}
	if game.NewState(g, game.EmptyProfile(n)).FeasibleProfile() != true {
		t.Fatal("empty profile must be budget-feasible")
	}

	// Repair rule: from the over-budget star, every delete by the
	// center reduces spend and must be admissible; every buy by a leaf
	// that stays within budget must be admissible too.
	r := g.Rules()
	for _, m := range star.CandidateMoves(0) {
		if m.Kind != game.Delete {
			spend := game.SpendOnStrategy(g, 0, m.NewStrategy(star.P.S[0]))
			if spend > g.Alpha+g.Eps && spend >= game.SpendOnStrategy(g, 0, star.P.S[0]) {
				t.Fatalf("over-budget center offered non-repair move %v (spend %v, budget %v)", m, spend, g.Alpha)
			}
		}
	}
	if !r.MoveFeasible(g, star.P.S[0], game.Move{Agent: 0, Kind: game.Delete, V: 1}) {
		t.Fatal("spend-reducing delete must be admissible from an over-budget state")
	}

	// A feasible agent must be refused any move that would overspend.
	oneEdge := game.EmptyProfile(n)
	oneEdge.Buy(1, 2)
	s := game.NewState(g, oneEdge)
	over := 0
	for v := 0; v < n; v++ {
		if v == 1 || s.P.S[1].Has(v) {
			continue
		}
		m := game.Move{Agent: 1, Kind: game.Buy, V: v}
		spend := game.SpendOnStrategy(g, 1, m.NewStrategy(s.P.S[1]))
		if spend > g.Alpha+g.Eps {
			over++
			if r.MoveFeasible(g, s.P.S[1], m) {
				t.Fatalf("buy %v admitted despite spend %v > budget %v", m, spend, g.Alpha)
			}
		}
	}
	if over == 0 {
		t.Fatal("test regime too loose: no candidate buy exceeded the budget")
	}
}

// TestExactNashTierRejectsBudget: the UMFL exact-Nash tier must refuse
// the budget model loudly (multi-edge deviations are not per-edge
// separable there), not silently return an unsound verdict.
func TestExactNashTierRejectsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 6
	g := game.NewWithRules(randMatrixHost(t, rng, n), 5, MustByName("budget"))
	s := game.NewState(g, game.StarProfile(n, 0))
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("VerifyNashWorkers accepted the budget model; want panic")
		}
		msg, ok := rec.(string)
		if !ok || !strings.Contains(msg, "budget") {
			t.Fatalf("panic %v does not name the rejected model", rec)
		}
	}()
	bestresponse.VerifyNashWorkers(s, 2)
}

// TestRegistry pins the registry surface: sorted names, lookup of every
// name, a helpful error for unknown models, and the default identity.
func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"budget", "sum", "unit"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	for _, name := range names {
		r, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if r.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, r.Name())
		}
	}
	if _, err := ByName("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("ByName(unknown) error %v should name the model", err)
	}
	if game.New(randMatrixHost(t, rand.New(rand.NewSource(1)), 4), 1).Rules().Name() != "sum" {
		t.Fatal("default game rules are not the sum model")
	}
}

// TestBudgetSpendMatchesNewStrategy: on every buy, delete and swap of
// every agent of a random profile on a small tree host, the spend
// MoveFeasible computes on the fly is bit-equal to SpendOnStrategy of
// the strategy the move builds, before and after the move.
func TestBudgetSpendMatchesNewStrategy(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(7))
	g := game.NewWithRules(game.NewHost(gen.Tree(7, n, 1, 6)), 10, Budget{})
	p := randProfile(rng, n, 0.3)
	checked := 0
	for u := 0; u < n; u++ {
		cur := p.S[u]
		var moves []game.Move
		for v := 0; v < n; v++ {
			if v == u {
				continue
			}
			if !cur.Has(v) {
				moves = append(moves, game.Move{Agent: u, Kind: game.Buy, V: v})
				continue
			}
			moves = append(moves, game.Move{Agent: u, Kind: game.Delete, V: v})
			for x := 0; x < n; x++ {
				if x != u && !cur.Has(x) {
					moves = append(moves, game.Move{Agent: u, Kind: game.Swap, V: v, X: x})
				}
			}
		}
		for _, m := range moves {
			spent, next := spendBeforeAfter(g, cur, m)
			wantSpent := game.SpendOnStrategy(g, u, cur)
			wantNext := game.SpendOnStrategy(g, u, m.NewStrategy(cur))
			if math.Float64bits(spent) != math.Float64bits(wantSpent) || math.Float64bits(next) != math.Float64bits(wantNext) {
				t.Fatalf("%v: spend %v -> %v, SpendOnStrategy gives %v -> %v", m, spent, next, wantSpent, wantNext)
			}
			checked++
		}
	}
	if checked < n {
		t.Fatalf("only %d moves checked", checked)
	}
}

// TestBudgetMoveFeasibleAllocatesNothing: MoveFeasible prices a move
// without cloning the agent's strategy.
func TestBudgetMoveFeasibleAllocatesNothing(t *testing.T) {
	const n = 1000
	g := game.NewWithRules(game.NewHost(gen.Tree(7, n, 1, 6)), n, Budget{})
	cur := game.PathProfile(n, []int{0, 1}).S[0] // agent 0 owns (0,1)
	for _, m := range []game.Move{
		{Agent: 0, Kind: game.Buy, V: 700},
		{Agent: 0, Kind: game.Delete, V: 1},
		{Agent: 0, Kind: game.Swap, V: 1, X: 700},
	} {
		if allocs := testing.AllocsPerRun(100, func() { Budget{}.MoveFeasible(g, cur, m) }); allocs != 0 {
			t.Fatalf("MoveFeasible(%v) allocated %v times per run, want 0", m, allocs)
		}
	}
}
