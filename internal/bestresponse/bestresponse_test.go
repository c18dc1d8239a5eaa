package bestresponse

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"gncg/internal/game"
	"gncg/internal/metric"
	"gncg/internal/rules"
)

func randomPointGame(rng *rand.Rand, n int, alpha float64) *game.Game {
	coords := make([][]float64, n)
	for i := range coords {
		coords[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	pts, err := metric.NewPoints(coords, 2)
	if err != nil {
		panic(err)
	}
	return game.New(game.NewHost(pts), alpha)
}

func randomState(rng *rand.Rand, g *game.Game, p float64) *game.State {
	n := g.N()
	prof := game.EmptyProfile(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				prof.Buy(u, v)
			}
		}
	}
	return game.NewState(g, prof)
}

// TestExactMatchesBruteForce is the ground-truth test for the UMFL
// mapping: the facility-location best response must equal the exhaustive
// best response on the real network, for every agent, on random states.
func TestExactMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6) // brute force is 2^(n-1) network evaluations
		g := randomPointGame(rng, n, 0.2+3*rng.Float64())
		s := randomState(rng, g, 0.35)
		for u := 0; u < n; u++ {
			exact := Exact(s, u)
			brute := BruteForce(s, u)
			if math.Abs(exact.Cost-brute.Cost) > 1e-6 {
				t.Logf("seed %d agent %d: exact %v brute %v", seed, u, exact.Cost, brute.Cost)
				return false
			}
			// The returned strategy must actually achieve the reported cost.
			check := s.Clone()
			check.SetStrategy(u, exact.Strategy)
			if math.Abs(check.Cost(u)-exact.Cost) > 1e-6 {
				t.Logf("seed %d agent %d: strategy cost %v reported %v", seed, u, check.Cost(u), exact.Cost)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestExactOnNonMetricHost: the UMFL identity holds for arbitrary hosts,
// not just metric ones — verify against brute force on random non-metric
// weight matrices.
func TestExactOnNonMetricHost(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := rng.Float64() * 10
				w[i][j], w[j][i] = v, v
			}
		}
		h, err := game.HostFromMatrix(w)
		if err != nil {
			return false
		}
		g := game.New(h, 0.3+2*rng.Float64())
		s := randomState(rng, g, 0.3)
		for u := 0; u < n; u++ {
			if math.Abs(Exact(s, u).Cost-BruteForce(s, u).Cost) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestExactNeverRebuysGiftedEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomPointGame(rng, 7, 1)
	s := randomState(rng, g, 0.5)
	for u := 0; u < 7; u++ {
		br := Exact(s, u)
		for _, v := range br.Strategy.Elems() {
			if s.P.Buys(v, u) {
				t.Fatalf("agent %d best response re-buys edge already bought by %d", u, v)
			}
		}
	}
}

// TestApproxWithin3OnMetric: Thm 3 — local-search responses are
// 3-approximate best responses on metric hosts.
func TestApproxWithin3OnMetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		g := randomPointGame(rng, n, 0.2+3*rng.Float64())
		s := randomState(rng, g, 0.3)
		for u := 0; u < n; u++ {
			approx := ApproxLocalSearch(s, u)
			exact := Exact(s, u)
			if math.IsInf(approx.Cost, 1) {
				return false
			}
			if approx.Cost > 3*exact.Cost+1e-6 {
				t.Logf("seed %d agent %d: approx %v > 3x exact %v", seed, u, approx.Cost, exact.Cost)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestIsNashOnKnownEquilibrium(t *testing.T) {
	// Unit NCG, alpha = 2: center-owned star is a classic NE.
	n := 6
	g := game.New(game.NewHost(metric.Unit{N: n}), 2)
	p := game.EmptyProfile(n)
	for v := 1; v < n; v++ {
		p.Buy(0, v)
	}
	s := game.NewState(g, p)
	if !IsNash(s) {
		t.Fatal("unit star at alpha=2 must be a Nash equilibrium")
	}
	if got := NashApproxFactor(s); got != 1 {
		t.Fatalf("NE has approx factor %v, want 1", got)
	}
	if _, ok := FirstDeviation(s); ok {
		t.Fatal("NE must have no deviation")
	}
}

func TestIsNashDetectsDeviation(t *testing.T) {
	// Unit NCG, alpha = 0.5: a star is NOT an NE (leaves want more edges).
	n := 6
	g := game.New(game.NewHost(metric.Unit{N: n}), 0.5)
	p := game.EmptyProfile(n)
	for v := 1; v < n; v++ {
		p.Buy(0, v)
	}
	s := game.NewState(g, p)
	if IsNash(s) {
		t.Fatal("unit star at alpha=0.5 must not be a Nash equilibrium")
	}
	dev, ok := FirstDeviation(s)
	if !ok {
		t.Fatal("deviation expected")
	}
	check := s.Clone()
	check.SetStrategy(dev.Agent, dev.Strategy)
	if !(check.Cost(dev.Agent) < s.Cost(dev.Agent)) {
		t.Fatal("reported deviation does not improve")
	}
	if f := NashApproxFactor(s); f <= 1 {
		t.Fatalf("non-NE approx factor = %v, want > 1", f)
	}
}

func TestExactFromEmptyProfile(t *testing.T) {
	// From the empty network an agent's best response must buy something
	// (infinite cost otherwise) and the cheapest full-connection choice
	// for n=2 is the single edge.
	rng := rand.New(rand.NewSource(9))
	g := randomPointGame(rng, 2, 1)
	s := game.NewState(g, game.EmptyProfile(2))
	br := Exact(s, 0)
	if math.IsInf(br.Cost, 1) || br.Strategy.Count() != 1 {
		t.Fatalf("best response from empty 2-agent game: cost %v strategy %v", br.Cost, br.Strategy.Elems())
	}
	want := (g.Alpha + 1) * g.Host.Weight(0, 1)
	if math.Abs(br.Cost-want) > 1e-9 {
		t.Fatalf("cost = %v, want %v", br.Cost, want)
	}
}

// TestNashApproxFactorMonotone: states closer to equilibrium (after
// applying a best response) cannot have a larger deviation incentive for
// the agent that moved.
func TestNashApproxFactorMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := randomPointGame(rng, 7, 1.5)
	s := randomState(rng, g, 0.4)
	br := Exact(s, 3)
	s.SetStrategy(3, br.Strategy)
	again := Exact(s, 3)
	if g.Improves(again.Cost, s.Cost(3)) {
		t.Fatal("agent can improve immediately after playing its exact best response")
	}
}

// TestBudgetRefusalReachesCaller: under the budget model the UMFL
// reduction refuses with a panic raised inside the parallel per-agent
// loop. The caller must be able to recover that refusal; a panic left on
// a worker goroutine would kill the whole process instead.
func TestBudgetRefusalReachesCaller(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // run the loop on worker goroutines
	}
	rng := rand.New(rand.NewSource(3))
	g := randomPointGame(rng, 6, 5)
	g.SetRules(rules.Budget{})
	s := game.NewState(g, game.StarProfile(6, 0))
	for name, call := range map[string]func(){
		"NashApproxFactor": func() { NashApproxFactor(s) },
		"FirstDeviation":   func() { FirstDeviation(s) },
	} {
		func() {
			defer func() {
				r := recover()
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "budget") {
					t.Errorf("%s: recovered %v, want the budget-model refusal", name, r)
				}
			}()
			call()
		}()
	}
}
