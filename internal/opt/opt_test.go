package opt

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"gncg/internal/game"
	"gncg/internal/gen"
	"gncg/internal/graph"
	"gncg/internal/metric"
	"gncg/internal/parallel"
)

func randomOneTwoHost(rng *rand.Rand, n int, p float64) *game.Host {
	var ones [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				ones = append(ones, [2]int{u, v})
			}
		}
	}
	ot, err := metric.NewOneTwo(n, ones)
	if err != nil {
		panic(err)
	}
	return game.NewHost(ot)
}

func randomPointHost(rng *rand.Rand, n int) *game.Host {
	coords := make([][]float64, n)
	for i := range coords {
		coords[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	pts, err := metric.NewPoints(coords, 2)
	if err != nil {
		panic(err)
	}
	return game.NewHost(pts)
}

func TestAlgorithm1Structure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(8)
		h := randomOneTwoHost(rng, n, 0.4)
		res, err := Algorithm1(h)
		if err != nil {
			t.Fatal(err)
		}
		net := graph.FromEdges(n, res.Edges)
		// Contains all 1-edges, no 1-1-2 triangle, diameter <= 2.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if h.Weight(u, v) == 1 && !net.HasEdge(u, v) {
					t.Fatal("Algorithm1 dropped a 1-edge")
				}
			}
		}
		for _, e := range res.Edges {
			if e.W != 2 {
				continue
			}
			for x := 0; x < n; x++ {
				if x != e.U && x != e.V && h.Weight(e.U, x) == 1 && h.Weight(x, e.V) == 1 {
					t.Fatal("Algorithm1 kept a 2-edge closed by a 1-1 path")
				}
			}
		}
		if d := net.Diameter(); d > 2 {
			t.Fatalf("Algorithm1 network diameter %v > 2", d)
		}
	}
}

func TestAlgorithm1RejectsNonOneTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	if _, err := Algorithm1(randomPointHost(rng, 4)); err == nil {
		t.Fatal("geometric host accepted by Algorithm1")
	}
	// A unit host is a legal (degenerate) 1-2 host: the NCG is a special
	// case of the 1-2–GNCG, so it must be accepted.
	if _, err := Algorithm1(game.NewHost(metric.Unit{N: 3})); err != nil {
		t.Fatalf("unit host rejected: %v", err)
	}
}

// TestAlgorithm1IsOptimal: Thm 6 — for α <= 1 Algorithm 1's output equals
// the exhaustive social optimum.
func TestAlgorithm1IsOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4) // up to 6: exact search is cheap
		h := randomOneTwoHost(rng, n, 0.45)
		alpha := rng.Float64() // (0,1)
		g := game.New(h, alpha)
		res, err := Algorithm1(h)
		if err != nil {
			return false
		}
		algCost := Evaluate(g, res).Cost
		exact, err := ExactSmall(g)
		if err != nil {
			return false
		}
		return math.Abs(algCost-exact.Cost) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestExactSmallPath(t *testing.T) {
	// Two points far apart plus one in the middle: for moderate alpha the
	// optimum is the 2-edge path, not the triangle.
	coords := [][]float64{{0}, {1}, {2}}
	pts, err := metric.NewPoints(coords, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := game.New(game.NewHost(pts), 10)
	res, err := ExactSmall(g)
	if err != nil {
		t.Fatal(err)
	}
	net := graph.FromEdges(3, res.Edges)
	if net.M() != 2 || net.HasEdge(0, 2) {
		t.Fatalf("expected path OPT, got %v", res.Edges)
	}
	// cost = alpha*2 + distances (1+1+2)*2 = 20 + 8
	if math.Abs(res.Cost-28) > 1e-9 {
		t.Fatalf("OPT cost = %v, want 28", res.Cost)
	}
}

func TestExactSmallRefusesLargeN(t *testing.T) {
	g := game.New(game.NewHost(metric.Unit{N: 9}), 1)
	if _, err := ExactSmall(g); err == nil {
		t.Fatal("n=9 accepted by exact search")
	}
}

// TestExactSmallRespectsLowerBound and candidates: LB <= OPT <= heuristics.
func TestBoundsBracketExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		g := game.New(randomPointHost(rng, n), 0.2+3*rng.Float64())
		exact, err := ExactSmall(g)
		if err != nil {
			return false
		}
		lb := LowerBound(g)
		if exact.Cost < lb-1e-9 {
			t.Logf("seed %d: OPT %v below lower bound %v", seed, exact.Cost, lb)
			return false
		}
		for _, cand := range []Result{MSTCandidate(g), CompleteCandidate(g), BestCandidate(g, 100)} {
			if cand.Cost < exact.Cost-1e-9 {
				t.Logf("seed %d: candidate %v beats exact %v", seed, cand.Cost, exact.Cost)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestLocalSearchImprovesMST(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := game.New(randomPointHost(rng, 10), 0.5)
	mst := MSTCandidate(g)
	ls := LocalSearch(g, mst.Edges, g.Eps, 200)
	if ls.Cost > mst.Cost+1e-9 {
		t.Fatalf("local search worsened the candidate: %v -> %v", mst.Cost, ls.Cost)
	}
	if math.IsInf(ls.Cost, 1) {
		t.Fatal("local search returned disconnected candidate")
	}
}

func TestLocalSearchFromEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := game.New(randomPointHost(rng, 6), 1)
	ls := LocalSearch(g, nil, g.Eps, 500)
	if math.IsInf(ls.Cost, 1) {
		t.Fatal("local search could not escape the empty network")
	}
}

func TestTreeOPTMatchesExactForTreeMetric(t *testing.T) {
	// On a tree metric with high alpha the tree is the social optimum;
	// verify against the exhaustive search on a small instance. (Cor. 3
	// asserts optimality for every alpha; the exhaustive check for a
	// couple of alphas guards the plumbing.)
	edges := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 1, V: 3, W: 0.5}, {U: 3, V: 4, W: 1.5}}
	tm, err := metric.NewTreeMetric(5, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{0.5, 1, 3, 10} {
		g := game.New(game.NewHost(tm), alpha)
		tree := Evaluate(g, TreeOPT(tm))
		exact, err := ExactSmall(g)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(tree.Cost-exact.Cost) > 1e-9 {
			t.Fatalf("alpha %v: tree cost %v != exact OPT %v", alpha, tree.Cost, exact.Cost)
		}
	}
}

// lightDemandGame is the game on h with α = 1 and a demand of 0.01
// between distinct agents: light enough that a sparse network is
// optimal, and a game on which evaluators that ignore the demand
// overstate every distance cost a hundredfold.
func lightDemandGame(t *testing.T, h *game.Host) *game.Game {
	t.Helper()
	g := game.New(h, 1)
	n := h.N()
	demand := make([][]float64, n)
	for u := range demand {
		demand[u] = make([]float64, n)
		for v := range demand[u] {
			if u != v {
				demand[u][v] = 0.01
			}
		}
	}
	if err := g.SetTraffic(demand); err != nil {
		t.Fatal(err)
	}
	return g
}

func unitSquare(t *testing.T) *game.Host {
	t.Helper()
	pts, err := metric.NewPoints([][]float64{{0, 0}, {1, 0}, {1, 1}, {0, 1}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return game.NewHost(pts)
}

// TestTrafficWeightedBounds: under a demand matrix the lower bound, the
// exhaustive optimum and every edge-set evaluator price distances by
// t(u,v)·d(u,v), so LB ≤ OPT ≤ any reachable profile's social cost, on
// the metric (floor-sum) and the non-metric (APSP fold) bound paths.
func TestTrafficWeightedBounds(t *testing.T) {
	square := unitSquare(t)
	// The same square with one side stretched past the path around it:
	// a non-metric host, which takes LowerBound's APSP path.
	w := square.Densify()
	stretched := make([][]float64, len(w))
	for i := range w {
		stretched[i] = append([]float64(nil), w[i]...)
	}
	stretched[0][1], stretched[1][0] = 5, 5
	bent, err := game.HostFromMatrix(stretched)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*game.Host{square, bent} {
		g := lightDemandGame(t, h)
		n := g.N()
		if metricHost := h.IsMetric(1e-9); metricHost != (h == square) {
			t.Fatalf("host metricity %v, want %v", metricHost, h == square)
		}
		var star []graph.Edge
		for v := 1; v < n; v++ {
			star = append(star, graph.Edge{U: 0, V: v, W: h.Weight(0, v)})
		}
		starCost := game.NewState(g, game.StarProfile(n, 0)).SocialCost()
		exact, err := ExactSmall(g)
		if err != nil {
			t.Fatal(err)
		}
		lb := LowerBound(g)
		if !(lb > 0 && lb <= exact.Cost && exact.Cost <= starCost) {
			t.Fatalf("metric=%v: want 0 < LB %v <= OPT %v <= star %v", h == square, lb, exact.Cost, starCost)
		}
		for _, cand := range []Result{MSTCandidate(g), CompleteCandidate(g), BestCandidate(g, 100)} {
			if cand.Cost < exact.Cost*(1-1e-12) {
				t.Fatalf("metric=%v: candidate %v beats exact %v", h == square, cand.Cost, exact.Cost)
			}
		}
		for _, edges := range [][]graph.Edge{star, exact.Edges, MSTCandidate(g).Edges, CompleteCandidate(g).Edges} {
			got := game.SocialCostOfEdgeSet(g, edges)
			want := game.NewState(g, game.ProfileFromEdgeSet(n, edges)).SocialCost()
			if math.Abs(got-want) > 1e-12*want {
				t.Fatalf("metric=%v: SocialCostOfEdgeSet %v, state social cost %v", h == square, got, want)
			}
		}
	}
}

// TestLowerBoundZeroDemand: pairs without demand need no path, so they
// neither make the bound +Inf when unreachable (the zero-demand rule of
// the state's distance cost) nor force OPT to span agents no demand
// touches — on both bound paths the bound stays at or below OPT.
func TestLowerBoundZeroDemand(t *testing.T) {
	inf := math.Inf(1)
	// A 1-∞ host whose buyable pairs leave vertex 2 isolated.
	oneInf, err := game.HostFromMatrix([][]float64{
		{0, 1, inf},
		{1, 0, inf},
		{inf, inf, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lb := LowerBound(game.New(oneInf, 2)); !math.IsInf(lb, 1) {
		t.Fatalf("uniform demand on a disconnected host: LB %v, want +Inf", lb)
	}
	cases := []struct {
		name   string
		h      *game.Host
		demand [][]float64
	}{
		{"1-inf, vertex 2 without demand", oneInf, [][]float64{{0, 3, 0}, {0.5, 0, 0}, {0, 0, 0}}},
		{"unit square, demand 0-1 only", unitSquare(t), [][]float64{{0, 1, 0, 0}, {1, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}}},
	}
	for _, c := range cases {
		g := game.New(c.h, 2)
		if err := g.SetTraffic(c.demand); err != nil {
			t.Fatal(err)
		}
		exact, err := ExactSmall(g)
		if err != nil {
			t.Fatal(err)
		}
		// OPT buys the one edge the demand needs: α·1 + Σ t·1.
		want := 2.0
		for _, row := range c.demand {
			for _, x := range row {
				want += x
			}
		}
		if exact.Cost != want {
			t.Fatalf("%s: OPT %v, want %v", c.name, exact.Cost, want)
		}
		if lb := LowerBound(g); !(lb > 0 && lb <= exact.Cost) {
			t.Fatalf("%s: want 0 < LB %v <= OPT %v", c.name, lb, exact.Cost)
		}
	}
}

// hostRowFold is the row fold LowerBound used before it read the Game's
// floor cache: Σ_{u≠v} w(u,v) in parallel.Reduce's fixed order.
func hostRowFold(h *game.Host) float64 {
	n := h.N()
	return parallel.Reduce(n, 0.0,
		func(u int) float64 {
			row := 0.0
			for v := 0; v < n; v++ {
				if v != u {
					row += h.Weight(u, v)
				}
			}
			return row
		},
		func(a, b float64) float64 { return a + b })
}

// TestFloorTotalMatchesRowFold: under uniform traffic the Game's floor
// total is bit-equal to the plain host row fold on every metric host
// class, so moving the bound onto the floor cache moved no golden bit.
func TestFloorTotalMatchesRowFold(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	hosts := map[string]*game.Host{
		"l2":     randomPointHost(rng, 300),
		"tree":   game.NewHost(gen.Tree(5, 300, 1, 6)),
		"onetwo": randomOneTwoHost(rng, 120, 0.3),
		"unit":   game.NewHost(metric.Unit{N: 90}),
	}
	for name, h := range hosts {
		g := game.New(h, 3)
		got, want := g.TrafficFloorTotal(), hostRowFold(h)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: floor total %v, row fold %v", name, got, want)
		}
		// Cached rows serve a second call with the same bits.
		if again := g.TrafficFloorTotal(); math.Float64bits(again) != math.Float64bits(want) {
			t.Errorf("%s: cached floor total %v, row fold %v", name, again, want)
		}
	}
}

// TestTreeMSTWeightMatchesPrim: a tree metric's closed-form MST weight
// (its defining tree's edge sum) agrees with Prim over the complete
// closure, zero-weight edges included.
func TestTreeMSTWeightMatchesPrim(t *testing.T) {
	zero := []graph.Edge{{U: 0, V: 1, W: 0}, {U: 1, V: 2, W: 2.5}, {U: 1, V: 3, W: 0}, {U: 3, V: 4, W: 1.25}}
	zeroTree, err := metric.NewTreeMetric(5, zero)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []*metric.TreeMetric{zeroTree, gen.Tree(3, 200, 1, 6), gen.Tree(4, 500, 0.001, 1000)} {
		// The anonymous wrapper hides every capability but Size and
		// Dist, so the bound's MST term falls back to Prim.
		prim := metricMSTWeight(game.NewHost(struct{ metric.Space }{tm}))
		if got := tm.MSTWeight(); math.Abs(got-prim) > 1e-12*prim {
			t.Errorf("n=%d: MSTWeight %v, Prim over the closure %v", tm.Size(), got, prim)
		}
	}
}

// countingTree wraps a tree metric the way a tracing wrapper does: the
// embedded pointer promotes every capability, and Dist is counted.
type countingTree struct {
	*metric.TreeMetric
	calls *atomic.Int64
}

func (c countingTree) Dist(i, j int) float64 {
	c.calls.Add(1)
	return c.TreeMetric.Dist(i, j)
}

// TestLowerBoundAfterScansPricesNoPair: once every agent has been
// scanned, the bound on a wrapped tree host makes no Dist call (the MST
// term is the promoted MSTWeight, the distance term the cached floor
// rows) and returns the bits of the bound on the bare space.
func TestLowerBoundAfterScansPricesNoPair(t *testing.T) {
	const n = 300
	tm := gen.Tree(11, n, 1, 6)
	var calls atomic.Int64
	g := game.New(game.NewHost(countingTree{tm, &calls}), n)
	s := game.NewState(g, game.StarProfile(n, 0))
	for u := 0; u < n; u++ {
		s.BestSingleMove(u)
	}
	calls.Store(0)
	lb := LowerBound(g)
	if c := calls.Load(); c != 0 {
		t.Fatalf("LowerBound after a full scan made %d Dist calls, want 0", c)
	}
	bare := LowerBound(game.New(game.NewHost(tm), n))
	if math.Float64bits(lb) != math.Float64bits(bare) {
		t.Fatalf("wrapped bound %v, bare bound %v", lb, bare)
	}
}
