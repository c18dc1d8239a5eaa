// Benchmark harness: one benchmark per table/figure of the paper, each
// exercising the code path that regenerates it and reporting the key
// measured quantity via b.ReportMetric (ratios as "poa", verification
// outcomes as "verified" 0/1), plus micro-benchmarks of the hot solver
// paths. Run with:
//
//	go test -bench=. -benchmem
package gncg_test

import (
	"math"
	"testing"

	"gncg"
	"gncg/internal/bestresponse"
	"gncg/internal/bitset"
	"gncg/internal/constructions"
	"gncg/internal/cover"
	"gncg/internal/dynamics"
	"gncg/internal/facility"
	"gncg/internal/game"
	"gncg/internal/gen"
	"gncg/internal/metric"
	"gncg/internal/opt"
	"gncg/internal/poa"
	"gncg/internal/spanner"
)

func reportVerified(b *testing.B, ok bool) {
	b.Helper()
	v := 0.0
	if ok {
		v = 1
	}
	b.ReportMetric(v, "verified")
}

// BenchmarkTable1Summary regenerates the headline measured numbers of the
// results matrix: the tight (α+2)/2 family at a large size.
func BenchmarkTable1Summary(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		lb, err := constructions.Thm15Star(100, 4)
		if err != nil {
			b.Fatal(err)
		}
		ratio = lb.Ratio()
	}
	b.ReportMetric(ratio, "poa")
	b.ReportMetric((4.0+2)/2, "bound")
}

// BenchmarkFig1ModelClassification classifies one host of each class.
func BenchmarkFig1ModelClassification(b *testing.B) {
	hosts := []*game.Host{
		game.NewHost(metric.Unit{N: 12}),
		game.NewHost(gen.OneTwo(1, 12, 0.4)),
		game.NewHost(gen.Tree(1, 12, 1, 5)),
		game.NewHost(gen.Points(1, 12, 2, 10, 2)),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, h := range hosts {
			_ = h.Classify(1e-9)
		}
	}
}

// BenchmarkFig2VertexCoverReduction builds the Thm 4 gadget on P4 and
// verifies the NE <-> minimum-cover equivalence via exact best response.
func BenchmarkFig2VertexCoverReduction(b *testing.B) {
	vc, err := cover.NewVCInstance(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		b.Fatal(err)
	}
	ok := false
	for i := 0; i < b.N; i++ {
		r, err := constructions.NewVCReduction(vc)
		if err != nil {
			b.Fatal(err)
		}
		p, err := r.Profile([]int{1, 2})
		if err != nil {
			b.Fatal(err)
		}
		s := game.NewState(r.Game, p)
		br := bestresponse.Exact(s, r.U)
		ok = math.Abs(br.Cost-r.UCost(2)) < 1e-9
	}
	reportVerified(b, ok)
}

// BenchmarkFig3OneTwoLowerBound regenerates the Thm 8 (α=1) series cell
// at N=6 and reports the ratio (limit 3/2).
func BenchmarkFig3OneTwoLowerBound(b *testing.B) {
	var r poa.Row
	for i := 0; i < b.N; i++ {
		lb, err := constructions.Thm8AlphaOne(6)
		if err != nil {
			b.Fatal(err)
		}
		r = poa.VerifyLowerBound(lb, 6)
	}
	b.ReportMetric(r.Ratio, "poa")
	reportVerified(b, r.Stable)
}

// BenchmarkThm9PoAOne runs greedy dynamics on a random 1-2 host at
// α = 0.3 and reports the PoA against Algorithm 1's optimum (must be 1).
func BenchmarkThm9PoAOne(b *testing.B) {
	h := game.NewHost(gen.OneTwo(11, 7, 0.45))
	g := game.New(h, 0.3)
	algRes, err := opt.Algorithm1(h)
	if err != nil {
		b.Fatal(err)
	}
	algCost := opt.Evaluate(g, algRes).Cost
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := game.NewState(g, game.StarProfile(7, 0))
		dynamics.Run(s, dynamics.GreedyMover, dynamics.RoundRobin{}, 20000)
		ratio = s.SocialCost() / algCost
	}
	b.ReportMetric(ratio, "poa")
}

// BenchmarkThm10StarNE exact-verifies the star NE at α = 4.
func BenchmarkThm10StarNE(b *testing.B) {
	h := game.NewHost(gen.OneTwo(2, 8, 0.4))
	ok := false
	for i := 0; i < b.N; i++ {
		g, p, err := constructions.Thm10Star(h, 4, 0)
		if err != nil {
			b.Fatal(err)
		}
		ok = bestresponse.IsNash(game.NewState(g, p))
	}
	reportVerified(b, ok)
}

// BenchmarkThm11DiameterSweep measures equilibrium diameter at α = 6 on
// a random 1-2 host (must stay well under the O(sqrt α) regime).
func BenchmarkThm11DiameterSweep(b *testing.B) {
	g := game.New(game.NewHost(gen.OneTwo(21, 10, 0.35)), 6)
	var diam float64
	for i := 0; i < b.N; i++ {
		e := poa.EmpiricalPoA(g, 2, 3, math.Inf(1))
		diam = e.Diameter
	}
	b.ReportMetric(diam, "diameter")
	b.ReportMetric(math.Sqrt(6), "sqrt_alpha")
}

// BenchmarkThm5SpannerNE computes a minimum-weight 3/2-spanner and finds
// an NE ownership for it (Thm 5).
func BenchmarkThm5SpannerNE(b *testing.B) {
	h := game.NewHost(gen.OneTwo(3, 5, 0.4))
	g := game.New(h, 0.75)
	ok := false
	for i := 0; i < b.N; i++ {
		edges, err := spanner.MinWeight32SpannerOneTwo(h)
		if err != nil {
			b.Fatal(err)
		}
		_, ok = spanner.FindNEOwnership(g, edges, bestresponse.IsNash)
	}
	reportVerified(b, ok)
}

// BenchmarkAlg1Optimum runs Algorithm 1 on a 40-node 1-2 host.
func BenchmarkAlg1Optimum(b *testing.B) {
	h := game.NewHost(gen.OneTwo(5, 40, 0.4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Algorithm1(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThm12TreeNE runs BR dynamics on a tree metric and verifies the
// reached equilibrium is a tree.
func BenchmarkThm12TreeNE(b *testing.B) {
	tm := gen.Tree(1, 7, 1, 6)
	g := game.New(game.NewHost(tm), 1.3)
	ok := false
	for i := 0; i < b.N; i++ {
		s := game.NewState(g, game.EmptyProfile(7))
		res := dynamics.Run(s, dynamics.BestResponseMover, dynamics.RoundRobin{}, 600)
		ok = res.Outcome == dynamics.Converged && s.Network().IsTree()
	}
	reportVerified(b, ok)
}

// BenchmarkFig4SetCoverTree solves the Thm 13 gadget's best response.
func BenchmarkFig4SetCoverTree(b *testing.B) {
	sc := gen.SC(0, 4, 4, 0.45)
	kmin := len(cover.MinSetCover(sc))
	r, err := constructions.NewSetCoverTree(sc, 100, 0.001, 1)
	if err != nil {
		b.Fatal(err)
	}
	ok := false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := game.NewState(r.Game, r.Profile())
		br := bestresponse.Exact(s, r.U)
		sets, other := r.DecodeStrategy(br.Strategy.Elems())
		ok = len(other) == 0 && len(sets) == kmin
	}
	reportVerified(b, ok)
}

// BenchmarkFig5BRCycleTree runs the exhaustive FIP analysis on a 4-node
// tree metric (Thm 14 reproduction).
func BenchmarkFig5BRCycleTree(b *testing.B) {
	tm := gen.Tree(2, 4, 1, 12)
	g := game.New(game.NewHost(tm), 1.5)
	ok := false
	for i := 0; i < b.N; i++ {
		w, has, err := dynamics.ExhaustiveFIP(g)
		if err != nil {
			b.Fatal(err)
		}
		ok = has && dynamics.VerifyFIPWitness(g, w)
	}
	reportVerified(b, ok)
}

// BenchmarkFig6TreePoALowerBound regenerates one Fig. 6 cell (n=40, α=4).
func BenchmarkFig6TreePoALowerBound(b *testing.B) {
	var r poa.Row
	for i := 0; i < b.N; i++ {
		lb, err := constructions.Thm15Star(40, 4)
		if err != nil {
			b.Fatal(err)
		}
		r = poa.VerifyLowerBound(lb, 40)
	}
	b.ReportMetric(r.Ratio, "poa")
	b.ReportMetric(3, "bound")
	reportVerified(b, r.Stable)
}

// BenchmarkFig7SetCoverGeometric solves the Thm 16 gadget under the
// 2-norm.
func BenchmarkFig7SetCoverGeometric(b *testing.B) {
	sc := gen.SC(1, 4, 4, 0.45)
	kmin := len(cover.MinSetCover(sc))
	r, err := constructions.NewSetCoverGeo(sc, 100, 0.001, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	ok := false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := game.NewState(r.Game, r.Profile())
		br := bestresponse.Exact(s, r.U)
		sets, other := r.DecodeStrategy(br.Strategy.Elems())
		ok = len(other) == 0 && len(sets) == kmin
	}
	reportVerified(b, ok)
}

// BenchmarkFig8BRCycleGeometric searches for the improving-move cycle on
// the Fig. 8 point set at α = 1 (Thm 17 reproduction).
func BenchmarkFig8BRCycleGeometric(b *testing.B) {
	g := constructions.Fig8Game(1)
	ok := false
	for i := 0; i < b.N; i++ {
		w, found := dynamics.FindCycle(g, dynamics.CycleSearchConfig{
			Restarts: 150, MaxMoves: 2000, EdgeProb: 0.3, Seed: 7, RandomSched: true,
		})
		ok = found && dynamics.VerifyCycle(g, w)
	}
	reportVerified(b, ok)
}

// BenchmarkFig9PathVsStar regenerates one Lemma 8 cell (m=6, α=3).
func BenchmarkFig9PathVsStar(b *testing.B) {
	var r poa.Row
	for i := 0; i < b.N; i++ {
		lb, err := constructions.Lemma8Path(6, 3)
		if err != nil {
			b.Fatal(err)
		}
		r = poa.VerifyLowerBound(lb, 6)
	}
	b.ReportMetric(r.Ratio, "poa")
	reportVerified(b, r.Stable && r.Ratio > 1)
}

// BenchmarkThm18FourPoint verifies the closed-form four-point bound at
// α = 6.
func BenchmarkThm18FourPoint(b *testing.B) {
	ok := false
	var ratio float64
	for i := 0; i < b.N; i++ {
		lb, err := constructions.Thm18FourPoint(6)
		if err != nil {
			b.Fatal(err)
		}
		ratio = lb.Ratio()
		ok = math.Abs(ratio-constructions.Thm18Ratio(6)) < 1e-9
	}
	b.ReportMetric(ratio, "poa")
	reportVerified(b, ok)
}

// BenchmarkFig10CrossPolytope regenerates one Thm 19 cell (d=10, α=4).
func BenchmarkFig10CrossPolytope(b *testing.B) {
	var r poa.Row
	for i := 0; i < b.N; i++ {
		lb, err := constructions.Thm19CrossPolytope(10, 4)
		if err != nil {
			b.Fatal(err)
		}
		r = poa.VerifyLowerBound(lb, 10)
	}
	b.ReportMetric(r.Ratio, "poa")
	reportVerified(b, r.Stable && math.Abs(r.Ratio-r.Predicted) < 1e-9)
}

// BenchmarkThm20NonMetricTriangle verifies the triangle witness at α = 3.
func BenchmarkThm20NonMetricTriangle(b *testing.B) {
	ok := false
	var sigma float64
	for i := 0; i < b.N; i++ {
		lb, err := constructions.Thm20Triangle(3)
		if err != nil {
			b.Fatal(err)
		}
		sigma = constructions.Thm20PairSigma(lb)
		ok = math.Abs(lb.Ratio()-2.5) < 1e-9 && math.Abs(sigma-6.25) < 1e-9
	}
	b.ReportMetric(sigma, "sigma")
	reportVerified(b, ok)
}

// BenchmarkLemma1AESpanner computes an AE by add-only dynamics and checks
// the (α+1)-spanner property.
func BenchmarkLemma1AESpanner(b *testing.B) {
	g := game.New(game.NewHost(gen.Points(50, 7, 2, 10, 2)), 1.3)
	ok := false
	for i := 0; i < b.N; i++ {
		s := game.NewState(g, game.StarProfile(7, 0))
		dynamics.RunToConvergence(s, dynamics.AddOnlyMover, dynamics.RoundRobin{}, dynamics.Budget{})
		ok = spanner.IsKSpanner(s.Network(), g.Host, g.Alpha+1, 1e-9)
	}
	reportVerified(b, ok)
}

// BenchmarkCor2ApproxNE computes an AE and its exact Nash approximation
// factor, checking the 3(α+1) bound.
func BenchmarkCor2ApproxNE(b *testing.B) {
	alpha := 1.2
	g := game.New(game.NewHost(gen.Points(201, 7, 2, 10, 2)), alpha)
	var factor float64
	for i := 0; i < b.N; i++ {
		s := game.NewState(g, game.StarProfile(7, 0))
		dynamics.RunToConvergence(s, dynamics.AddOnlyMover, dynamics.RoundRobin{}, dynamics.Budget{})
		factor = bestresponse.NashApproxFactor(s)
	}
	b.ReportMetric(factor, "beta")
	b.ReportMetric(3*(alpha+1), "bound")
	reportVerified(b, factor <= 3*(alpha+1)+1e-6)
}

// BenchmarkThm1UpperBoundSanity finds an exact NE by dynamics on a random
// metric host and compares with the exact OPT and the (α+2)/2 bound.
func BenchmarkThm1UpperBoundSanity(b *testing.B) {
	alpha := 1.1
	g := game.New(game.NewHost(gen.Points(1, 6, 2, 10, 2)), alpha)
	optRes, err := opt.ExactSmall(g)
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	ok := false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := game.NewState(g, game.EmptyProfile(6))
		res := dynamics.Run(s, dynamics.BestResponseMover, dynamics.RoundRobin{}, 2000)
		ratio = s.SocialCost() / optRes.Cost
		ok = res.Outcome == dynamics.Converged && ratio <= (alpha+2)/2+1e-6
	}
	b.ReportMetric(ratio, "poa")
	reportVerified(b, ok)
}

// BenchmarkNCGBaseline verifies the classic unit-weight equilibria.
func BenchmarkNCGBaseline(b *testing.B) {
	g := game.New(game.NewHost(metric.Unit{N: 8}), 4)
	ok := false
	for i := 0; i < b.N; i++ {
		ok = bestresponse.IsNash(game.NewState(g, game.StarProfile(8, 0)))
	}
	reportVerified(b, ok)
}

// BenchmarkPoSCensus runs the exhaustive equilibrium census (exact PoA
// and PoS) on a 4-agent tree metric: the PoS-extension experiment.
func BenchmarkPoSCensus(b *testing.B) {
	tm := gen.Tree(1, 4, 1, 8)
	g := game.New(game.NewHost(tm), 2)
	var pos float64
	for i := 0; i < b.N; i++ {
		c, err := poa.ExhaustiveCensus(g)
		if err != nil {
			b.Fatal(err)
		}
		pos = c.PoS()
	}
	b.ReportMetric(pos, "pos")
	reportVerified(b, math.Abs(pos-1) < 1e-9)
}

// BenchmarkConjecture1FIP runs the exhaustive FIP analysis on a 4-point
// 2-norm instance (the Conjecture 1 evidence experiment).
func BenchmarkConjecture1FIP(b *testing.B) {
	pts := gen.Points(0, 4, 2, 10, 2)
	g := game.New(game.NewHost(pts), 0.6)
	ok := false
	for i := 0; i < b.N; i++ {
		w, has, err := dynamics.ExhaustiveFIP(g)
		if err != nil {
			b.Fatal(err)
		}
		ok = has && dynamics.VerifyFIPWitness(g, w)
	}
	reportVerified(b, ok)
}

// ---- distance-cache benchmarks ----
//
// Workloads served by the state's distance cache: repeated cost queries,
// greedy move dynamics, and exact Nash verification.

// BenchmarkCostQueriesCached is the harness evaluation pattern: social
// cost plus every agent's cost against one unchanged state.
func BenchmarkCostQueriesCached(b *testing.B) {
	n := 80
	g := game.New(game.NewHost(gen.Points(9, n, 2, 100, 2)), 4)
	s := game.NewState(g, game.StarProfile(n, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.SocialCost()
		for u := 0; u < n; u++ {
			_ = s.Cost(u)
		}
	}
}

// BenchmarkGreedyDynamicsCached runs greedy move dynamics from a star
// seed — the BestSingleMove scan re-queries the mover's current cost and
// speculatively evaluates candidates, each a scratch repair of the
// mover's current row that leaves every cached row as it was.
func BenchmarkGreedyDynamicsCached(b *testing.B) {
	n := 24
	g := game.New(game.NewHost(gen.Points(4, n, 2, 10, 2)), 1.5)
	p := game.StarProfile(n, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := game.NewState(g, p.Clone())
		dynamics.Run(s, dynamics.GreedyMover, dynamics.RoundRobin{}, 200)
		_ = s.SocialCost()
	}
}

// BenchmarkNashVerifyCached measures the experiments' equilibrium-check
// pattern: exact Nash verification, the approximation factor, and the
// social cost of the same state (the PoA numerator). The UMFL solves
// behind the two verification passes dominate; the social cost reads
// cached rows.
func BenchmarkNashVerifyCached(b *testing.B) {
	n := 14
	g := game.New(game.NewHost(gen.Points(4, n, 2, 10, 2)), 1.5)
	s := game.NewState(g, game.StarProfile(n, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bestresponse.IsNash(s)
		_ = bestresponse.NashApproxFactor(s)
		_ = s.SocialCost()
	}
}

// ---- lazy-host construction and memory benchmarks ----
//
// The Host API computes weights lazily from the backing metric.Space;
// the allocs/op and B/op columns of these benchmarks are the redesign's
// contract: constructing a game on an n-point host allocates O(n) state
// (graph adjacency + cache bookkeeping), not an O(n²) dense matrix,
// unless densification is explicitly requested. The CI baseline tracks
// these numbers across runs.

// benchmarkHostConstruct builds the lazy host, the game and a star state,
// then runs one cost query (a single Dijkstra) — the minimum end-to-end
// path a sweep cell pays per instance.
func benchmarkHostConstruct(b *testing.B, n int, densify bool) {
	pts := gen.Points(7, n, 2, 1000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := game.NewHost(pts)
		if densify {
			_ = h.Densify()
		}
		g := game.New(h, 2)
		s := game.NewState(g, game.StarProfile(n, 0))
		_ = s.Cost(n / 2)
	}
}

func BenchmarkHostConstructLazy1k(b *testing.B)  { benchmarkHostConstruct(b, 1000, false) }
func BenchmarkHostConstructLazy5k(b *testing.B)  { benchmarkHostConstruct(b, 5000, false) }
func BenchmarkHostConstructLazy10k(b *testing.B) { benchmarkHostConstruct(b, 10000, false) }

// BenchmarkHostConstructDense1k is the explicit-densification baseline:
// the same workload paying the O(n²) matrix up front. (Larger dense sizes
// are omitted on purpose — 10k dense is an 800 MB allocation, which is
// exactly what the lazy path exists to avoid.)
func BenchmarkHostConstructDense1k(b *testing.B) { benchmarkHostConstruct(b, 1000, true) }

// BenchmarkHostCostQueries10k measures repeated cost queries against an
// unchanged 10k-agent star state on a lazy host: rotating single-source
// queries plus the speculative move evaluation of the greedy hot path.
func BenchmarkHostCostQueries10k(b *testing.B) {
	n := 10000
	g := game.New(game.NewHost(gen.Points(7, n, 2, 1000, 2)), 2)
	s := game.NewState(g, game.StarProfile(n, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := 1 + i%(n-1)
		_ = s.Cost(u)
		m := game.Move{Agent: u, Kind: game.Buy, V: 1 + (i*7)%(n-1)}
		if m.V != u {
			_ = s.CostAfter(m)
		}
	}
}

// ---- solver micro-benchmarks ----

// BenchmarkDijkstra measures single-source shortest paths on a 200-node
// equilibrium-like sparse network.
func BenchmarkDijkstra(b *testing.B) {
	g := game.New(game.NewHost(gen.Points(9, 200, 2, 100, 2)), 8)
	s := game.NewState(g, game.StarProfile(200, 0))
	net := s.Network()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Dijkstra(i % 200)
	}
}

// BenchmarkAPSP measures the parallel all-pairs computation on 120 nodes.
func BenchmarkAPSP(b *testing.B) {
	g := game.New(game.NewHost(gen.Points(9, 120, 2, 100, 2)), 8)
	s := game.NewState(g, game.StarProfile(120, 0))
	net := s.Network()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.APSP()
	}
}

// BenchmarkExactBestResponse measures the UMFL branch-and-bound on a
// 16-agent geometric state.
func BenchmarkExactBestResponse(b *testing.B) {
	g := game.New(game.NewHost(gen.Points(4, 16, 2, 10, 2)), 1.5)
	s := game.NewState(g, game.StarProfile(16, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bestresponse.Exact(s, 1+(i%15))
	}
}

// BenchmarkApproxBestResponse measures the polynomial local-search
// response on the same state.
func BenchmarkApproxBestResponse(b *testing.B) {
	g := game.New(game.NewHost(gen.Points(4, 16, 2, 10, 2)), 1.5)
	s := game.NewState(g, game.StarProfile(16, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bestresponse.ApproxLocalSearch(s, 1+(i%15))
	}
}

// BenchmarkGreedySingleMove measures one best-single-move scan.
func BenchmarkGreedySingleMove(b *testing.B) {
	g := game.New(game.NewHost(gen.Points(4, 30, 2, 10, 2)), 1.5)
	s := game.NewState(g, game.StarProfile(30, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = s.BestSingleMove(i % 30)
	}
}

// BenchmarkUMFLExact measures the facility-location branch-and-bound on
// random metric instances (15 facilities, 15 clients).
func BenchmarkUMFLExact(b *testing.B) {
	ins := randomUMFL(15, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = facility.Exact(ins)
	}
}

// BenchmarkUMFLLocalSearch measures local search on the same instances.
func BenchmarkUMFLLocalSearch(b *testing.B) {
	ins := randomUMFL(15, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = facility.LocalSearch(ins, bitset.New(15), 1e-9, 100000)
	}
}

// BenchmarkQuickstartEndToEnd measures the full public-API flow of the
// README quickstart: dynamics from scratch to a verified equilibrium.
func BenchmarkQuickstartEndToEnd(b *testing.B) {
	host, err := gncg.HostFromPoints([][]float64{{0, 0}, {4, 0}, {4, 3}, {0, 3}, {2, 1.5}}, 2)
	if err != nil {
		b.Fatal(err)
	}
	g := gncg.NewGame(host, 1.5)
	ok := false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := gncg.NewState(g, gncg.EmptyProfile(g.N()))
		res := gncg.RunBestResponseDynamics(s, 1000)
		ok = res.Outcome == gncg.Converged && gncg.IsNashEquilibrium(s)
	}
	reportVerified(b, ok)
}

func randomUMFL(nf, nc int) *facility.Instance {
	pts := gen.Points(77, nf+nc, 2, 100, 2)
	open := make([]float64, nf)
	conn := make([][]float64, nc)
	for f := 0; f < nf; f++ {
		open[f] = 10 + float64(f)
	}
	for c := 0; c < nc; c++ {
		conn[c] = make([]float64, nf)
		for f := 0; f < nf; f++ {
			conn[c][f] = pts.Dist(nf+c, f)
		}
	}
	ins, err := facility.NewInstance(open, conn, nil)
	if err != nil {
		panic(err)
	}
	return ins
}

// ---- incremental-repair and pruned-scan benchmarks ----
//
// The greedy-dynamics hot path: BestSingleMove evaluates O(n²) candidate
// moves, each via a speculative single-edge mutation. Cached rows are
// repaired in place across the move and its undo (internal/graph's
// Ramalingam–Reps primitives) and the scan skips candidates whose
// distance-gain bound cannot beat the running best.

func BenchmarkBestSingleMove1k(b *testing.B) {
	n := 1000
	g := game.New(game.NewHost(gen.Points(7, n, 2, 1000, 2)), 8)
	s := game.NewState(g, game.StarProfile(n, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = s.BestSingleMove(1 + i%(n-1))
	}
}

// BenchmarkBestSingleMoveNoPrune1k isolates the two halves of the
// speedup: incremental repair without candidate pruning.
func BenchmarkBestSingleMoveNoPrune1k(b *testing.B) {
	n := 1000
	g := game.New(game.NewHost(gen.Points(7, n, 2, 1000, 2)), 8)
	s := game.NewState(g, game.StarProfile(n, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = s.BestSingleMoveExact(1 + i%(n-1))
	}
}

// BenchmarkGreedyRound500 measures a round of applied greedy moves (scan
// + Apply for a block of agents) on an n-agent star — the unit of work
// the scale sweep ladders up.
func BenchmarkGreedyRound500(b *testing.B) {
	n := 500
	g := game.New(game.NewHost(gen.Points(7, n, 2, 1000, 2)), 8)
	p := game.StarProfile(n, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := game.NewState(g, p.Clone())
		b.StartTimer()
		for u := 1; u <= 16; u++ {
			if m, _, ok := s.BestSingleMove(u); ok {
				s.Apply(m)
			}
		}
	}
}

// BenchmarkConvergence1k is the equilibrium ladder's unit of work: full
// greedy dynamics to a verified equilibrium (no improving single-edge
// move) on a 1000-point ℓ2 host from a star seed, through the lazy
// delta-log cache and the incremental cost aggregates. The reported
// rounds/moves pin the workload's shape into the baseline artifact
// alongside its time.
func BenchmarkConvergence1k(b *testing.B) {
	n := 1000
	g := game.New(game.NewHost(gen.Points(13, n, 2, 1000, 2)), float64(n))
	var res dynamics.ConvergenceResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := game.NewState(g, game.StarProfile(n, 0))
		b.StartTimer()
		res = dynamics.RunToConvergence(s, dynamics.GreedyMover, dynamics.RoundRobin{},
			dynamics.Budget{MaxRounds: 32, MaxMoves: 20 * n})
	}
	b.ReportMetric(float64(res.Rounds), "rounds")
	b.ReportMetric(float64(res.Moves), "moves")
	reportVerified(b, res.Outcome == dynamics.Converged)
}

// benchmarkGreedyStableScan measures the scan in its pruning-friendly
// regime: large α makes the star a (near-)greedy-equilibrium, so the
// bounds prove nearly every candidate non-improving and the scan is
// dominated by bound checks instead of speculative evaluations — the
// IsGreedyEquilibrium verification pattern at scale.
func benchmarkGreedyStableScan(b *testing.B, prune bool) {
	n := 1000
	g := game.New(game.NewHost(gen.Points(7, n, 2, 1000, 2)), 2000)
	s := game.NewState(g, game.StarProfile(n, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := 1 + i%(n-1)
		if prune {
			_, _, _ = s.BestSingleMove(u)
		} else {
			_, _, _ = s.BestSingleMoveExact(u)
		}
	}
}

func BenchmarkGreedyStableScan1k(b *testing.B)        { benchmarkGreedyStableScan(b, true) }
func BenchmarkGreedyStableScanNoPrune1k(b *testing.B) { benchmarkGreedyStableScan(b, false) }

// benchmarkBestSingleMoveGeo measures the geometric fast path on the
// workload it exists for: re-scanning an agent already sitting at its
// host-metric floor — the shape every agent has at the leaf-owned-star
// equilibria the sweep converges to, and the shape equilibrium
// re-verification hammers n times per round. The scanned agent is the
// hub of a SpokeProfile (direct edges to everyone, owned by the
// leaves), so on the point host the excess certificate resolves the
// scan in O(log n) — nearest-neighbor price floor, cached traffic
// floor, no candidate enumeration. The Pruned variant runs the
// identical workload with the host's capabilities hidden behind
// sourcelessSpace: the pruned exhaustive scan still builds the gain
// bounds and sweeps all n candidates. benchdiff -speedup floors Geo10k
// at ≥5x over Pruned10k in CI.
func benchmarkBestSingleMoveGeo(b *testing.B, n int, candidates bool) {
	var space metric.Space = gen.Points(7, n, 2, 1000, 2)
	if !candidates {
		space = sourcelessSpace{space}
	}
	g := game.New(game.NewHost(space), 16*float64(n))
	s := game.NewState(g, game.SpokeProfile(n, 0))
	// One warm scan so the measured loop times the steady-state scan:
	// distance row cached, traffic floor cached, kd-tree built.
	_, _, _ = s.BestSingleMove(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = s.BestSingleMove(0)
	}
}

// sourcelessSpace hides every capability of the wrapped space, so
// BestSingleMove on it runs the exhaustive pruned tier.
type sourcelessSpace struct{ metric.Space }

func BenchmarkBestSingleMovePruned10k(b *testing.B) { benchmarkBestSingleMoveGeo(b, 10000, false) }
func BenchmarkBestSingleMoveGeo10k(b *testing.B)    { benchmarkBestSingleMoveGeo(b, 10000, true) }
func BenchmarkBestSingleMoveGeo100k(b *testing.B)   { benchmarkBestSingleMoveGeo(b, 100000, true) }
