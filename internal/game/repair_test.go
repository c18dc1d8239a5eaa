package game

import (
	"math"
	"math/rand"
	"testing"

	"gncg/internal/bitset"
	"gncg/internal/graph"
	"gncg/internal/metric"
)

// repairHost builds one host of the named flavor — the mixed corpus the
// incremental-repair and pruned-scan properties are pinned on: ℓ2 points
// (generic weights), tree metrics and 1-2 hosts (heavy tie pressure),
// non-metric matrices (triangle violations), and 1-∞ hosts (+Inf pairs).
func repairHost(t *testing.T, rng *rand.Rand, n int, flavor string) *Host {
	t.Helper()
	switch flavor {
	case "l2points":
		return randCacheHost(rng, n)
	case "tree":
		edges := make([]graph.Edge, 0, n-1)
		for v := 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: rng.Intn(v), V: v, W: float64(1 + rng.Intn(5))})
		}
		tm, err := metric.NewTreeMetric(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		return NewHost(tm)
	case "onetwo":
		var ones [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.4 {
					ones = append(ones, [2]int{u, v})
				}
			}
		}
		ot, err := metric.NewOneTwo(n, ones)
		if err != nil {
			t.Fatal(err)
		}
		return NewHost(ot)
	case "nonmetric":
		w := make([][]float64, n)
		for u := range w {
			w[u] = make([]float64, n)
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				x := 0.5 + rng.Float64()*9.5 // wide spread: triangle violations abound
				w[u][v], w[v][u] = x, x
			}
		}
		h, err := HostFromMatrix(w)
		if err != nil {
			t.Fatal(err)
		}
		return h
	case "oneinf":
		var ones [][2]int
		for v := 1; v < n; v++ {
			ones = append(ones, [2]int{rng.Intn(v), v}) // buyable spanning tree
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				ones = append(ones, [2]int{u, v})
			}
		}
		oi, err := metric.NewOneInf(n, ones)
		if err != nil {
			t.Fatal(err)
		}
		return NewHost(oi)
	default:
		t.Fatalf("unknown flavor %q", flavor)
		return nil
	}
}

var repairFlavors = []string{"l2points", "tree", "onetwo", "nonmetric", "oneinf"}

func randProfile(rng *rand.Rand, n int, p float64) Profile {
	prof := EmptyProfile(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if v != u && rng.Float64() < p {
				prof.Buy(u, v)
			}
		}
	}
	return prof
}

// assertRowsBitEqualFresh compares every cached distance row against a
// fresh Dijkstra on the current network, bit-for-bit: incremental repair
// must be indistinguishable from recomputation.
func assertRowsBitEqualFresh(t *testing.T, s *State, ctx string, step int) {
	t.Helper()
	n := s.G.N()
	for src := 0; src < n; src++ {
		got := s.Dist(src)
		want := s.Network().Dijkstra(src)
		for x := range want {
			if got[x] != want[x] && !(math.IsInf(got[x], 1) && math.IsInf(want[x], 1)) {
				t.Fatalf("%s step %d: Dist(%d)[%d] = %v, fresh Dijkstra = %v",
					ctx, step, src, x, got[x], want[x])
			}
		}
	}
}

// runRepairCorpus drives randomized apply / speculative-evaluate /
// move-undo / bulk-replace sequences on one host flavor, asserting after
// every step that each cached row is bit-equal to a fresh Dijkstra on the
// current network. budget overrides the removal-repair budget when
// positive.
func runRepairCorpus(t *testing.T, flavor string, seeds int64, budget int) {
	t.Helper()
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(4)
		g := New(repairHost(t, rng, n, flavor), 0.3+3*rng.Float64())
		s := NewState(g, randProfile(rng, n, 0.3))
		if budget > 0 {
			s.cache.budget = budget
		}
		// Warm every row so each mutation exercises repair on a
		// fully populated cache.
		assertRowsBitEqualFresh(t, s, flavor, -1)
		for step := 0; step < 40; step++ {
			u := rng.Intn(n)
			moves := s.CandidateMoves(u)
			if len(moves) == 0 {
				continue
			}
			m := moves[rng.Intn(len(moves))]
			switch rng.Intn(4) {
			case 0: // apply and keep
				s.Apply(m)
			case 1: // speculative evaluation (exact undo inside)
				_ = s.CostAfter(m)
			case 2: // apply, then undo via SetStrategy
				old := s.P.S[u].Clone()
				s.Apply(m)
				assertRowsBitEqualFresh(t, s, flavor+"/mid-undo", step)
				s.SetStrategy(u, old)
			case 3: // bulk replacement (beyond the repair flip limit)
				s.SetStrategy(u, randStrategy(rng, n, u))
			}
			assertRowsBitEqualFresh(t, s, flavor, step)
		}
	}
}

// TestRepairedRowsBitEqualFreshDijkstra is the tentpole's correctness
// property: after randomized apply / speculative-evaluate / move-undo /
// bulk-replace sequences on every host flavor, every cached row must be
// bit-equal to a fresh Dijkstra on the current network.
func TestRepairedRowsBitEqualFreshDijkstra(t *testing.T) {
	for _, flavor := range repairFlavors {
		flavor := flavor
		t.Run(flavor, func(t *testing.T) {
			t.Parallel()
			runRepairCorpus(t, flavor, 4, 0)
		})
	}
}

// TestRepairBudgetFallbackPath forces every removal repair over budget,
// so the cache's fallback branches — rows dropped to a dead stamp, lazy
// recomputation, and CostAfter's fresh Dijkstra of the speculative
// network — actually execute. The default
// budget (16 + n/4) can never be exceeded on the corpus's small graphs,
// which would otherwise leave this interplay untested.
func TestRepairBudgetFallbackPath(t *testing.T) {
	t.Parallel()
	for _, flavor := range repairFlavors {
		runRepairCorpus(t, flavor, 2, 1)
	}
}

// TestPrunedBestSingleMoveMatchesExact pins the pruned scan to the
// exhaustive oracle on the mixed-host corpus: identical ok and cost
// always, identical winning move whenever one exists.
func TestPrunedBestSingleMoveMatchesExact(t *testing.T) {
	for _, flavor := range repairFlavors {
		flavor := flavor
		t.Run(flavor, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 6; seed++ {
				rng := rand.New(rand.NewSource(100 + seed))
				n := 6 + rng.Intn(4)
				g := New(repairHost(t, rng, n, flavor), 0.3+4*rng.Float64())
				profiles := []Profile{
					StarProfile(n, rng.Intn(n)),
					randProfile(rng, n, 0.25),
					randProfile(rng, n, 0.6),
				}
				for pi, prof := range profiles {
					s := NewState(g, prof)
					for u := 0; u < n; u++ {
						pm, pc, pok := s.BestSingleMove(u)
						em, ec, eok := s.BestSingleMoveExact(u)
						if pok != eok || pc != ec {
							t.Fatalf("%s seed %d profile %d agent %d: pruned (%v, %v, %v) != exact (%v, %v, %v)",
								flavor, seed, pi, u, pm, pc, pok, em, ec, eok)
						}
						if eok && pm != em {
							t.Fatalf("%s seed %d profile %d agent %d: pruned move %v != exact move %v (cost %v)",
								flavor, seed, pi, u, pm, em, ec)
						}
					}
				}
			}
		})
	}
}

// TestPrunedBestSingleMoveMatchesExactAtScale covers the two scan
// behaviors only large n reaches: the adaptive bail (pruning disables
// itself after a ≥96-candidate probe window with a low hit rate —
// improvement-rich small α) and the float-slack margin under cost sums
// of hundreds of terms (near-stable large α, where nearly everything is
// pruned and a slack overrun would mis-prune the best move).
func TestPrunedBestSingleMoveMatchesExactAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("exact oracle at n=400 is slow")
	}
	n := 400
	rng := rand.New(rand.NewSource(9))
	sp, err := metric.NewPoints(randPointCoords(rng, n), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{8, 2000} {
		g := New(NewHost(sp), alpha)
		s := NewState(g, StarProfile(n, 0))
		for trial := 0; trial < 6; trial++ {
			u := 1 + rng.Intn(n-1)
			pm, pc, pok := s.BestSingleMove(u)
			em, ec, eok := s.BestSingleMoveExact(u)
			if pok != eok || pc != ec || (eok && pm != em) {
				t.Fatalf("alpha %v agent %d: pruned (%v, %v, %v) != exact (%v, %v, %v)",
					alpha, u, pm, pc, pok, em, ec, eok)
			}
			if eok {
				s.Apply(em) // vary the state so later trials see non-star networks
			}
		}
	}
}

// TestSetStrategyTouchesOnlyDiff is the O(Δ) regression guard for the
// single-edge hot path: a one-edge strategy change must examine only the
// flipped vertices, independent of n — not rescan the whole vertex set.
func TestSetStrategyTouchesOnlyDiff(t *testing.T) {
	n := 4096
	sp, err := metric.NewPoints(randPointCoords(rand.New(rand.NewSource(1)), n), 2)
	if err != nil {
		t.Fatal(err)
	}
	g := New(NewHost(sp), 2)
	s := NewState(g, StarProfile(n, 0))
	s.touched = 0
	strat := s.P.S[7].Clone()
	strat.Add(99)
	s.SetStrategy(7, strat) // single buy: Δ = 1
	if s.touched != 1 {
		t.Fatalf("single buy touched %d vertices, want 1", s.touched)
	}
	s.touched = 0
	m := Move{Agent: 7, Kind: Swap, V: 99, X: 1234}
	s.Apply(m) // swap: Δ = 2
	if s.touched != 2 {
		t.Fatalf("swap touched %d vertices, want 2", s.touched)
	}
	s.touched = 0
	_ = s.CostAfter(Move{Agent: 12, Kind: Buy, V: 77})
	if s.touched != 1 { // one diff walk; the undo replays its flips
		t.Fatalf("speculative buy touched %d vertices, want 1", s.touched)
	}
}

func randPointCoords(rng *rand.Rand, n int) [][]float64 {
	coords := make([][]float64, n)
	for i := range coords {
		coords[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
	}
	return coords
}

// TestApplyContract pins the documented malformed-move behavior: deleting
// or swapping out a non-owned edge panics instead of silently no-opping
// (Delete) or degenerating into a plain buy (Swap); self-targets panic;
// buying an already-bought edge stays a legal no-op.
func TestApplyContract(t *testing.T) {
	setup := func() *State {
		g := New(NewHost(metric.Unit{N: 4}), 1)
		p := EmptyProfile(4)
		p.Buy(0, 1)
		return NewState(g, p)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("delete of non-owned edge", func() {
		setup().Apply(Move{Agent: 0, Kind: Delete, V: 2})
	})
	mustPanic("delete of edge owned by the other endpoint", func() {
		setup().Apply(Move{Agent: 1, Kind: Delete, V: 0})
	})
	mustPanic("swap with non-owned V", func() {
		setup().Apply(Move{Agent: 0, Kind: Swap, V: 2, X: 3})
	})
	mustPanic("self-targeted buy", func() {
		setup().Apply(Move{Agent: 0, Kind: Buy, V: 0})
	})
	mustPanic("swap with self-targeted X", func() {
		setup().Apply(Move{Agent: 0, Kind: Swap, V: 1, X: 0})
	})

	// Legal cases still work, and buying an owned edge is a no-op.
	s := setup()
	s.Apply(Move{Agent: 0, Kind: Buy, V: 1})
	if !s.P.Buys(0, 1) || s.P.S[0].Count() != 1 {
		t.Error("re-buy of an owned edge must be a no-op")
	}
	s.Apply(Move{Agent: 0, Kind: Swap, V: 1, X: 2})
	if s.P.Buys(0, 1) || !s.P.Buys(0, 2) {
		t.Error("legal swap not applied")
	}
	s.Apply(Move{Agent: 0, Kind: Delete, V: 2})
	if s.P.S[0].Count() != 0 {
		t.Error("legal delete not applied")
	}
}

// TestMoveNewStrategyDoesNotMutate: NewStrategy must clone, never edit
// the input set.
func TestMoveNewStrategyDoesNotMutate(t *testing.T) {
	cur := bitset.FromSlice(5, []int{1, 2})
	next := Move{Agent: 0, Kind: Swap, V: 2, X: 3}.NewStrategy(cur)
	if !cur.Has(2) || cur.Has(3) {
		t.Error("NewStrategy mutated its input")
	}
	if next.Has(2) || !next.Has(3) || !next.Has(1) {
		t.Errorf("NewStrategy produced %v", next.Elems())
	}
}
