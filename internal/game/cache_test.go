package game

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gncg/internal/bitset"
	"gncg/internal/gen"
	"gncg/internal/graph"
	"gncg/internal/metric"
	"gncg/internal/parallel"
)

// randCacheHost builds a small random metric host (2D points under the
// 2-norm) without importing internal/gen (which depends on this package).
func randCacheHost(rng *rand.Rand, n int) *Host {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	sp, err := metric.NewPoints(pts, 2)
	if err != nil {
		panic(err)
	}
	return NewHost(sp)
}

func randStrategy(rng *rand.Rand, n, u int) bitset.Set {
	strat := bitset.New(n)
	for v := 0; v < n; v++ {
		if v != u && rng.Float64() < 0.3 {
			strat.Add(v)
		}
	}
	return strat
}

// uncachedDistCost is the from-scratch reference for DistCost: a fresh
// Dijkstra on fresh's network, folded in the same block order as the
// cache's aggregates, so the two agree bit for bit.
func uncachedDistCost(fresh *State, u int) float64 {
	return fresh.foldDistCost(u, fresh.Network().Dijkstra(u))
}

// uncachedCost is the from-scratch reference for Cost.
func uncachedCost(fresh *State, u int) float64 {
	return fresh.EdgeCost(u) + uncachedDistCost(fresh, u)
}

// uncachedSocialCost is the from-scratch reference for SocialCost, folded
// in TotalDistCost's parallel.Reduce order.
func uncachedSocialCost(fresh *State) float64 {
	return fresh.TotalEdgeCost() + parallel.Reduce(fresh.G.N(), 0.0,
		func(u int) float64 { return uncachedDistCost(fresh, u) },
		func(a, b float64) float64 { return a + b })
}

// assertMatchesFresh compares every cached cost query on s against a
// from-scratch recomputation on a fresh state rebuilt from the same
// profile.
func assertMatchesFresh(t *testing.T, s *State, step int) {
	t.Helper()
	fresh := NewState(s.G, s.P.Clone())
	n := s.G.N()
	for u := 0; u < n; u++ {
		if got, want := s.Cost(u), uncachedCost(fresh, u); !costEq(got, want) {
			t.Fatalf("step %d: cached Cost(%d) = %v, fresh recomputation = %v", step, u, got, want)
		}
	}
	if got, want := s.SocialCost(), uncachedSocialCost(fresh); !costEq(got, want) {
		t.Fatalf("step %d: cached SocialCost = %v, fresh recomputation = %v", step, got, want)
	}
}

func costEq(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) <= 1e-9
}

// TestDistCacheMatchesFreshRecomputation is the cache-correctness
// property test: after randomized Apply / SetStrategy / speculative
// CostAfter / revert sequences, every cached cost query must equal a
// from-scratch recomputation on a fresh state bound to the same profile.
func TestDistCacheMatchesFreshRecomputation(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(3)
		g := New(randCacheHost(rng, n), 0.3+3*rng.Float64())
		s := NewState(g, StarProfile(n, rng.Intn(n)))
		for step := 0; step < 60; step++ {
			u := rng.Intn(n)
			switch rng.Intn(4) {
			case 0: // random single-edge move via Apply
				moves := s.CandidateMoves(u)
				if len(moves) == 0 {
					continue
				}
				s.Apply(moves[rng.Intn(len(moves))])
			case 1: // wholesale strategy replacement
				s.SetStrategy(u, randStrategy(rng, n, u))
			case 2: // speculative evaluation must leave the state intact
				moves := s.CandidateMoves(u)
				if len(moves) == 0 {
					continue
				}
				m := moves[rng.Intn(len(moves))]
				before := s.Cost(u)
				_ = s.CostAfter(m)
				if got := s.Cost(u); !costEq(got, before) {
					t.Fatalf("seed %d step %d: CostAfter mutated the state: Cost(%d) %v -> %v",
						seed, step, u, before, got)
				}
			case 3: // apply then exactly revert (the dynamics-scan pattern)
				old := s.P.S[u].Clone()
				s.SetStrategy(u, randStrategy(rng, n, u))
				_ = s.Cost(u)
				s.SetStrategy(u, old)
			}
			if step%7 == 0 || step == 59 {
				assertMatchesFresh(t, s, step)
			}
		}
	}
}

// TestCostAfterMalformedMovePanics: a malformed move must panic before
// CostAfter touches the profile, the network or the cache, leaving the
// state usable.
func TestCostAfterMalformedMovePanics(t *testing.T) {
	n := 5
	s := NewState(New(randCacheHost(rand.New(rand.NewSource(3)), n), 1), StarProfile(n, 0))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("CostAfter accepted a malformed move")
			}
		}()
		s.CostAfter(Move{Agent: 1, Kind: Delete, V: 2})
	}()
	_ = s.CostAfter(Move{Agent: 1, Kind: Buy, V: 2})
	assertMatchesFresh(t, s, 0)
}

// TestDistCacheConcurrentReads exercises the parallel read path (the
// IsNash / TotalDistCost pattern) so `go test -race` can observe it.
func TestDistCacheConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 12
	g := New(randCacheHost(rng, n), 2)
	s := NewState(g, StarProfile(n, 0))
	want := make([]float64, n)
	fresh := NewState(g, s.P.Clone())
	for u := 0; u < n; u++ {
		want[u] = uncachedCost(fresh, u)
	}
	for round := 0; round < 4; round++ {
		got := parallel.Map(n, func(u int) float64 { return s.Cost(u) })
		for u := 0; u < n; u++ {
			if !costEq(got[u], want[u]) {
				t.Fatalf("round %d: concurrent Cost(%d) = %v, want %v", round, u, got[u], want[u])
			}
		}
	}
}

// cacheLayout is what CostAfter must leave exactly as it found it when
// the mover's row is current: the log positions, every row slice (by
// identity) and the checksum of its position, contents and aggregate,
// the borrowed flags and the private row count.
type cacheLayout struct {
	head, base     uint64
	logLen, cached int
	rows           []*float64
	sums           []uint64
	borrowed       []bool
}

func layoutOf(s *State) cacheLayout {
	sums := cacheChecksums(s)
	c := s.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	l := cacheLayout{head: c.head, base: c.base, logLen: len(c.log), cached: c.cached, sums: sums,
		borrowed: append([]bool(nil), c.borrowed...)}
	for _, row := range c.rows {
		var p *float64
		if len(row) > 0 {
			p = &row[0]
		}
		l.rows = append(l.rows, p)
	}
	return l
}

// TestCostAfterLeavesCacheUntouched: CostAfter never writes the distance
// cache. On a plain state and on a fork worker whose rows are borrowed,
// a buy, a delete and a swap of every agent evaluate bit-equal to a
// fresh state with the move applied, whether the mover's row is
// current, stale or cold, and also when every removal repair is forced
// over budget. On a current row the cache's layout is identical before
// and after.
func TestCostAfterLeavesCacheUntouched(t *testing.T) {
	t.Parallel()
	const n = 9
	for _, refuse := range []bool{false, true} {
		budget := graph.DefaultRepairBudget(n)
		if refuse {
			budget = 1
		}
		var refusals uint64
		for _, forked := range []bool{false, true} {
			for _, flavor := range repairFlavors {
				rng := rand.New(rand.NewSource(41))
				g := New(repairHost(t, rng, n, flavor), 0.4+2*rng.Float64())
				for pi, p := range []Profile{PathProfile(n, rng.Perm(n)), randProfile(rng, n, 0.2)} {
					for u := 0; u < n; u++ {
						for _, m := range firstMoveOfEachKind(NewState(g, p.Clone()).CandidateMoves(u)) {
							for _, rows := range []string{"current", "stale", "cold"} {
								ctx := fmt.Sprintf("refuse=%v forked=%v %s profile %d %v, %s row", refuse, forked, flavor, pi, m, rows)
								s, other := costAfterSetup(g, p, u, rows, forked, budget)
								ref := NewState(g, s.P.Clone())
								ref.Apply(m)
								want := uncachedCost(ref, u)
								before := layoutOf(s)
								st := s.CacheStats()
								if got := s.CostAfter(m); math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("%s: CostAfter = %v, fresh state with the move = %v", ctx, got, want)
								}
								refusals += s.CacheStats().RepairRefusals - st.RepairRefusals
								if rows == "current" && !reflect.DeepEqual(layoutOf(s), before) {
									t.Fatalf("%s: CostAfter changed the cache layout", ctx)
								}
								assertCostsBitEqualUncached(t, s, ctx, 0)
								if other != nil {
									other.Join()
								}
							}
						}
					}
				}
			}
		}
		if refuse && refusals == 0 {
			t.Fatal("no repair was refused under budget 1; the refusal case is vacuous")
		}
	}
}

// TestCostAfterAllocatesOnlyTheStrategy: on a current row, CostAfter
// allocates once, for the Move.NewStrategy clone, whether the
// speculative repair is accepted or refused: the edge flips, the scratch
// row and its blocks live in buffers the state and its cache reuse, the
// repair's and the refusal row's working memory in the cache's own
// graph.Scratch, and a refusal recomputes the row into the scratch row.
// On the path, cutting (5,6) leaves 294 vertices to repair, past the
// budget of 91, while cutting (290,291) leaves 9. No pool is on the
// path, so every case is counted under -race too.
func TestCostAfterAllocatesOnlyTheStrategy(t *testing.T) {
	const n = 300
	host := NewHost(gen.Tree(8, n, 1, 6))
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	star, path := StarProfile(n, 0), PathProfile(n, order)
	for _, tc := range []struct {
		p       Profile
		m       Move
		refused bool
	}{
		{star, Move{Agent: 5, Kind: Buy, V: 7}, false},
		{path, Move{Agent: 5, Kind: Delete, V: 6}, true},
		{path, Move{Agent: 290, Kind: Delete, V: 291}, false},
		{path, Move{Agent: 5, Kind: Swap, V: 6, X: 150}, true},
		{path, Move{Agent: 290, Kind: Swap, V: 291, X: 295}, false},
	} {
		s := NewState(New(host, n), tc.p.Clone())
		s.Dist(tc.m.Agent)
		before := s.CacheStats().RepairRefusals
		s.CostAfter(tc.m)
		if refused := s.CacheStats().RepairRefusals > before; refused != tc.refused {
			t.Fatalf("CostAfter(%v): repair refused = %v, want %v", tc.m, refused, tc.refused)
		}
		if allocs := testing.AllocsPerRun(100, func() { s.CostAfter(tc.m) }); allocs != 1 {
			t.Fatalf("CostAfter(%v) allocated %v times per run, want 1", tc.m, allocs)
		}
	}
}

// TestStaleRowReplayAllocatesNothing: bringing a stale, private row
// current through Dist (the log collapsed by pendingDiff, the row
// batch-repaired and its aggregate refolded) allocates nothing once the
// buffers are warm. Each run logs a flip of the star edge (0,10) and its
// undo, which cancel, around a flip of (0,20), so the row is one net edge
// behind; the flips are applied below the profile, as CostAfter does.
func TestStaleRowReplayAllocatesNothing(t *testing.T) {
	const n = 300
	s := NewState(New(NewHost(gen.Tree(8, n, 1, 6)), n), StarProfile(n, 0))
	w10, w20 := s.hostWeight(0, 10), s.hostWeight(0, 20)
	s.Dist(5)
	has20 := true
	replay := func() {
		s.applyFlips(0, []edgeFlip{{10, false, w10}})
		s.applyFlips(0, []edgeFlip{{20, !has20, w20}})
		s.applyFlips(0, []edgeFlip{{10, true, w10}})
		has20 = !has20
		s.Dist(5)
	}
	before := s.CacheStats()
	allocs := testing.AllocsPerRun(100, replay)
	after := s.CacheStats()
	if replays := after.BatchRepairs - before.BatchRepairs; replays != 101 || after.Misses != before.Misses {
		t.Fatalf("101 reads replayed %d rows with %d misses, want 101 replays and no miss",
			replays, after.Misses-before.Misses)
	}
	assertRowsBitEqualFresh(t, s, "replayed row", 0)
	if allocs != 0 {
		t.Fatalf("replaying a stale row through Dist allocated %v times per run, want 0", allocs)
	}
}

// firstMoveOfEachKind returns the first buy, delete and swap of moves.
func firstMoveOfEachKind(moves []Move) []Move {
	var out []Move
	seen := map[MoveKind]bool{}
	for _, m := range moves {
		if !seen[m.Kind] {
			seen[m.Kind] = true
			out = append(out, m)
		}
	}
	return out
}

// costAfterSetup returns a state on profile p where agent u's row is
// current, stale (cached, then an edge of another agent flipped) or
// cold, and the fork it is a worker of (nil for a plain state). A
// forked state is worker 0 of a two-worker fork over a parent that
// holds the rows, so they are borrowed. Every removal repair on the
// state, and on the fork's workers, runs under the given budget.
func costAfterSetup(g *Game, p Profile, u int, rows string, forked bool, budget int) (*State, *Fork) {
	s := NewState(g, p.Clone())
	s.cache.budget = budget
	if rows != "cold" {
		s.SocialCost()
	}
	var f *Fork
	commit := s.SetStrategy
	if forked {
		f = s.Fork(2)
		s, commit = f.Worker(0), f.SetStrategy
	}
	if rows == "stale" {
		w := (u + 1) % g.N()
		for x := 0; x < g.N(); x++ {
			if x != w && !s.Network().HasEdge(w, x) {
				commit(w, Move{Agent: w, Kind: Buy, V: x}.NewStrategy(s.P.S[w]))
				break
			}
		}
	}
	return s, f
}
