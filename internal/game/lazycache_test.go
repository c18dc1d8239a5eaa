package game

import (
	"math"
	"math/rand"
	"testing"
)

// assertCostsBitEqualUncached compares every agent's DistCost/Cost and
// the social cost on s against a from-scratch recomputation on a fresh
// state bound to the same profile, bit-for-bit: the aggregate fast path,
// incremental block maintenance across repairs, and from-scratch
// recomputation must be numerically indistinguishable, not merely close.
func assertCostsBitEqualUncached(t *testing.T, s *State, ctx string, step int) {
	t.Helper()
	fresh := NewState(s.G, s.P.Clone())
	n := s.G.N()
	bitEq := func(a, b float64) bool {
		return a == b || (math.IsInf(a, 1) && math.IsInf(b, 1))
	}
	for u := 0; u < n; u++ {
		if got, want := s.DistCost(u), uncachedDistCost(fresh, u); !bitEq(got, want) {
			t.Fatalf("%s step %d: aggregate DistCost(%d) = %v, exact recomputation = %v",
				ctx, step, u, got, want)
		}
		if got, want := s.Cost(u), uncachedCost(fresh, u); !bitEq(got, want) {
			t.Fatalf("%s step %d: aggregate Cost(%d) = %v, exact recomputation = %v",
				ctx, step, u, got, want)
		}
	}
	if got, want := s.SocialCost(), uncachedSocialCost(fresh); !bitEq(got, want) {
		t.Fatalf("%s step %d: aggregate SocialCost = %v, exact recomputation = %v", ctx, step, got, want)
	}
}

// TestAggregateCostsBitEqualExact is the tentpole's numeric contract:
// after randomized apply / speculative-evaluate / undo / bulk-replace
// sequences on every host flavor, aggregate-based costs must be
// bit-identical to exact from-scratch recomputation.
func TestAggregateCostsBitEqualExact(t *testing.T) {
	for _, flavor := range repairFlavors {
		flavor := flavor
		t.Run(flavor, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(900 + seed))
				n := 6 + rng.Intn(4)
				g := New(repairHost(t, rng, n, flavor), 0.3+3*rng.Float64())
				s := NewState(g, randProfile(rng, n, 0.3))
				assertCostsBitEqualUncached(t, s, flavor, -1)
				for step := 0; step < 30; step++ {
					u := rng.Intn(n)
					moves := s.CandidateMoves(u)
					if len(moves) == 0 {
						continue
					}
					m := moves[rng.Intn(len(moves))]
					switch rng.Intn(4) {
					case 0:
						s.Apply(m)
					case 1:
						_ = s.CostAfter(m)
					case 2:
						old := s.P.S[u].Clone()
						s.Apply(m)
						_ = s.Cost(u)
						s.SetStrategy(u, old)
					case 3:
						s.SetStrategy(u, randStrategy(rng, n, u))
					}
					assertCostsBitEqualUncached(t, s, flavor, step)
				}
			}
		})
	}
}

// TestAppliedMoveLeavesRowsLazy is the white-box laziness guard: applying
// a move must only append to the delta log — no cached row may be
// repaired or re-stamped eagerly — and the next read of any row must
// still be bit-equal to a fresh Dijkstra.
func TestAppliedMoveLeavesRowsLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 24
	s := NewState(New(randCacheHost(rng, n), 2), StarProfile(n, 0))
	for u := 0; u < n; u++ {
		_ = s.Dist(u)
	}
	c := s.cache
	head0 := c.head
	pos0 := append([]uint64(nil), c.rowPos...)
	s.Apply(Move{Agent: 1, Kind: Buy, V: 2})
	if c.head != head0+1 {
		t.Fatalf("head advanced by %d, want 1 delta", c.head-head0)
	}
	for i, p := range pos0 {
		if c.rowPos[i] != p {
			t.Fatalf("row %d was eagerly re-stamped on apply (pos %d -> %d)", i, p, c.rowPos[i])
		}
	}
	assertRowsBitEqualFresh(t, s, "lazy apply", 0)
	// ...and after the reads, rows are current again.
	for i := range pos0 {
		if c.rows[i] != nil && c.rowPos[i] != c.head {
			t.Fatalf("row %d not brought current by read", i)
		}
	}
}

// TestLogCompactionFallsBackToRecompute parks a warm row across more
// deltas than the log retains: the row falls behind the compaction
// horizon and must be recomputed from scratch, never mis-replayed across
// a truncated history.
func TestLogCompactionFallsBackToRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 8
	s := NewState(New(randCacheHost(rng, n), 1.5), StarProfile(n, 0))
	_ = s.Dist(5)
	pos := s.cache.rowPos[5]
	for k := 0; k < maxPendingDeltas/2+12; k++ {
		s.Apply(Move{Agent: 1, Kind: Buy, V: 3})
		s.Apply(Move{Agent: 1, Kind: Delete, V: 3})
	}
	if s.cache.base <= pos {
		t.Fatalf("log not compacted: base %d, row position %d", s.cache.base, pos)
	}
	assertRowsBitEqualFresh(t, s, "behind horizon", 0)
}

// TestRowCacheEviction runs the randomized corpus under a two-row cache
// cap, so insertion constantly evicts, and requires every cost to stay
// bit-equal to exact recomputation.
func TestRowCacheEviction(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(21))
	n := 8
	g := New(randCacheHost(rng, n), 1.2)
	s := NewState(g, StarProfile(n, 0))
	s.cache.cap = 2
	for step := 0; step < 25; step++ {
		u := rng.Intn(n)
		moves := s.CandidateMoves(u)
		if len(moves) == 0 {
			continue
		}
		m := moves[rng.Intn(len(moves))]
		if rng.Intn(2) == 0 {
			s.Apply(m)
		} else {
			_ = s.CostAfter(m)
		}
		if s.cache.cached > 2 {
			t.Fatalf("step %d: %d rows cached, cap 2", step, s.cache.cached)
		}
		assertCostsBitEqualUncached(t, s, "eviction", step)
	}
}

// TestCostInputsFixedOnceBound: a Game's demand and cost model can be
// set until the first NewState (a SetTraffic then discards the cached
// floor sums) and are fixed from then on. SetTraffic refuses and leaves
// the demand, and every cost built on it, as they were; SetRules panics.
func TestCostInputsFixedOnceBound(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	n := 9
	g := New(randCacheHost(rng, n), 2)
	tr := make([][]float64, n)
	for u := range tr {
		tr[u] = make([]float64, n)
		for v := range tr[u] {
			if u != v {
				tr[u][v] = 2
			}
		}
	}
	g.SetRules(capRules{})
	g.SetRules(nil)
	if err := g.SetTraffic(tr); err != nil {
		t.Fatalf("SetTraffic before NewState: %v", err)
	}
	doubled := g.TrafficFloorTotal() // caches the floor sums under demand 2
	if err := g.SetTraffic(nil); err != nil {
		t.Fatalf("SetTraffic(nil) before NewState: %v", err)
	}
	if got := g.TrafficFloorTotal(); got != doubled/2 {
		t.Fatalf("floor total after SetTraffic(nil) = %v, want %v: the cached sums survived", got, doubled/2)
	}
	s := NewState(g, StarProfile(n, 0))
	before := s.DistCost(3)
	if err := g.SetTraffic(tr); err == nil {
		t.Fatal("SetTraffic after NewState succeeded")
	}
	if g.HasTraffic() || g.Traffic(3, 4) != 1 {
		t.Fatalf("refused SetTraffic changed the demand: t(3,4) = %v", g.Traffic(3, 4))
	}
	if got := s.DistCost(3); got != before {
		t.Fatalf("DistCost after a refused SetTraffic = %v, want %v", got, before)
	}
	assertCostsBitEqualUncached(t, s, "bound", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("SetRules after NewState did not panic")
		}
		if _, ok := g.Rules().(SumRules); !ok {
			t.Fatalf("panicking SetRules installed %T", g.Rules())
		}
	}()
	g.SetRules(capRules{})
}
