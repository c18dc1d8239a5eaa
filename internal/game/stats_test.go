package game

import (
	"math/rand"
	"testing"
)

// TestCacheStatsCounting pins the observability counters' semantics on a
// deterministic single-threaded query sequence: misses on cold rows,
// O(1) hits on warm aggregates and warm rows, and batch repairs across
// applied moves — the events the equilibrium sweep's churn probe
// records — and the one event a CostAfter adds.
func TestCacheStatsCounting(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(9))
	n := 8
	g := New(randCacheHost(rng, n), 1.5)
	s := NewState(g, StarProfile(n, 0))
	if st := s.CacheStats(); st != (CacheStats{Capacity: n}) {
		t.Fatalf("fresh state has nonzero stats: %+v", st)
	}
	s.DistCost(3)
	if st := s.CacheStats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("cold read: %+v", st)
	}
	s.DistCost(3)
	if st := s.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("warm aggregate read: %+v", st)
	}
	_ = s.Dist(3)
	if st := s.CacheStats(); st.Hits != 2 {
		t.Fatalf("warm row read: %+v", st)
	}
	// A single applied edge change leaves row 3 stale; its next read
	// batch-repairs it in place, which still counts as a hit (no fresh
	// Dijkstra ran).
	s.Apply(Move{Agent: 1, Kind: Buy, V: 3})
	s.DistCost(3)
	st := s.CacheStats()
	if st.BatchRepairs != 1 || st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("repair read: %+v", st)
	}
	if st.Evictions != 0 || st.RepairRefusals != 0 {
		t.Fatalf("unexpected evictions/refusals: %+v", st)
	}
	if st.Capacity != n {
		t.Fatalf("capacity = %d, want %d", st.Capacity, n)
	}
	// CostAfter on a current row repairs a scratch copy of it: one hit
	// and one batch repair.
	s.CostAfter(Move{Agent: 3, Kind: Buy, V: 5})
	want := st
	want.Hits++
	want.BatchRepairs++
	if st = s.CacheStats(); st != want {
		t.Fatalf("CostAfter on a current row: %+v, want %+v", st, want)
	}
	// A refused repair is one refusal and one miss (a fresh Dijkstra of
	// the speculative network), and no hit: deleting the first edge of a
	// path cuts off every other vertex, far over a budget of 1.
	path := NewState(g, PathProfile(n, []int{0, 1, 2, 3, 4, 5, 6, 7}))
	path.cache.budget = 1
	path.DistCost(0)
	want = path.CacheStats()
	path.CostAfter(Move{Agent: 0, Kind: Delete, V: 1})
	want.RepairRefusals++
	want.Misses++
	if st = path.CacheStats(); st != want {
		t.Fatalf("CostAfter with a refused repair: %+v, want %+v", st, want)
	}
	// Clones start with fresh counters: probes on a clone are isolated
	// from (and do not disturb) the original's numbers.
	c := s.Clone()
	if cs := c.CacheStats(); cs.Hits != 0 || cs.Misses != 0 {
		t.Fatalf("clone inherited counters: %+v", cs)
	}
}

// TestCacheStatsEvictionChurn measures the ROADMAP's FIFO-degeneration
// concern in miniature: round-robin access over more rows than the cap
// makes every read a miss, and the counters say so.
func TestCacheStatsEvictionChurn(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	n := 8
	g := New(randCacheHost(rng, n), 1.5)
	s := NewState(g, StarProfile(n, 0))
	s.cache.cap = 2
	for round := 0; round < 2; round++ {
		for u := 0; u < n; u++ {
			s.DistCost(u)
		}
	}
	st := s.CacheStats()
	if st.Misses != 16 || st.Hits != 0 {
		t.Fatalf("round-robin over cap 2 should be pure churn: %+v", st)
	}
	if st.Evictions != 14 {
		// 16 inserts into 2 slots: every insert after the second evicts.
		t.Fatalf("evictions = %d, want 14 (%+v)", st.Evictions, st)
	}
	if st.Capacity != 2 {
		t.Fatalf("capacity = %d, want 2", st.Capacity)
	}
}
