package game

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"gncg/internal/metric"
)

func TestMoveString(t *testing.T) {
	cases := []struct {
		m    Move
		want string
	}{
		{Move{Agent: 1, Kind: Buy, V: 2}, "agent 1 buys (1,2)"},
		{Move{Agent: 0, Kind: Delete, V: 3}, "agent 0 deletes (0,3)"},
		{Move{Agent: 2, Kind: Swap, V: 1, X: 4}, "agent 2 swaps (2,1) for (2,4)"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if !strings.Contains((Move{Kind: MoveKind(9)}).String(), "invalid") {
		t.Error("invalid kind not flagged")
	}
}

func TestApplyPanicsOnInvalidKind(t *testing.T) {
	g := New(NewHost(metric.Unit{N: 3}), 1)
	s := NewState(g, EmptyProfile(3))
	defer func() {
		if recover() == nil {
			t.Error("invalid move kind did not panic")
		}
	}()
	s.Apply(Move{Agent: 0, Kind: MoveKind(9), V: 1})
}

// TestCandidateMovesComplete: the enumeration contains exactly the legal
// single-edge moves — (n-1-|S|) buys, |S| deletes, |S|*(n-1-|S|) swaps.
func TestCandidateMovesComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(6)
		g := New(NewHost(metric.Unit{N: n}), 1)
		p := EmptyProfile(n)
		u := rng.Intn(n)
		owned := 0
		for v := 0; v < n; v++ {
			if v != u && rng.Float64() < 0.5 {
				p.Buy(u, v)
				owned++
			}
		}
		s := NewState(g, p)
		moves := s.CandidateMoves(u)
		free := n - 1 - owned
		want := free + owned + owned*free
		if len(moves) != want {
			t.Fatalf("n=%d owned=%d: %d moves, want %d", n, owned, len(moves), want)
		}
		seen := map[string]bool{}
		for _, m := range moves {
			if m.Agent != u {
				t.Fatal("move for wrong agent")
			}
			key := m.String()
			if seen[key] {
				t.Fatalf("duplicate move %s", key)
			}
			seen[key] = true
		}
	}
}

func TestPathProfile(t *testing.T) {
	p := PathProfile(4, []int{2, 0, 3, 1})
	if !p.Buys(2, 0) || !p.Buys(0, 3) || !p.Buys(3, 1) {
		t.Fatal("path purchases wrong")
	}
	if p.EdgeCount() != 3 {
		t.Fatalf("edge count %d", p.EdgeCount())
	}
}

func TestStarProfile(t *testing.T) {
	p := StarProfile(5, 2)
	if p.S[2].Count() != 4 {
		t.Fatalf("center buys %d", p.S[2].Count())
	}
	for u := 0; u < 5; u++ {
		if u != 2 && p.S[u].Count() != 0 {
			t.Fatal("leaf bought an edge")
		}
	}
}

func TestBuySelfPanics(t *testing.T) {
	p := EmptyProfile(3)
	defer func() {
		if recover() == nil {
			t.Error("self-buy did not panic")
		}
	}()
	p.Buy(1, 1)
}

func TestOwnedEdgesSorted(t *testing.T) {
	p := EmptyProfile(4)
	p.Buy(2, 1)
	p.Buy(0, 3)
	p.Buy(0, 1)
	es := p.OwnedEdges()
	if len(es) != 3 {
		t.Fatalf("%d owned edges", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i-1].Owner > es[i].Owner ||
			(es[i-1].Owner == es[i].Owner && es[i-1].To > es[i].To) {
			t.Fatalf("OwnedEdges unsorted: %v", es)
		}
	}
}

func TestNewStatePanicsOnSizeMismatch(t *testing.T) {
	g := New(NewHost(metric.Unit{N: 3}), 1)
	defer func() {
		if recover() == nil {
			t.Error("profile size mismatch did not panic")
		}
	}()
	NewState(g, EmptyProfile(4))
}

func TestNegativeAlphaPanics(t *testing.T) {
	for _, alpha := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v did not panic", alpha)
				}
			}()
			New(NewHost(metric.Unit{N: 2}), alpha)
		}()
	}
}

// TestByDistSortMatchesSortSlice: ensureSorted's slices.SortFunc with
// byDist leaves tied distances in exactly the order sort.Slice with
// a.d < b.d did, so the prefix sums it builds, and every bound read from
// them, keep their bits. Inputs draw distances from a few values (many
// ties, +Inf included) and tag each pair with its input index in t.
func TestByDistSortMatchesSortSlice(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(300)
		vals := []float64{0, 1, 2.5, 3, math.Inf(1)}[:1+rng.Intn(5)]
		a := make([]distDemand, n)
		for i := range a {
			a[i] = distDemand{d: vals[rng.Intn(len(vals))], t: float64(i)}
		}
		b := slices.Clone(a)
		sort.Slice(a, func(i, j int) bool { return a[i].d < a[j].d })
		slices.SortFunc(b, byDist)
		if !slices.Equal(a, b) {
			t.Fatalf("trial %d (n = %d): slices.SortFunc permutation differs from sort.Slice", trial, n)
		}
	}
}

// TestGainCertificateSortAllocatesNothing: a warm AcquireGainCertificate
// of an agent whose row gets sorted (ensureSorted runs) allocates
// nothing: the sort is allocation-free and its arrays are reused.
func TestGainCertificateSortAllocatesNothing(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(3))
	s := NewState(New(randCacheHost(rng, n), 1), randomProfile(rng, n, 0.02))
	if !s.Connected() {
		t.Fatal("profile is disconnected: no certificate builds bounds")
	}
	u := -1
	for x := 0; x < n && u < 0; x++ {
		s.AcquireGainCertificate(x)
		if s.bounds.sorted {
			u = x
		}
	}
	if u < 0 {
		t.Fatal("no agent's certificate sorted its row; the gate is vacuous")
	}
	if allocs := testing.AllocsPerRun(20, func() { s.AcquireGainCertificate(u) }); allocs != 0 {
		t.Fatalf("certificate of agent %d, whose row sorts, allocated %v times per run, want 0", u, allocs)
	}
}
