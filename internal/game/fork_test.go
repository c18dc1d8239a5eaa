package game

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"gncg/internal/gen"
	"gncg/internal/graph"
)

// TestForkWorkerCapsSplitParentCap: a fork's workers hold at most the
// parent's row budget between them, under the cap the n = 10⁵ ladder
// rungs run with and under the every-row cap of a small state, however
// many rows each worker reads.
func TestForkWorkerCapsSplitParentCap(t *testing.T) {
	t.Parallel()
	const n = 400
	for _, parentCap := range []int{rowCacheCap(100000), rowCacheCap(n)} {
		rng := rand.New(rand.NewSource(5))
		s := NewState(New(randCacheHost(rng, n), 1.5), StarProfile(n, 0))
		s.cache.cap = parentCap
		for _, workers := range []int{1, 2, 3, 8, 64, 1000} {
			f := s.Fork(workers)
			capSum, heldSum := 0, 0
			f.Each(func(_ int, ws *State) {
				for u := 0; u < n; u++ {
					ws.DistCost(u)
				}
			})
			for w := 0; w < f.Size(); w++ {
				c := f.Worker(w).cache
				capSum += c.cap
				heldSum += c.cached
				if c.cached > c.cap {
					t.Fatalf("cap %d, %d workers: worker %d holds %d rows over its cap %d", parentCap, workers, w, c.cached, c.cap)
				}
			}
			if capSum > parentCap || heldSum > parentCap {
				t.Fatalf("cap %d, %d workers: worker caps sum to %d, rows held %d", parentCap, workers, capSum, heldSum)
			}
			f.Join()
			if got := s.cache.cached; got > parentCap {
				t.Fatalf("cap %d, %d workers: parent holds %d rows after Join", parentCap, workers, got)
			}
		}
	}
}

// TestForkRowsStayExact drives a fork the way the speculative dynamics
// do: moves committed through the fork while every worker keeps
// evaluating costs and speculative moves on rows it borrowed from a warm
// parent. Worker costs must match a fresh state bit for bit, the
// parent's rows must not change while forked, and after Join the
// parent's costs must still be exact.
func TestForkRowsStayExact(t *testing.T) {
	for _, flavor := range repairFlavors {
		rng := rand.New(rand.NewSource(31))
		n := 9
		g := New(repairHost(t, rng, n, flavor), 0.4+2*rng.Float64())
		s := NewState(g, randProfile(rng, n, 0.3))
		s.SocialCost() // warm every row: the workers borrow them all
		f := s.Fork(3)
		rowsAtFork := cacheChecksums(s)
		for step := 0; step < 12; step++ {
			u := rng.Intn(n)
			if moves := s.CandidateMoves(u); len(moves) > 0 {
				m := moves[rng.Intn(len(moves))]
				f.SetStrategy(u, m.NewStrategy(s.P.S[u]))
			}
			fresh := NewState(g, s.P.Clone())
			f.Each(func(w int, ws *State) {
				for v := w; v < n; v += f.Size() {
					if got, want := ws.Cost(v), fresh.Clone().Cost(v); got != want {
						t.Errorf("%s step %d worker %d: Cost(%d) = %v, fresh %v", flavor, step, w, v, got, want)
					}
					if moves := ws.CandidateMoves(v); len(moves) > 0 {
						ws.CostAfter(moves[(step+v)%len(moves)])
					}
				}
			})
			if t.Failed() {
				return
			}
		}
		if got := cacheChecksums(s); !reflect.DeepEqual(got, rowsAtFork) {
			t.Fatalf("%s: the parent's rows changed while forked", flavor)
		}
		f.Join()
		assertCostsBitEqualUncached(t, s, flavor, -1)
	}
}

// TestForkSharesProfile pins the fork's memory contract: workers share
// the parent's profile instead of copying it, so Fork(2) on an n = 8192
// star allocates less than one dense profile (n·⌈n/64⌉ words), commits
// through the fork leave every worker's network equal to the parent's,
// and worker evaluations leave the shared profile bit-identical.
func TestForkSharesProfile(t *testing.T) {
	const n = 8192
	s := NewState(New(NewHost(gen.Points(3, n, 2, 1000, 2)), 2*n), StarProfile(n, 0))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f := s.Fork(2)
	runtime.ReadMemStats(&after)
	if got, dense := after.TotalAlloc-before.TotalAlloc, uint64(n*((n+63)/64)*8); got >= dense {
		t.Fatalf("Fork(2) allocated %d bytes, want below one dense profile (%d bytes)", got, dense)
	}
	sortedEdges := func(g *graph.Graph) []graph.Edge {
		es := g.Edges()
		sort.Slice(es, func(i, j int) bool { return es[i].U < es[j].U || es[i].U == es[j].U && es[i].V < es[j].V })
		return es
	}
	for _, m := range []Move{
		{Agent: 5, Kind: Buy, V: 7},
		{Agent: 0, Kind: Delete, V: 9},
		{Agent: 0, Kind: Swap, V: 11, X: 9},
		{Agent: 3, Kind: Buy, V: 0}, // ownership only: the edge exists
	} {
		f.SetStrategy(m.Agent, m.NewStrategy(s.P.S[m.Agent]))
		want := sortedEdges(s.Network())
		for w := 0; w < f.Size(); w++ {
			if got := sortedEdges(f.Worker(w).Network()); !reflect.DeepEqual(got, want) {
				t.Fatalf("after %v: worker %d has %d edges, the parent %d (or they differ)", m, w, len(got), len(want))
			}
		}
	}
	snapshot := s.P.Clone()
	f.Each(func(w int, ws *State) {
		for _, m := range []Move{{Agent: 5 + w, Kind: Buy, V: 40}, {Agent: 0, Kind: Delete, V: 20 + w}, {Agent: 5, Kind: Swap, V: 7, X: 30 + w}} {
			ws.CostAfter(m)
		}
	})
	for u := range n {
		if !s.P.S[u].Equal(snapshot.S[u]) {
			t.Fatalf("worker CostAfter changed agent %d's shared strategy", u)
		}
	}
	f.Join()
}
