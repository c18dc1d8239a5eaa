package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// randRepairGraph builds a random graph whose weight distribution
// stresses the repair paths: generic floats, exact ties (small integer
// weights), zero-weight edges and +Inf edges.
func randRepairGraph(rng *rand.Rand, n int, flavor string) *Graph {
	g := New(n)
	p := 0.25 + rng.Float64()*0.3
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() >= p {
				continue
			}
			var w float64
			switch flavor {
			case "generic":
				w = rng.Float64() * 10
			case "ties":
				w = float64(rng.Intn(3)) // 0, 1 or 2: heavy tie pressure
			case "mixed":
				switch rng.Intn(4) {
				case 0:
					w = 0
				case 1:
					w = math.Inf(1)
				default:
					w = float64(1+rng.Intn(4)) / 2
				}
			}
			g.AddEdge(u, v, w)
		}
	}
	return g
}

func rowsEqualBitwise(t *testing.T, got, want []float64, ctx string) {
	t.Helper()
	for i := range want {
		gi, wi := got[i], want[i]
		if gi != wi && !(math.IsInf(gi, 1) && math.IsInf(wi, 1)) {
			t.Fatalf("%s: dist[%d] = %v, fresh Dijkstra = %v", ctx, i, gi, wi)
		}
	}
}

// repairOne repairs dist from src across one edge change through
// RepairRowBatch — the insertion of e when add is set, else its removal —
// and returns whether the repair succeeded and the distinct vertices it
// marked.
func repairOne(g *Graph, dist []float64, src int, e Edge, add bool, budget int) (marked map[int]bool, ok bool) {
	marked = map[int]bool{}
	removed, added := []Edge{e}, []Edge(nil)
	if add {
		removed, added = nil, removed
	}
	ok = g.RepairRowBatch(new(Scratch), dist, src, removed, added, budget, func(x int) { marked[x] = true })
	return marked, ok
}

// TestRepairRowMatchesFreshDijkstra: after random interleaved single-edge
// insertions and deletions, rows repaired incrementally for every source
// must be bit-equal to fresh Dijkstra on the mutated graph.
func TestRepairRowMatchesFreshDijkstra(t *testing.T) {
	for _, flavor := range []string{"generic", "ties", "mixed"} {
		flavor := flavor
		t.Run(flavor, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 6 + rng.Intn(10)
				g := randRepairGraph(rng, n, flavor)
				rows := make([][]float64, n)
				for src := 0; src < n; src++ {
					rows[src] = g.Dijkstra(src)
				}
				for step := 0; step < 60; step++ {
					u := rng.Intn(n)
					v := rng.Intn(n)
					if u == v {
						continue
					}
					if g.HasEdge(u, v) {
						w := g.EdgeWeight(u, v)
						g.RemoveEdge(u, v)
						for src := 0; src < n; src++ {
							if _, ok := repairOne(g, rows[src], src, Edge{U: u, V: v, W: w}, false, n+1); !ok {
								t.Fatalf("seed %d step %d: budget n+1 exceeded on an n-vertex graph", seed, step)
							}
						}
					} else {
						var w float64
						switch flavor {
						case "generic":
							w = rng.Float64() * 10
						case "ties":
							w = float64(rng.Intn(3))
						case "mixed":
							w = []float64{0, math.Inf(1), 1, 1.5}[rng.Intn(4)]
						}
						g.AddEdge(u, v, w)
						for src := 0; src < n; src++ {
							repairOne(g, rows[src], src, Edge{U: u, V: v, W: w}, true, n+1)
						}
					}
					for src := 0; src < n; src++ {
						rowsEqualBitwise(t, rows[src], g.Dijkstra(src), flavor)
					}
				}
			}
		})
	}
}

// TestRepairRowBatchZeroWeightCycleGrounding pins the zero-weight
// pathology the strict-support rule exists for: two zero-weight cycle
// mates that "support" each other but are grounded only through the
// deleted edge must both be detected as affected (and go to +Inf).
func TestRepairRowBatchZeroWeightCycleGrounding(t *testing.T) {
	// s --5-- v --0-- u --0-- a, plus nothing else: removing (v,u)
	// disconnects {u,a}, even though u and a keep tight "supports"
	// via each other.
	g := New(4)
	s, v, u, a := 0, 1, 2, 3
	g.AddEdge(s, v, 5)
	g.AddEdge(v, u, 0)
	g.AddEdge(u, a, 0)
	dist := g.Dijkstra(s)
	g.RemoveEdge(v, u)
	if _, ok := repairOne(g, dist, s, Edge{U: v, V: u, W: 0}, false, 64); !ok {
		t.Fatal("repair unexpectedly exceeded budget")
	}
	rowsEqualBitwise(t, dist, g.Dijkstra(s), "zero-weight cycle")
	if !math.IsInf(dist[u], 1) || !math.IsInf(dist[a], 1) {
		t.Fatalf("u, a should be unreachable, got %v, %v", dist[u], dist[a])
	}
}

// TestRepairRowBatchRemovalBudgetFallback: when a single removal's
// affected set exceeds the budget the row must be left exactly as it
// was, and no entry may be marked.
func TestRepairRowBatchRemovalBudgetFallback(t *testing.T) {
	// A long path from src: deleting the first edge affects every other
	// vertex, so any budget below n-1 must refuse and leave the row alone.
	n := 16
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	dist := g.Dijkstra(0)
	before := append([]float64(nil), dist...)
	g.RemoveEdge(0, 1)
	removed := Edge{U: 0, V: 1, W: 1}
	if marked, ok := repairOne(g, dist, 0, removed, false, 3); ok || len(marked) != 0 {
		t.Fatalf("expected budget refusal with no marks, got ok=%v marked=%v", ok, marked)
	}
	rowsEqualBitwise(t, dist, before, "refused repair must not touch the row")
	if _, ok := repairOne(g, dist, 0, removed, false, n); !ok {
		t.Fatal("budget n should suffice")
	}
	rowsEqualBitwise(t, dist, g.Dijkstra(0), "after retry with larger budget")
}

// TestRepairRowBatchChangedCountsVertices: an insertion marks exactly
// the changed entries — a vertex the wavefront improves twice (first via
// a far frontier vertex, then via a closer one) is one distinct mark.
func TestRepairRowBatchChangedCountsVertices(t *testing.T) {
	// Path 0-1-2-3-4 (unit weights) with (4,5) of weight 10 and a side
	// edge (3,5) of weight 1. Inserting (0,4) of weight 1 improves 4
	// (4→1), 3 (3→2) and 5 twice (4→11 via vertex 4, then →3 via 3).
	g := New(6)
	for i := 0; i+1 < 5; i++ {
		g.AddEdge(i, i+1, 1)
	}
	g.AddEdge(4, 5, 10)
	g.AddEdge(3, 5, 1)
	dist := g.Dijkstra(0)
	g.AddEdge(0, 4, 1)
	if marked, _ := repairOne(g, dist, 0, Edge{U: 0, V: 4, W: 1}, true, 6); len(marked) != 3 {
		t.Fatalf("changed = %v, want 3 (vertices 3, 4, 5)", marked)
	}
	rowsEqualBitwise(t, dist, g.Dijkstra(0), "double-improvement insert")
}

// TestRepairRowBatchInfEdgeIsNoop: inserting an unbuyable (+Inf) edge
// never changes or marks a distance.
func TestRepairRowBatchInfEdgeIsNoop(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	dist := g.Dijkstra(0)
	g.AddEdge(1, 2, math.Inf(1))
	if marked, _ := repairOne(g, dist, 0, Edge{U: 1, V: 2, W: math.Inf(1)}, true, 3); len(marked) != 0 {
		t.Fatalf("inf insertion marked %v", marked)
	}
	rowsEqualBitwise(t, dist, g.Dijkstra(0), "inf add")
}

// TestRepairRowBatchMatchesFreshDijkstra is the batch-repair property
// behind the game cache's lazy delta replay: rows repaired across a net
// edge diff (several removals and insertions collapsed into one edit)
// must be bit-equal to fresh Dijkstra on the final graph, for every
// source and for every weight flavor.
func TestRepairRowBatchMatchesFreshDijkstra(t *testing.T) {
	for _, flavor := range []string{"generic", "ties", "mixed"} {
		flavor := flavor
		t.Run(flavor, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewSource(500 + seed))
				n := 6 + rng.Intn(10)
				g := randRepairGraph(rng, n, flavor)
				rows := make([][]float64, n)
				for src := 0; src < n; src++ {
					rows[src] = g.Dijkstra(src)
				}
				sc := new(Scratch) // one scratch across every step and source
				for step := 0; step < 25; step++ {
					// Build a random net diff of 1..4 edge flips on
					// distinct pairs, mutating g accordingly.
					var removed, added []Edge
					flips := 1 + rng.Intn(4)
					seen := map[[2]int]bool{}
					for k := 0; k < flips; k++ {
						u, v := rng.Intn(n), rng.Intn(n)
						if u == v || seen[pairKey(u, v)] {
							continue
						}
						seen[pairKey(u, v)] = true
						if g.HasEdge(u, v) {
							w := g.EdgeWeight(u, v)
							g.RemoveEdge(u, v)
							removed = append(removed, Edge{U: u, V: v, W: w})
						} else {
							var w float64
							switch flavor {
							case "generic":
								w = rng.Float64() * 10
							case "ties":
								w = float64(rng.Intn(3))
							case "mixed":
								w = []float64{0, math.Inf(1), 1, 1.5}[rng.Intn(4)]
							}
							g.AddEdge(u, v, w)
							added = append(added, Edge{U: u, V: v, W: w})
						}
					}
					for src := 0; src < n; src++ {
						marked := map[int]bool{}
						before := append([]float64(nil), rows[src]...)
						if !g.RepairRowBatch(sc, rows[src], src, removed, added, n+1, func(x int) { marked[x] = true }) {
							t.Fatalf("seed %d step %d: budget n+1 exceeded on an n-vertex graph", seed, step)
						}
						want := g.Dijkstra(src)
						rowsEqualBitwise(t, rows[src], want, flavor+"/batch")
						for x := range want {
							same := rows[src][x] == before[x] ||
								(math.IsInf(rows[src][x], 1) && math.IsInf(before[x], 1))
							if !same && !marked[x] {
								t.Fatalf("seed %d step %d src %d: entry %d changed (%v -> %v) without mark",
									seed, step, src, x, before[x], rows[src][x])
							}
						}
					}
				}
			}
		})
	}
}

// TestRepairRowBatchBudgetRefusalUntouched: a batch whose removal phase
// exceeds budget must leave the row exactly as it was, including when
// insertions are batched alongside.
func TestRepairRowBatchBudgetRefusalUntouched(t *testing.T) {
	n := 16
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	dist := g.Dijkstra(0)
	before := append([]float64(nil), dist...)
	g.RemoveEdge(0, 1)
	g.AddEdge(0, n-1, 1)
	removed := []Edge{{U: 0, V: 1, W: 1}}
	added := []Edge{{U: 0, V: n - 1, W: 1}}
	if g.RepairRowBatch(new(Scratch), dist, 0, removed, added, 3, nil) {
		t.Fatal("expected budget refusal")
	}
	rowsEqualBitwise(t, dist, before, "refused batch must not touch the row")
	if !g.RepairRowBatch(new(Scratch), dist, 0, removed, added, n, nil) {
		t.Fatal("budget n should suffice")
	}
	rowsEqualBitwise(t, dist, g.Dijkstra(0), "after batch retry with larger budget")
}

// repairWeights is RepairRowBatch's fuzz weight palette: zeros of both
// signs, ulp-level ties (1 ± 1 ulp, 0.1 + 0.2 against 0.3) and +Inf.
var repairWeights = [9]float64{
	0, math.Copysign(0, -1), 1, math.Nextafter(1, 2), math.Nextafter(1, 0),
	0.1, 0.2, 0.3, math.Inf(1),
}

// repairCaseFromBytes decodes a fuzz input into a graph on at most 24
// vertices, a source, a budget and a net diff in the form the game's
// delta log hands RepairRowBatch: removed edges are present with their
// recorded weights, added pairs are absent, and no pair is on both
// sides. An exhausted input reads as zeros.
func repairCaseFromBytes(data []byte) (g *Graph, src, budget int, removed, added []Edge) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%24
	g = New(n)
	for k := next(); k > 0; k-- {
		if u, v := next()%n, next()%n; u != v {
			g.AddEdge(u, v, repairWeights[next()%len(repairWeights)])
		}
	}
	src, budget = next()%n, next()
	edges := g.Edges()
	for k := next() % 4; k > 0 && len(edges) > 0; k-- {
		i := next() % len(edges)
		removed = append(removed, edges[i])
		edges = append(edges[:i], edges[i+1:]...)
	}
	for k := next() % 4; k > 0; k-- {
		u, v, w := next()%n, next()%n, repairWeights[next()%len(repairWeights)]
		if u == v || g.HasEdge(u, v) {
			continue
		}
		dup := false
		for _, e := range added {
			dup = dup || pairKey(e.U, e.V) == pairKey(u, v)
		}
		if !dup {
			added = append(added, Edge{U: u, V: v, W: w})
		}
	}
	return g, src, budget, removed, added
}

// checkRepair decodes a repair case from data, applies its diff to the
// graph and repairs the graph's old row through sc with settle's cap
// factor. An accepted repair must be bit for bit the heap loop's row of
// the graph after the diff, pass certifyRow, and have passed every entry
// whose bits changed to mark (the game's aggregate maintenance refolds
// only marked blocks); a refusal over budget must leave the row
// untouched. With within set, the decoded budget is replaced by n+1, so
// the repair cannot refuse.
func checkRepair(t *testing.T, sc *Scratch, data []byte, within bool, factor int, ctx string) {
	t.Helper()
	g, src, budget, removed, added := repairCaseFromBytes(data)
	if within {
		budget = g.n + 1
	}
	before := refRow(g, src, -1)
	for _, e := range removed {
		g.RemoveEdge(e.U, e.V)
	}
	for _, e := range added {
		g.AddEdge(e.U, e.V, e.W)
	}
	dist := append([]float64(nil), before...)
	marked := make([]bool, len(dist))
	if !g.repairRowBatch(sc, dist, src, removed, added, budget, func(x int) { marked[x] = true }, factor) {
		if within {
			t.Fatalf("%s: refused within budget n+1", ctx)
		}
		rowsIdentical(t, dist, before, ctx+": refused repair")
		return
	}
	rowsIdentical(t, dist, refRow(g, src, -1), ctx)
	certifyRow(t, g, src, -1, dist, ctx)
	for v := range dist {
		if math.Float64bits(dist[v]) != math.Float64bits(before[v]) && !marked[v] {
			t.Fatalf("%s: dist[%d] changed from %v to %v without a mark", ctx, v, before[v], dist[v])
		}
	}
}

// FuzzRepairRowBatch pins RepairRowBatch to the heap loop (see
// checkRepair) through a scratch an earlier repair left stamped: the
// scratch first repairs, within budget, a case on a graph of a different
// size decoded from the same bytes, then runs the checked repair. Each
// input runs at settle's production cap and at cap factor 0, where every
// settle that scans an edge finishes in the heap phase.
func FuzzRepairRowBatch(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 1 // the vertex count repairCaseFromBytes decodes from data
		if len(data) > 0 {
			n += int(data[0]) % 24
		}
		// A leading byte n decodes to 1 + n%24 vertices: n+1, or 1 when
		// n is 24.
		for _, factor := range []int{settleFactor, 0} {
			sc := new(Scratch)
			ctx := fmt.Sprintf("factor %d: ", factor)
			checkRepair(t, sc, append([]byte{byte(n)}, data...), true, factor, ctx+"unrelated repair")
			checkRepair(t, sc, data, false, factor, ctx+"RepairRowBatch")
		}
	})
}

// repairFixture is a warm-repair case with both sides of a diff: a
// 64-vertex unit path whose edge (10,11) was removed, cutting off 11..63,
// and (0,50) of weight 3 added, which reconnects them farther away than
// before. before is vertex 0's row of the path.
func repairFixture() (g *Graph, before []float64, removed, added []Edge) {
	const n = 64
	g = New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	before = g.Dijkstra(0)
	removed, added = []Edge{{U: 10, V: 11, W: 1}}, []Edge{{U: 0, V: 50, W: 3}}
	g.RemoveEdge(10, 11)
	g.AddEdge(0, 50, 3)
	return g, before, removed, added
}

// TestRepairRowBatchAllocatesNothing: once the caller's Scratch is warm,
// a repair with removals and additions, and a DijkstraInto row, allocate
// nothing. No pool is involved, so the counts hold under -race too.
func TestRepairRowBatchAllocatesNothing(t *testing.T) {
	g, before, removed, added := repairFixture()
	g.AddEdge(5, 40, 2) // a cycle, so DijkstraInto settles instead of walking
	added = append(added, Edge{U: 5, V: 40, W: 2})
	sc := new(Scratch)
	dist := make([]float64, len(before))
	marked := make([]bool, len(before))
	mark := func(x int) { marked[x] = true }
	repair := func() {
		copy(dist, before)
		if !g.RepairRowBatch(sc, dist, 0, removed, added, len(dist), mark) {
			t.Fatal("repair refused within budget n")
		}
	}
	repair()
	rowsIdentical(t, dist, refRow(g, 0, -1), "RepairRowBatch")
	if allocs := testing.AllocsPerRun(100, repair); allocs != 0 {
		t.Fatalf("a warm RepairRowBatch allocated %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { g.DijkstraInto(sc, dist, 7) }); allocs != 0 {
		t.Fatalf("a warm DijkstraInto allocated %v times per run, want 0", allocs)
	}
	rowsIdentical(t, dist, refRow(g, 7, -1), "DijkstraInto")
}

// TestRepairScratchEpochWrap: a repair that wraps the scratch's epochs
// to 0 clears the stamps first. They are preset to 1, the epoch after
// the wrap, so a skipped clear would read every vertex as already
// affected and leave the row unrepaired. The repair runs two settles
// after the wrap (the affected set, then the insertion), so scanEpoch
// ends on 2.
func TestRepairScratchEpochWrap(t *testing.T) {
	g, before, removed, added := repairFixture()
	sc := &Scratch{
		epoch: math.MaxUint32, aff: make([]uint32, g.n), skipEnd: make([]uint32, g.n),
		scanEpoch: math.MaxUint32, queued: make([]bool, g.n), scanned: make([]uint32, g.n),
	}
	for i := range sc.aff {
		sc.aff[i], sc.skipEnd[i], sc.scanned[i] = 1, 1, 1
	}
	dist := append([]float64(nil), before...)
	if !g.RepairRowBatch(sc, dist, 0, removed, added, g.n, nil) {
		t.Fatal("repair refused within budget n")
	}
	rowsIdentical(t, dist, refRow(g, 0, -1), "repair across the epoch wrap")
	if sc.epoch != 1 || sc.scanEpoch != 2 {
		t.Fatalf("epochs after the wrap = %d, %d, want 1, 2", sc.epoch, sc.scanEpoch)
	}
}

// TestRepairRowBatchConcurrent: goroutines repairing rows of distinct
// graphs of distinct sizes at once, each through its own Scratch while
// their Dijkstra calls share the pool, all equal a fresh Dijkstra. Run
// it under -race.
func TestRepairRowBatchConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(900 + k)))
			sc := new(Scratch)
			for round := 0; round < 40; round++ {
				n := 6 + 5*k + rng.Intn(5)
				g := randRepairGraph(rng, n, "ties")
				src := rng.Intn(n)
				dist := g.Dijkstra(src)
				var removed, added []Edge
				for _, e := range g.Edges() {
					if rng.Intn(4) == 0 {
						removed = append(removed, e)
						g.RemoveEdge(e.U, e.V)
					}
				}
				for u := 0; u < n; u++ {
					if v := rng.Intn(n); v != u && !g.HasEdge(u, v) && rng.Intn(3) == 0 {
						w := float64(rng.Intn(3))
						g.AddEdge(u, v, w)
						added = append(added, Edge{U: u, V: v, W: w})
					}
				}
				if !g.RepairRowBatch(sc, dist, src, removed, added, n+1, nil) {
					t.Errorf("goroutine %d round %d: budget n+1 exceeded on an n-vertex graph", k, round)
					return
				}
				if want := refRow(g, src, -1); !rowsEqual(dist, want) {
					t.Errorf("goroutine %d round %d: repaired row %v, heap loop %v", k, round, dist, want)
					return
				}
			}
		}(k)
	}
	wg.Wait()
}

// rowsEqual reports whether two rows are bit for bit equal.
func rowsEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}
