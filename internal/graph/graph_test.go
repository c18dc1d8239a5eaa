package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v, rng.Float64()*10)
			}
		}
	}
	return g
}

func TestAddRemoveEdge(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2.5)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if got := g.EdgeWeight(1, 0); got != 2.5 {
		t.Fatalf("EdgeWeight = %v", got)
	}
	// Re-adding keeps lighter weight.
	g.AddEdge(0, 1, 5)
	if got := g.EdgeWeight(0, 1); got != 2.5 {
		t.Fatalf("heavier re-add changed weight to %v", got)
	}
	g.AddEdge(1, 0, 1)
	if got := g.EdgeWeight(0, 1); got != 1 {
		t.Fatalf("lighter re-add did not update: %v", got)
	}
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge returned false for present edge")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge returned true for absent edge")
	}
	if !math.IsInf(g.EdgeWeight(0, 1), 1) {
		t.Fatal("absent edge weight not +Inf")
	}
	if g.M() != 0 {
		t.Fatalf("M = %d after removal", g.M())
	}
}

// TestEdgeOpsMatchMapOracle drives random adds (duplicates, lighter and
// heavier re-adds) and removes on graphs with a few hubs, so lookups
// scan lists of very different lengths from either endpoint, and checks
// HasEdge, EdgeWeight, M and both adjacency lists against a map of the
// edges after every step. Out-of-range pairs are absent without a panic.
func TestEdgeOpsMatchMapOracle(t *testing.T) {
	type pair struct{ u, v int }
	key := func(u, v int) pair { return pair{min(u, v), max(u, v)} }
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(30)
		hubs := 1 + rng.Intn(3)
		g := New(n)
		oracle := map[pair]float64{}
		pick := func() int {
			if rng.Intn(3) > 0 {
				return rng.Intn(hubs)
			}
			return rng.Intn(n)
		}
		for step := 0; step < 600; step++ {
			u, v := pick(), pick()
			if u == v {
				continue
			}
			k := key(u, v)
			if rng.Intn(4) == 0 {
				_, had := oracle[k]
				if got := g.RemoveEdge(u, v); got != had {
					t.Fatalf("seed %d step %d: RemoveEdge(%d,%d) = %v, want %v", seed, step, u, v, got, had)
				}
				delete(oracle, k)
			} else {
				w := float64(rng.Intn(8))
				g.AddEdge(u, v, w)
				if old, ok := oracle[k]; !ok || w < old {
					oracle[k] = w
				}
			}
			if g.M() != len(oracle) {
				t.Fatalf("seed %d step %d: M = %d, want %d", seed, step, g.M(), len(oracle))
			}
			for a := -1; a <= n; a++ {
				for b := -1; b <= n; b++ {
					want, ok := oracle[key(a, b)]
					if !ok {
						want = math.Inf(1)
					}
					if g.HasEdge(a, b) != ok || g.EdgeWeight(a, b) != want {
						t.Fatalf("seed %d step %d: (%d,%d) HasEdge %v EdgeWeight %v, want %v %v",
							seed, step, a, b, g.HasEdge(a, b), g.EdgeWeight(a, b), ok, want)
					}
				}
			}
		}
		halves := 0
		for u := 0; u < n; u++ {
			g.Neighbors(u, func(v int, w float64) {
				halves++
				if ow, ok := oracle[key(u, v)]; !ok || ow != w {
					t.Fatalf("seed %d: adjacency of %d holds (%d, %v), oracle %v %v", seed, u, v, w, ow, ok)
				}
			})
		}
		if halves != 2*len(oracle) {
			t.Fatalf("seed %d: %d adjacency entries for %d edges", seed, halves, len(oracle))
		}
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("self-loop did not panic")
		}
	}()
	New(3).AddEdge(1, 1, 1)
}

func TestNegativeWeightPanics(t *testing.T) {
	for _, w := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("weight %v did not panic", w)
				}
			}()
			New(3).AddEdge(0, 1, w)
		}()
	}
}

func TestDijkstraPath(t *testing.T) {
	// 0 -1- 1 -1- 2, plus direct 0-2 with weight 5: path wins.
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 5)
	d := g.Dijkstra(0)
	if d[2] != 2 {
		t.Fatalf("d(0,2) = %v, want 2", d[2])
	}
	if d[0] != 0 {
		t.Fatalf("d(0,0) = %v", d[0])
	}
}

func TestDijkstraDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	d := g.Dijkstra(0)
	if !math.IsInf(d[2], 1) || !math.IsInf(d[3], 1) {
		t.Fatal("unreachable vertices must be +Inf")
	}
}

func TestDijkstraSkipsInfEdges(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, math.Inf(1))
	g.AddEdge(1, 2, 1)
	d := g.Dijkstra(0)
	if !math.IsInf(d[1], 1) || !math.IsInf(d[2], 1) {
		t.Fatal("+Inf edges must not provide connectivity")
	}
}

func TestDijkstraZeroWeights(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	d := g.Dijkstra(0)
	if d[2] != 0 {
		t.Fatalf("zero-weight path distance = %v", d[2])
	}
}

// TestDijkstraMatchesFloydWarshall is the core shortest-path property
// test: two independent implementations must agree on random graphs.
func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, 0.3)
		want := g.FloydWarshall()
		got := g.APSP()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a, b := got[i][j], want[i][j]
				if math.IsInf(a, 1) != math.IsInf(b, 1) {
					return false
				}
				if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAPSPSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 25, 0.4)
	d := g.APSP()
	for i := range d {
		for j := range d {
			if math.Abs(d[i][j]-d[j][i]) > 1e-9 {
				t.Fatalf("APSP asymmetric at (%d,%d): %v vs %v", i, j, d[i][j], d[j][i])
			}
		}
	}
}

func TestDijkstraAvoiding(t *testing.T) {
	// Path 0-1-2; avoiding 1 disconnects 0 from 2.
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	d := g.DijkstraAvoiding(0, 1)
	if !math.IsInf(d[2], 1) {
		t.Fatalf("avoiding middle vertex: d(0,2) = %v, want +Inf", d[2])
	}
	if !math.IsInf(d[1], 1) {
		t.Fatal("avoided vertex distance must be +Inf")
	}
}

// TestAPSPAvoidingMatchesDeletion cross-checks vertex-avoiding APSP against
// explicitly deleting the vertex's incident edges.
func TestAPSPAvoidingMatchesDeletion(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(15)
		g := randomGraph(rng, n, 0.4)
		avoid := rng.Intn(n)
		deleted := g.Clone()
		for v := 0; v < n; v++ {
			deleted.RemoveEdge(avoid, v)
		}
		want := deleted.APSP()
		got := g.APSPAvoiding(avoid)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == avoid || j == avoid {
					continue
				}
				a, b := got[i][j], want[i][j]
				if math.IsInf(a, 1) != math.IsInf(b, 1) || (!math.IsInf(a, 1) && math.Abs(a-b) > 1e-9) {
					t.Fatalf("trial %d avoid %d: (%d,%d) got %v want %v", trial, avoid, i, j, a, b)
				}
			}
		}
	}
}

func TestConnectivityAndTree(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	g.AddEdge(2, 3, 1)
	if !g.Connected() || !g.IsTree() || g.HasCycle() {
		t.Error("path graph must be a connected acyclic tree")
	}
	g.AddEdge(0, 3, 1)
	if g.IsTree() || !g.HasCycle() {
		t.Error("cycle graph misclassified")
	}
}

func TestDiameterAndEccentricity(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	if got := g.Diameter(); got != 6 {
		t.Fatalf("Diameter = %v, want 6", got)
	}
	if got := g.Eccentricity(1); got != 5 {
		t.Fatalf("Eccentricity(1) = %v, want 5", got)
	}
	disc := New(3)
	disc.AddEdge(0, 1, 1)
	if !math.IsInf(disc.Diameter(), 1) {
		t.Error("disconnected diameter must be +Inf")
	}
}

func TestSumDistances(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	// ordered pairs: (0,1)=1 (1,0)=1 (1,2)=1 (2,1)=1 (0,2)=2 (2,0)=2 => 8
	if got, unreached := SumDistances(0, g.APSP(), nil); got != 8 || unreached != 0 {
		t.Fatalf("SumDistances = %v (%d unreached), want 8", got, unreached)
	}
	// Demand weighs each ordered pair; a zero-demand pair adds nothing,
	// even unreached. Vertex 3 is isolated: only 0 → 3 carries demand.
	d := New(4)
	d.AddEdge(0, 1, 1)
	d.AddEdge(1, 2, 1)
	t3 := [][]float64{{0, 2, 0.5, 1}, {0, 0, 0, 0}, {3, 0, 0, 0}, {0, 0, 0, 0}}
	if got, unreached := SumDistances(1, d.APSP(), t3); got != 1+2+1+6 || unreached != 1 {
		t.Fatalf("weighted SumDistances = %v (%d unreached), want 10 (1 unreached)", got, unreached)
	}
}

func TestMSTPath(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	g.AddEdge(0, 3, 10)
	edges, w := g.MST()
	if len(edges) != 3 || w != 6 {
		t.Fatalf("MST = %v weight %v, want 3 edges weight 6", edges, w)
	}
}

// TestMSTLowerBoundsConnectedSubgraphs: the MST weight is a lower bound on
// the total weight of any connected spanning subgraph — the property the
// social-optimum lower bound relies on.
func TestMSTLowerBoundsConnectedSubgraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		// Complete random-weight graph so connectivity is easy.
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				g.AddEdge(u, v, 0.1+rng.Float64()*5)
			}
		}
		_, mstW := g.MST()
		// Random connected spanning subgraph: MST plus random extras.
		sub := New(n)
		mstEdges, _ := g.MST()
		for _, e := range mstEdges {
			sub.AddEdge(e.U, e.V, e.W)
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					sub.AddEdge(u, v, g.EdgeWeight(u, v))
				}
			}
		}
		return sub.TotalWeight() >= mstW-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMSTForest(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 2)
	edges, w := g.MST()
	if len(edges) != 2 || w != 3 {
		t.Fatalf("forest MST = %v weight %v", edges, w)
	}
}

func TestCloneDeep(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	c := g.Clone()
	c.AddEdge(1, 2, 1)
	if g.HasEdge(1, 2) {
		t.Error("Clone shares adjacency")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 12, 0.5)
	h := FromEdges(12, g.Edges())
	for u := 0; u < 12; u++ {
		for v := 0; v < 12; v++ {
			if g.HasEdge(u, v) != h.HasEdge(u, v) {
				t.Fatalf("edge set mismatch at (%d,%d)", u, v)
			}
		}
	}
}
