package metric

import (
	"math"
	"math/rand"
	"testing"

	"gncg/internal/graph"
)

// bruteSpaceWithin is the CandidateSource contract's reference: every
// index v with Dist(u,v) <= r, ascending.
func bruteSpaceWithin(s Space, u int, r float64) []int {
	var out []int
	for v := 0; v < s.Size(); v++ {
		if s.Dist(u, v) <= r {
			out = append(out, v)
		}
	}
	return out
}

func sameInts(t *testing.T, got, want []int, format string, args ...any) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf(format+": got %v, want %v", append(args, got, want)...)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf(format+": got %v, want %v", append(args, got, want)...)
		}
	}
}

// TestPointsAppendWithinMatchesBruteForce pins the Points kd-tree
// CandidateSource against a brute-force Dist scan, for each supported
// norm, with duplicate points and radii landing exactly on distances.
func TestPointsAppendWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, p := range []float64{1, 2, math.Inf(1)} {
		for _, n := range []int{1, 9, 80} {
			coords := make([][]float64, n)
			for i := range coords {
				if i > 2 && rng.Intn(5) == 0 {
					coords[i] = append([]float64(nil), coords[rng.Intn(i)]...)
					continue
				}
				coords[i] = []float64{rng.Float64() * 40, rng.Float64() * 40}
			}
			ps, err := NewPoints(coords, p)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 25; trial++ {
				u := rng.Intn(n)
				var r float64
				switch trial % 3 {
				case 0:
					r = ps.Dist(u, rng.Intn(n))
				case 1:
					r = 0
				case 2:
					r = rng.Float64() * 30
				}
				got := ps.AppendWithin(u, r, nil)
				sameInts(t, got, bruteSpaceWithin(ps, u, r), "p=%v n=%d u=%d r=%v", p, n, u, r)
			}
		}
	}
}

// TestTreeAppendWithinMatchesBruteForce pins the TreeMetric truncated
// traversal against a brute-force Dist scan, on trees with zero-weight
// edges (whole subtrees tied at equal distance) and radii landing
// exactly on LCA-label distances.
func TestTreeAppendWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 2, 12, 75, 160} {
		edges := make([]graph.Edge, 0, n-1)
		for v := 1; v < n; v++ {
			w := rng.Float64() * 4
			if rng.Intn(4) == 0 {
				w = 0
			}
			edges = append(edges, graph.Edge{U: rng.Intn(v), V: v, W: w})
		}
		tm, err := NewTreeMetric(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 25; trial++ {
			u := rng.Intn(n)
			var r float64
			switch trial % 3 {
			case 0:
				r = tm.Dist(u, rng.Intn(n)) // exactly on a label distance
			case 1:
				r = 0
			case 2:
				r = rng.Float64() * 12
			}
			got := tm.AppendWithin(u, r, nil)
			sameInts(t, got, bruteSpaceWithin(tm, u, r), "n=%d u=%d r=%v", n, u, r)
		}
	}
}

// TestTreeLCADistMatchesNaive pins the sparse-table LCA against a naive
// ancestor-marking LCA evaluating the same closed form
// dist[u] + dist[v] - 2*dist[lca] over every vertex pair — bit-equality,
// not approximation. The shapes cover the degenerate sizes, a path deep
// enough to reach the table's top level, a star, a caterpillar, and
// zero-weight edges.
func TestTreeLCADistMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	randomTree := func(n int, weight func() float64) []graph.Edge {
		edges := make([]graph.Edge, 0, n-1)
		for v := 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: rng.Intn(v), V: v, W: weight()})
		}
		return edges
	}
	uniform := func() float64 { return rng.Float64() * 3 }
	zeroHeavy := func() float64 { return []float64{0, 0, 1, 0.5, rng.Float64()}[rng.Intn(5)] }
	path := make([]graph.Edge, 0, 999)
	for v := 1; v < 1000; v++ {
		path = append(path, graph.Edge{U: v - 1, V: v, W: zeroHeavy()})
	}
	star := make([]graph.Edge, 0, 49)
	for v := 0; v < 50; v++ {
		if v != 7 {
			star = append(star, graph.Edge{U: 7, V: v, W: uniform()})
		}
	}
	var caterpillar []graph.Edge
	for s := 1; s < 20; s++ {
		caterpillar = append(caterpillar, graph.Edge{U: s - 1, V: s, W: uniform()})
	}
	for leg := 20; leg < 80; leg++ {
		caterpillar = append(caterpillar, graph.Edge{U: leg % 20, V: leg, W: zeroHeavy()})
	}
	for _, tc := range []struct {
		name  string
		n     int
		edges []graph.Edge
	}{
		{"single", 1, nil},
		{"pair", 2, []graph.Edge{{U: 0, V: 1, W: 1.5}}},
		{"random17", 17, randomTree(17, uniform)},
		{"random90", 90, randomTree(90, uniform)},
		{"zeros90", 90, randomTree(90, zeroHeavy)},
		{"path1000", 1000, path},
		{"star50", 50, star},
		{"caterpillar80", 80, caterpillar},
	} {
		n := tc.n
		tm, err := NewTreeMetric(n, tc.edges)
		if err != nil {
			t.Fatal(err)
		}
		// Rebuild parents and root distances naively from the edge list;
		// topo lists every vertex after its parent.
		adj := make([][]graph.Edge, n)
		for _, e := range tc.edges {
			adj[e.U] = append(adj[e.U], e)
			adj[e.V] = append(adj[e.V], graph.Edge{U: e.V, V: e.U, W: e.W})
		}
		parent := make([]int, n)
		rootDist := make([]float64, n)
		parent[0] = -1
		seen := make([]bool, n)
		seen[0] = true
		topo := []int{0}
		for i := 0; i < len(topo); i++ {
			v := topo[i]
			for _, e := range adj[v] {
				if !seen[e.V] {
					seen[e.V] = true
					parent[e.V] = v
					rootDist[e.V] = rootDist[v] + e.W
					topo = append(topo, e.V)
				}
			}
		}
		// For each u: mark u's ancestors, then lca[v] is v itself when
		// marked, else its parent's lca.
		marked := make([]bool, n)
		lca := make([]int, n)
		for u := 0; u < n; u++ {
			clear(marked)
			for a := u; a >= 0; a = parent[a] {
				marked[a] = true
			}
			for _, v := range topo {
				if marked[v] {
					lca[v] = v
				} else {
					lca[v] = lca[parent[v]]
				}
			}
			for v := 0; v < n; v++ {
				var want float64
				if u != v {
					want = rootDist[u] + rootDist[v] - 2*rootDist[lca[v]]
				}
				if got := tm.Dist(u, v); got != want {
					t.Fatalf("%s: Dist(%d,%d) = %v, naive %v", tc.name, u, v, got, want)
				}
			}
		}
	}
}
