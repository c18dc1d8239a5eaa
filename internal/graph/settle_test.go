package graph

import (
	"fmt"
	"math"
	"testing"
)

// rowCertificate checks that dist is the exact row from src with avoid
// removed (avoid < 0 removes none) without running any shortest-path
// loop: dist[src] is +0 and dist[avoid] is +Inf; no edge (x, y) of
// finite weight off avoid has dist[x] + w < dist[y], with the float sum
// the engine forms; and the tight edges (dist[x] + w == dist[y], bit for
// bit) reach every vertex of finite dist from src. The tight paths make
// each finite dist[v] some path's left-to-right sum, and the edge
// inequalities, with the sum monotone in its left operand, keep it at or
// below every path's sum, so dist is the minimum.
func rowCertificate(g *Graph, src, avoid int, dist []float64) error {
	if math.Float64bits(dist[src]) != 0 {
		return fmt.Errorf("dist[src %d] = %v, want +0", src, dist[src])
	}
	if avoid >= 0 && !math.IsInf(dist[avoid], 1) {
		return fmt.Errorf("dist[avoid %d] = %v, want +Inf", avoid, dist[avoid])
	}
	for x, adj := range g.adj {
		if x == avoid || math.IsInf(dist[x], 1) {
			continue
		}
		if !(dist[x] >= 0) {
			return fmt.Errorf("dist[%d] = %v", x, dist[x])
		}
		for _, e := range adj {
			if e.to != avoid && !math.IsInf(e.w, 1) && dist[x]+e.w < dist[e.to] {
				return fmt.Errorf("edge (%d,%d) of weight %v relaxes dist[%d] = %v to %v",
					x, e.to, e.w, e.to, dist[e.to], dist[x]+e.w)
			}
		}
	}
	tight := make([]bool, g.n)
	tight[src] = true
	stack := []int{src}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[x] {
			if e.to == avoid || tight[e.to] || math.IsInf(e.w, 1) {
				continue
			}
			if math.Float64bits(dist[x]+e.w) == math.Float64bits(dist[e.to]) {
				tight[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	for v, d := range dist {
		if !tight[v] && !math.IsInf(d, 1) {
			return fmt.Errorf("dist[%d] = %v is finite but no tight path reaches it", v, d)
		}
	}
	return nil
}

func certifyRow(t *testing.T, g *Graph, src, avoid int, dist []float64, ctx string) {
	t.Helper()
	if err := rowCertificate(g, src, avoid, dist); err != nil {
		t.Fatalf("%s: row from %d (avoid %d) fails its certificate: %v", ctx, src, avoid, err)
	}
}

// settledRow is the row from src with avoid removed settled from src
// alone, without the forest walk in front, at cap factor factor, with
// settle's scan count and whether it took the heap phase.
func settledRow(g *Graph, sc *Scratch, src, avoid, factor int) (dist []float64, scans int, heaped bool) {
	dist = make([]float64, g.n)
	resetRow(dist, src)
	sc.beginSettle(g.n)
	sc.open(src)
	scans, heaped = g.settle(sc, dist, avoid, false, nil, factor)
	return dist, scans, heaped
}

// TestRowCertificateRejects: the certificate accepts the heap loop's
// row and rejects each way a row can be wrong: an entry one ulp too
// high (an edge still relaxes it) or too low (no tight path reaches
// it), a reachable entry left at +Inf, an unreachable entry made
// finite, and a nonzero source.
func TestRowCertificateRejects(t *testing.T) {
	g := FromEdges(6, []Edge{{0, 1, 0.1}, {1, 2, 0.2}, {0, 2, 0.3}, {2, 3, 1}, {3, 4, 0}})
	want := refRow(g, 0, -1)
	certifyRow(t, g, 0, -1, want, "heap loop")
	for _, tc := range []struct {
		name string
		v    int
		d    float64
	}{
		{"one ulp high", 3, math.Nextafter(want[3], math.Inf(1))},
		{"one ulp low", 3, math.Nextafter(want[3], 0)},
		{"reachable at +Inf", 4, math.Inf(1)},
		{"unreachable finite", 5, 7},
		{"source nonzero", 0, 1e-300},
	} {
		dist := append([]float64(nil), want...)
		dist[tc.v] = tc.d
		if rowCertificate(g, 0, -1, dist) == nil {
			t.Errorf("%s: certificate accepted dist[%d] = %v", tc.name, tc.v, tc.d)
		}
	}
}

// chordPath is an adversarial instance for settle's FIFO work list: a
// unit path 1-2-…-n and chords (0, i) of weight 2i, listed from n down
// to 1. The shortest path to i runs along the path from 1 (length i+1),
// but every chord offers a worse label first, and the work list, opened
// in chord order, improves each vertex i once per pass for i-1 passes:
// about n²/2 scans where the heap loop scans each vertex once.
func chordPath(n int) *Graph {
	g := New(n + 1)
	for i := 1; i < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	for i := n; i >= 1; i-- {
		g.AddEdge(0, i, float64(2*i))
	}
	return g
}

// heapScans is the number of adjacency entries the heap loop examines
// for the row want: each reached vertex is scanned once.
func heapScans(g *Graph, want []float64) int {
	h := 0
	for v, d := range want {
		if !math.IsInf(d, 1) {
			h += len(g.adj[v])
		}
	}
	return h
}

// TestSettleCapBoundsAdversarialOrder: on chordPath, a settle without a
// cap examines more than 100·n adjacency entries, while at the
// production cap it falls back to the heap and stays within
// settleFactor·(H + settleSlack) + H entries, H being the heap loop's
// count. Both rows equal the heap loop's and pass the certificate, and
// so does the insertion wavefront on the same instance (the chords
// inserted in one batch into the path).
func TestSettleCapBoundsAdversarialOrder(t *testing.T) {
	const n = 400
	g := chordPath(n)
	want := refRow(g, 0, -1)
	h := heapScans(g, want)
	sc := new(Scratch)
	for _, factor := range []int{1 << 20, settleFactor} {
		dist, scans, heaped := settledRow(g, sc, 0, -1, factor)
		ctx := fmt.Sprintf("cap factor %d", factor)
		t.Logf("%s: %d scans (heap phase %v); heap loop: %d", ctx, scans, heaped, h)
		certifyRow(t, g, 0, -1, dist, ctx)
		rowsIdentical(t, dist, want, ctx)
		if factor != settleFactor {
			if heaped || scans <= 100*n {
				t.Fatalf("%s: %d scans (heap phase %v), want more than %d without the heap", ctx, scans, heaped, 100*n)
			}
			continue
		}
		if bound := settleFactor*(h+settleSlack) + h; !heaped || scans > bound {
			t.Fatalf("%s: %d scans (heap phase %v), want the heap phase within %d (heap loop: %d)", ctx, scans, heaped, bound, h)
		}
	}

	var chords []Edge
	for _, e := range g.Edges() {
		if e.U == 0 {
			chords = append(chords, e)
			g.RemoveEdge(e.U, e.V)
		}
	}
	dist := refRow(g, 0, -1)
	for _, e := range chords {
		g.AddEdge(e.U, e.V, e.W)
	}
	if !g.RepairRowBatch(sc, dist, 0, nil, chords, g.n, nil) {
		t.Fatal("an insertion-only repair refused")
	}
	certifyRow(t, g, 0, -1, dist, "insertion wavefront")
	rowsIdentical(t, dist, want, "insertion wavefront")
}

// BenchmarkSettleChordPath times one row of chordPath (n = 2000)
// uncapped, at the production cap, and at cap factor 0 (the heap loop
// from the first scan).
func BenchmarkSettleChordPath(b *testing.B) {
	const n = 2000
	g := chordPath(n)
	for _, cap := range []struct {
		name   string
		factor int
	}{{"uncapped", 1 << 20}, {"capped", settleFactor}, {"heap", 0}} {
		b.Run(cap.name, func(b *testing.B) {
			sc := new(Scratch)
			for i := 0; i < b.N; i++ {
				settledRow(g, sc, 0, -1, cap.factor)
			}
		})
	}
}
