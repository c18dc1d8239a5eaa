package game

import (
	"math"
	"testing"

	"gncg/internal/graph"
	"gncg/internal/metric"
)

// fuzzTreeWeights is the edge-weight palette of FuzzCandidateScanTree:
// zeros (whole subtrees at distance 0), sums that tie only up to an ulp
// (0.1+0.2 against 0.3) and a near-tie one 2^-40 apart — the inputs
// that press hardest on the cutoff radius and the scan's tie-breaks.
var fuzzTreeWeights = []float64{0, 0, 0.1, 0.2, 0.3, 0.5, 1, 1 + 0x1p-40, 3, 7.25}

// FuzzCandidateScanTree fuzzes the candidate tier on tree hosts, whose
// cutoff carries the excess ceiling: BestSingleMove must return the
// bit-identical (move, cost, ok) triple as the unpruned exact oracle.
//
// The data bytes decode, in order, into a header (n in [2, 24] and a
// base profile: empty, the defining tree, a star, or both), one
// (parent, weight) byte pair per non-root vertex, and one bit per
// ordered agent pair that toggles that purchase; missing bytes read as
// zero, so every input is valid. alpha is folded into [0, 16n+1).
//
//	go test -run '^$' -fuzz FuzzCandidateScanTree -fuzztime 30s ./internal/game/
func FuzzCandidateScanTree(f *testing.F) {
	f.Add([]byte{0x11, 0, 6, 1, 6, 0, 0, 2, 8}, 3.0, false, uint16(0))
	f.Add([]byte{0x2a, 0, 2, 1, 3, 2, 4, 0, 0, 3, 1, 1, 7, 0xff, 0x10}, 64.0, true, uint16(4))
	f.Add([]byte{0x57, 0, 0, 0, 0, 1, 0, 2, 1, 0, 5, 3, 9}, 1e9, false, uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, alpha float64, withTraffic bool, agent uint16) {
		read := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		hdr := read()
		n := 2 + int(hdr>>2)%23
		edges := make([]graph.Edge, 0, n-1)
		for v := 1; v < n; v++ {
			p := int(read()) % v
			edges = append(edges, graph.Edge{U: p, V: v, W: fuzzTreeWeights[int(read())%len(fuzzTreeWeights)]})
		}
		tm, err := metric.NewTreeMetric(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		prof := EmptyProfile(n)
		if hdr&1 != 0 {
			for _, e := range edges {
				prof.Buy(e.V, e.U)
			}
		}
		if hdr&2 != 0 {
			for v := 1; v < n; v++ {
				prof.Buy(0, v)
			}
		}
		var bits byte
		for i, u := 0, 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if v == u {
					continue
				}
				if i%8 == 0 {
					bits = read()
				}
				if bits&(1<<(i%8)) != 0 {
					if prof.Buys(u, v) {
						prof.Unbuy(u, v)
					} else {
						prof.Buy(u, v)
					}
				}
				i++
			}
		}

		alpha = math.Abs(alpha)
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			alpha = float64(16 * n)
		}
		alpha = math.Mod(alpha, float64(16*n)+1)
		g := New(NewHost(tm), alpha)
		if withTraffic {
			tr := make([][]float64, n)
			for u := range tr {
				tr[u] = make([]float64, n)
				for v := range tr[u] {
					if v != u {
						tr[u][v] = float64((5*u+3*v)%4) / 2
					}
				}
			}
			if err := g.SetTraffic(tr); err != nil {
				t.Fatal(err)
			}
		}
		u := int(agent) % n
		m, c, ok := NewState(g, prof.Clone()).BestSingleMove(u)
		em, ec, eok := NewState(g, prof).BestSingleMoveExact(u)
		if m != em || c != ec || ok != eok {
			t.Fatalf("n=%d alpha=%v traffic=%v agent %d: scan (%v, %v, %v) != exact (%v, %v, %v)",
				n, alpha, withTraffic, u, m, c, ok, em, ec, eok)
		}
	})
}
