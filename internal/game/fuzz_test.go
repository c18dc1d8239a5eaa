package game

import (
	"math"
	"testing"

	"gncg/internal/bitset"
	"gncg/internal/graph"
	"gncg/internal/metric"
)

// fuzzPalette holds the tree edge weights and point coordinates of the
// fuzz targets: zeros (whole subtrees at distance 0, duplicate points),
// sums that tie only up to an ulp (0.1+0.2 against 0.3) and a near-tie
// one 2^-40 apart — the inputs that press hardest on the cutoff radius,
// the certificate's bounds and the scan's tie-breaks.
var fuzzPalette = []float64{0, 0, 0.1, 0.2, 0.3, 0.5, 1, 1 + 0x1p-40, 3, 7.25}

// fuzzBytes hands out a fuzz input one byte at a time; missing bytes
// read as zero, so every input decodes.
type fuzzBytes []byte

func (d *fuzzBytes) next() byte {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return b
}

// fuzzTree decodes an n-vertex tree host from one (parent, weight) byte
// pair per non-root vertex.
func fuzzTree(t *testing.T, d *fuzzBytes, n int) (*metric.TreeMetric, []graph.Edge) {
	edges := make([]graph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		p := int(d.next()) % v
		edges = append(edges, graph.Edge{U: p, V: v, W: fuzzPalette[int(d.next())%len(fuzzPalette)]})
	}
	tm, err := metric.NewTreeMetric(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return tm, edges
}

// fuzzToggles decodes one bit per ordered agent pair of prof that
// toggles that purchase.
func fuzzToggles(d *fuzzBytes, prof Profile, n int) {
	var bits byte
	for i, u := 0, 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if v == u {
				continue
			}
			if i%8 == 0 {
				bits = d.next()
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
}

// fuzzGame builds the game of a fuzz input: alpha folded into
// [0, 16n+1), and with traffic, a fixed demand matrix in {0, 0.5, 1, 1.5}
// whose zeros leave some pairs without demand.
func fuzzGame(t *testing.T, space metric.Space, alpha float64, withTraffic bool) *Game {
	n := space.Size()
	alpha = math.Abs(alpha)
	if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		alpha = float64(16 * n)
	}
	alpha = math.Mod(alpha, float64(16*n)+1)
	g := New(NewHost(space), alpha)
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
	return g
}

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
		d := fuzzBytes(data)
		hdr := d.next()
		n := 2 + int(hdr>>2)%23
		tm, edges := fuzzTree(t, &d, n)
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
		fuzzToggles(&d, prof, n)
		g := fuzzGame(t, tm, alpha, withTraffic)
		u := int(agent) % n
		m, c, ok := NewState(g, prof.Clone()).BestSingleMove(u)
		em, ec, eok := NewState(g, prof).BestSingleMoveExact(u)
		if m != em || c != ec || ok != eok {
			t.Fatalf("n=%d alpha=%v traffic=%v agent %d: scan (%v, %v, %v) != exact (%v, %v, %v)",
				n, g.Alpha, withTraffic, u, m, c, ok, em, ec, eok)
		}
	})
}

// capRules is a test-local cost model priced like package rules'
// budget model, which this package cannot import: edges are free, but
// no single edge may weigh more than α, and AcquirePrice is +Inf above
// that cap. A start profile that owns an over-cap edge keeps a finite
// cost and gets a +Inf swap refund.
type capRules struct{}

func (capRules) Name() string                                { return "cap" }
func (capRules) StrategyCost(*Game, int, bitset.Set) float64 { return 0 }
func (capRules) DistTerm(t, d float64) float64               { return t * d }
func (capRules) GainBoundsSound() bool                       { return true }
func (capRules) ExactNashViaUMFL() bool                      { return false }
func (capRules) SpanningEdgeCostLB(float64, float64, int) float64 {
	return 0
}

func (capRules) AcquirePrice(alpha, w float64) float64 {
	if w > alpha {
		return math.Inf(1)
	}
	return 0
}

func (capRules) MoveFeasible(g *Game, _ bitset.Set, m Move) bool {
	switch m.Kind {
	case Buy:
		return g.Host.Weight(m.Agent, m.V) <= g.Alpha
	case Swap:
		return g.Host.Weight(m.Agent, m.X) <= g.Alpha
	}
	return true
}

func (capRules) Feasible(g *Game, u int, strat bitset.Set) bool {
	ok := true
	strat.ForEach(func(v int) { ok = ok && g.Host.Weight(u, v) <= g.Alpha })
	return ok
}

// FuzzVerifyCertificate fuzzes the verifier's gain certificate, which
// stops at the first candidate that keeps it from ruling out buys and
// swaps. For every agent, the stopped certificate's verdict must equal
// the full AcquireGainCertificate's (and, when it rules acquisitions
// out, its every bit); a certificate that rules them out must be sound
// (no feasible buy or swap improves under CostAfter); and
// VerifyGreedyEquilibrium must report the Stable, FirstImproving,
// CertSkipped and Scanned of a serial oracle that takes the full
// certificate and the exhaustive scan, pruned or exact.
//
// The data bytes decode, in order, into a header (n in [2, 24]; the
// host: a tree, or points in the plane under l1, l2 or l∞; and the base
// profile: empty or a star), the star's centre, the host (one
// (parent, weight) byte pair per non-root vertex, or two coordinate
// bytes per point, so points repeat), and one bit per ordered agent pair
// that toggles that purchase. alpha is folded into [0, 16n+1); capped
// switches to capRules, whose +Inf refunds stop the certificate before
// its loop. The seed corpus is testdata/fuzz/FuzzVerifyCertificate.
//
//	go test -run '^$' -fuzz FuzzVerifyCertificate -fuzztime 30s ./internal/game/
func FuzzVerifyCertificate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, alpha float64, withTraffic, capped bool) {
		d := fuzzBytes(data)
		hdr := d.next()
		n := 2 + int(hdr>>3)%23
		center := int(d.next()) % n
		var space metric.Space
		if kind := hdr & 3; kind == 0 {
			space, _ = fuzzTree(t, &d, n)
		} else {
			coords := make([][]float64, n)
			for i := range coords {
				coords[i] = []float64{fuzzPalette[int(d.next())%len(fuzzPalette)], fuzzPalette[int(d.next())%len(fuzzPalette)]}
			}
			pts, err := metric.NewPoints(coords, []float64{1, 2, math.Inf(1)}[kind-1])
			if err != nil {
				t.Fatal(err)
			}
			space = pts
		}
		prof := EmptyProfile(n)
		if hdr&4 != 0 {
			prof = StarProfile(n, center)
		}
		fuzzToggles(&d, prof, n)
		g := fuzzGame(t, space, alpha, withTraffic)
		if capped {
			g.SetRules(capRules{})
		}
		s := NewState(g, prof)

		bits := func(c GainCertificate) [3]uint64 {
			return [3]uint64{math.Float64bits(c.AcquireBound), math.Float64bits(c.MaxRefund), math.Float64bits(c.Slack)}
		}
		want := VerifyResult{Stable: true, FirstImproving: -1}
		for u := 0; u < n; u++ {
			full, fok := s.AcquireGainCertificate(u)
			early, eok := s.gainCertificate(u, g.Eps)
			ruledOut := fok && full.RulesOutAcquisitions(g.Eps)
			if eok != fok || (eok && early.RulesOutAcquisitions(g.Eps) != ruledOut) {
				t.Fatalf("n=%d alpha=%v agent %d: stopped certificate (%+v, %v) and full (%+v, %v) disagree at eps %v",
					n, g.Alpha, u, early, eok, full, fok, g.Eps)
			}
			if ruledOut {
				if bits(early) != bits(full) || early.Agent != full.Agent {
					t.Fatalf("n=%d alpha=%v agent %d: ruling-out certificate %+v != full %+v", n, g.Alpha, u, early, full)
				}
				cur := s.Cost(u)
				for _, m := range s.CandidateMoves(u) {
					if after := s.CostAfter(m); m.Kind != Delete && g.Improves(after, cur) {
						t.Fatalf("n=%d alpha=%v: certificate %+v ruled out acquisitions, but %v improves %v -> %v",
							n, g.Alpha, full, m, cur, after)
					}
				}
				want.CertSkipped++
			} else {
				want.Scanned++
			}
			if _, _, ok := s.BestSingleMoveExact(u); ok && want.Stable {
				want.Stable, want.FirstImproving = false, u
			}
		}
		for _, exact := range []bool{false, true} {
			got := VerifyGreedyEquilibrium(s, VerifyOptions{Workers: 2, Exact: exact})
			if got.Stable != want.Stable || got.FirstImproving != want.FirstImproving ||
				got.CertSkipped != want.CertSkipped || got.Scanned != want.Scanned {
				t.Fatalf("n=%d alpha=%v traffic=%v capped=%v exact=%v: verifier %+v, serial full-certificate oracle %+v",
					n, g.Alpha, withTraffic, capped, exact, got, want)
			}
		}
	})
}
