package game

import (
	"math"
	"math/rand"
	"testing"

	"gncg/internal/gen"
	"gncg/internal/graph"
	"gncg/internal/metric"
)

// corpusHosts returns the candidate-generation test corpus: point hosts
// under every supported norm, tree hosts including zero-weight edges
// (whole subtrees at distance 0 — maximal tie pressure on the cutoff
// radius), and a 1-2 host, which has no CandidateSource and pins the
// no-source path.
func corpusHosts(t *testing.T, seed int64, n int) map[string]metric.Space {
	t.Helper()
	rng := rand.New(rand.NewSource(seed + 99))
	edges := make([]graph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		w := rng.Float64() * 4
		if rng.Intn(4) == 0 {
			w = 0
		}
		edges = append(edges, graph.Edge{U: rng.Intn(v), V: v, W: w})
	}
	zeroTree, err := metric.NewTreeMetric(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]metric.Space{
		"points-l1":   gen.Points(seed, n, 2, 10, 1),
		"points-l2":   gen.Points(seed+1, n, 2, 10, 2),
		"points-linf": gen.Points(seed+2, n, 3, 10, math.Inf(1)),
		"tree":        gen.Tree(seed, n, 1.1, 6.3),
		"tree-zero-w": zeroTree,
		"one-two":     gen.OneTwo(seed, n, 0.4),
	}
}

// bareSpace hides every capability of the wrapped space: scans on it
// run the exhaustive pruned tier without the excess ceiling.
type bareSpace struct{ metric.Space }

// classifiedSpace forwards only metric.Classifier: scans on it still
// have no candidate source, but the excess certificate and the
// exhaustive tier's excessUB bound stay in play.
type classifiedSpace struct {
	metric.Space
	metric.Classifier
}

// TestCandidateScanMatchesExactOracle is the candidate tiers' exactness
// gate at unit-test scale: across the host corpus, random profiles, an
// α ladder and a random-traffic variant, BestSingleMove on the host
// itself and on both sourceless wrappers of it must return the
// bit-identical (move, cost, ok) triple as the unpruned exact oracle,
// for every agent.
func TestCandidateScanMatchesExactOracle(t *testing.T) {
	const n = 28
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for name, space := range corpusHosts(t, seed, n) {
			variants := map[string]metric.Space{
				"geo":        space,
				"bare":       bareSpace{space},
				"classified": classifiedSpace{space, space.(metric.Classifier)},
			}
			for _, alpha := range []float64{0.5, 3, 16 * n} {
				for _, withTraffic := range []bool{false, true} {
					var tr [][]float64
					if withTraffic {
						tr = make([][]float64, n)
						trng := rand.New(rand.NewSource(seed * 7))
						for u := range tr {
							tr[u] = make([]float64, n)
							for v := range tr[u] {
								if v != u && trng.Intn(3) > 0 {
									tr[u][v] = trng.Float64() * 2
								}
							}
						}
					}
					prof := randomProfile(rng, n, 0.12)
					states := map[string]*State{}
					for vname, sp := range variants {
						g := New(NewHost(sp), alpha)
						if tr != nil {
							if err := g.SetTraffic(tr); err != nil {
								t.Fatal(err)
							}
						}
						states[vname] = NewState(g, prof.Clone())
					}
					sExact := NewState(states["geo"].G, prof.Clone())
					for u := 0; u < n; u++ {
						em, ec, eok := sExact.BestSingleMoveExact(u)
						for vname, s := range states {
							m, c, ok := s.BestSingleMove(u)
							if m != em || c != ec || ok != eok {
								t.Fatalf("%s alpha=%v traffic=%v seed=%d agent %d: %s (%v, %v, %v) != exact (%v, %v, %v)",
									name, alpha, withTraffic, seed, u, vname, m, c, ok, em, ec, eok)
							}
						}
					}
				}
			}
		}
	}
}

// TestCandidateScanStats pins the telemetry accounting: every pruned
// scan lands in exactly one of the three scan tiers, fallbacks are a
// subset of exhaustive scans, sourceless hosts never report candidate
// scans, and the exact oracle never counts at all.
func TestCandidateScanStats(t *testing.T) {
	const n = 24
	rng := rand.New(rand.NewSource(5))

	check := func(name string, space metric.Space, wantSource bool) ScanStats {
		g := New(NewHost(space), 16*n)
		s := NewState(g, randomProfile(rng, n, 0.12))
		for u := 0; u < n; u++ {
			s.BestSingleMove(u)
		}
		st := s.ScanStats()
		if got := st.CandidateScans + st.ExcessSkips + st.ExhaustiveScans; got != n {
			t.Fatalf("%s: %d scans accounted, want %d (%+v)", name, got, n, st)
		}
		if st.Fallbacks > st.ExhaustiveScans {
			t.Fatalf("%s: fallbacks %d exceed exhaustive scans %d", name, st.Fallbacks, st.ExhaustiveScans)
		}
		if !wantSource && (st.CandidateScans != 0 || st.Fallbacks != 0) {
			t.Fatalf("%s: sourceless host reported candidate scans: %+v", name, st)
		}
		if wantSource && st.CandidateScans+st.ExcessSkips == 0 {
			t.Fatalf("%s: geometric host never served a geometric scan: %+v", name, st)
		}
		// The exact oracle never counts.
		before := s.ScanStats()
		for u := 0; u < n; u++ {
			s.BestSingleMoveExact(u)
		}
		if s.ScanStats() != before {
			t.Fatalf("%s: exact oracle moved scan stats: %+v -> %+v", name, before, s.ScanStats())
		}
		// Clones start from zero.
		if c := s.Clone(); c.ScanStats() != (ScanStats{}) {
			t.Fatalf("%s: clone inherited scan stats %+v", name, c.ScanStats())
		}
		return st
	}

	check("points-l2", gen.Points(3, n, 2, 10, 2), true)
	check("tree", gen.Tree(3, n, 1, 6), true)
	check("one-two", gen.OneTwo(3, n, 0.4), false)
	pts := gen.Points(4, n, 2, 10, 2)
	check("points-l2/classified", classifiedSpace{pts, pts}, false)

	// With every capability hidden, a geometric host takes the
	// exhaustive tier on every scan.
	if st := check("points-l2/bare", bareSpace{pts}, false); st.ExcessSkips != 0 || st.ExhaustiveScans != n {
		t.Fatalf("bare host: want %d exhaustive scans only, got %+v", n, st)
	}
}
