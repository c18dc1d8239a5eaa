package game

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"gncg/internal/gen"
	"gncg/internal/metric"
)

// serialOracleVerify is the reference the parallel verifier is pinned
// against: an in-order exhaustive scan of every agent with the unpruned
// exact oracle.
func serialOracleVerify(s *State) (stable bool, firstImproving int) {
	stable, firstImproving = true, -1
	for u := 0; u < s.G.N(); u++ {
		if _, _, improving := s.BestSingleMoveExact(u); improving {
			return false, u
		}
	}
	return stable, firstImproving
}

// settle plays greedy round-robin dynamics in place for at most
// maxRounds full rounds, producing the near-equilibrium states where
// certificates actually fire (a dynamics.RunToConvergence stand-in that
// avoids the import cycle of in-package tests).
func settle(s *State, maxRounds int) {
	n := s.G.N()
	for r := 0; r < maxRounds; r++ {
		moved := false
		for u := 0; u < n; u++ {
			if m, _, ok := s.BestSingleMove(u); ok {
				s.Apply(m)
				moved = true
			}
		}
		if !moved {
			return
		}
	}
}

// TestVerifyParallelMatchesSerialOracle pins the sharding contract: for
// every host flavor, for random and settled states alike, the parallel
// verifier's verdict (Stable, FirstImproving) is bit-identical to the
// serial exhaustive oracle under worker counts {1, 4, GOMAXPROCS} and
// both scan oracles — and the certificate skip count is identical for
// every worker count. Run under -race in CI, this also exercises the
// isolation of fork workers that share the state's rows.
func TestVerifyParallelMatchesSerialOracle(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, flavor := range repairFlavors {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 6 + rng.Intn(6)
			g := New(repairHost(t, rng, n, flavor), 0.5+4*rng.Float64())
			s := NewState(g, randProfile(rng, n, 0.3))
			if seed%2 == 1 {
				settle(s, 8) // near-equilibrium: the certificate-rich regime
			}
			wantStable, wantFirst := serialOracleVerify(s.Clone())
			var wantSkipped = -1
			for _, workers := range workerCounts {
				for _, exact := range []bool{false, true} {
					res := VerifyGreedyEquilibrium(s, VerifyOptions{Workers: workers, Exact: exact})
					if res.Stable != wantStable || res.FirstImproving != wantFirst {
						t.Fatalf("%s seed %d workers=%d exact=%v: got (stable=%v first=%d), oracle (stable=%v first=%d)",
							flavor, seed, workers, exact,
							res.Stable, res.FirstImproving, wantStable, wantFirst)
					}
					if wantSkipped == -1 {
						wantSkipped = res.CertSkipped
					} else if res.CertSkipped != wantSkipped {
						t.Fatalf("%s seed %d workers=%d exact=%v: CertSkipped=%d, want %d (must be worker-invariant)",
							flavor, seed, workers, exact, res.CertSkipped, wantSkipped)
					}
					if res.CertSkipped+res.Scanned != n {
						t.Fatalf("%s seed %d: CertSkipped=%d + Scanned=%d != n=%d",
							flavor, seed, res.CertSkipped, res.Scanned, n)
					}
				}
			}
		}
	}
}

// TestVerifyIsReadOnly: the concurrent entry point must leave the state
// untouched — same profile, same network, same costs, and every cached
// row and aggregate bit for bit, although the fork's workers repaired
// (and so first copied) rows they borrowed from it.
func TestVerifyIsReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 10
	g := New(repairHost(t, rng, n, "l2points"), 2)
	s := NewState(g, randProfile(rng, n, 0.3))
	before := s.P.Clone()
	costBefore := s.SocialCost() // caches every row and aggregate
	rowsBefore := cacheChecksums(s)
	repairsBefore := s.CacheStats().BatchRepairs
	VerifyGreedyEquilibrium(s, VerifyOptions{Workers: 4})
	for u := 0; u < n; u++ {
		if !s.P.S[u].Equal(before.S[u]) {
			t.Fatalf("agent %d strategy mutated by verification", u)
		}
	}
	if got := cacheChecksums(s); !reflect.DeepEqual(got, rowsBefore) {
		t.Fatalf("cached rows or aggregates changed:\nbefore %x\nafter  %x", rowsBefore, got)
	}
	if s.CacheStats().BatchRepairs == repairsBefore {
		t.Fatal("no worker repaired a borrowed row; the check is vacuous")
	}
	if got := s.SocialCost(); got != costBefore {
		t.Fatalf("social cost changed: %v -> %v", costBefore, got)
	}
}

// cacheChecksums hashes each cached row of s with its position and
// aggregate (0 for an empty slot).
func cacheChecksums(s *State) []uint64 {
	c := s.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, len(c.rows))
	for i, row := range c.rows {
		if row == nil {
			continue
		}
		h := fnv.New64a()
		put := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, x)) }
		put(c.rowPos[i])
		for _, d := range row {
			put(math.Float64bits(d))
		}
		a := c.agg[i]
		put(math.Float64bits(a.total))
		for _, b := range a.blocks {
			put(math.Float64bits(b))
		}
		out[i] = h.Sum64()
	}
	return out
}

// TestCertificateSoundness: whenever a certificate rules out
// acquisitions, exhaustive evaluation of every buy and swap must agree
// that none improves — across the corpus, on random (not settled)
// states where bounds are stressed hardest.
func TestCertificateSoundness(t *testing.T) {
	for _, flavor := range repairFlavors {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(100 + seed))
			n := 6 + rng.Intn(5)
			g := New(repairHost(t, rng, n, flavor), 0.5+6*rng.Float64())
			s := NewState(g, randProfile(rng, n, 0.4))
			for u := 0; u < n; u++ {
				cur := s.Cost(u)
				cert, ok := s.AcquireGainCertificate(u)
				if !ok || !cert.RulesOutAcquisitions(g.Eps) {
					continue
				}
				for _, m := range s.CandidateMoves(u) {
					if m.Kind == Delete {
						continue
					}
					if after := s.CostAfter(m); g.Improves(after, cur) {
						t.Fatalf("%s seed %d: certificate for agent %d ruled out acquisitions, but %v improves %v -> %v (bound %v + refund %v, slack %v)",
							flavor, seed, u, m, cur, after, cert.AcquireBound, cert.MaxRefund, cert.Slack)
					}
				}
			}
		}
	}
}

// TestVerifyCertSkipsAtScaleEquilibrium reproduces the ladder's
// certify-tier shape in miniature — an ℓ2 star at α = 16n settled to a
// greedy equilibrium — and requires the certificates to actually skip
// agents there: the regime the cert_skipped column measures.
func TestVerifyCertSkipsAtScaleEquilibrium(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 40
	g := New(randCacheHost(rng, n), 16*float64(n))
	s := NewState(g, StarProfile(n, 0))
	settle(s, 16)
	res := VerifyGreedyEquilibrium(s, VerifyOptions{Workers: 4, Exact: true})
	if !res.Stable {
		t.Fatalf("settled star state not verified stable (first improving %d)", res.FirstImproving)
	}
	if res.CertSkipped == 0 {
		t.Fatalf("expected certificate skips at a large-alpha equilibrium, got 0 of %d agents", n)
	}
	t.Logf("cert skipped %d / %d agents", res.CertSkipped, n)
}

// TestAcquireGainCertificateMatchesFullMax pins the certificate's value,
// not just its soundness: AcquireBound, MaxRefund and Slack must equal,
// bit for bit, a reference that evaluates min(pair, excessUB, gainUB) −
// price for every candidate with no dominance skip, across the host
// corpus, an α ladder, uniform and random traffic, and random and star
// profiles.
func TestAcquireGainCertificateMatchesFullMax(t *testing.T) {
	const n = 28
	fullMax := func(s *State, u int) (GainCertificate, bool) {
		pb := s.newMoveBounds(u, s.Cost(u))
		if pb == nil {
			return GainCertificate{}, false
		}
		cert := GainCertificate{Agent: u, AcquireBound: math.Inf(-1), Slack: pb.slack}
		owned := s.P.S[u]
		for x := 0; x < n; x++ {
			if x == u || owned.Has(x) {
				continue
			}
			w := s.hostWeight(u, x)
			if math.IsInf(w, 1) {
				continue
			}
			var pair float64
			if duy := pb.duv[x]; pb.tpos > 0 && duy > w {
				pair = pb.tpos * (duy - w)
			}
			b := pair
			if pb.excessUB < b {
				b = pb.excessUB
			}
			if g := pb.gainUB(w); g < b {
				b = g
			}
			if net := b - pb.rules.AcquirePrice(pb.alpha, w); net > cert.AcquireBound {
				cert.AcquireBound = net
			}
		}
		cert.MaxRefund = s.maxRefundPrice(u, owned)
		return cert, true
	}
	bits := func(c GainCertificate) [3]uint64 {
		return [3]uint64{math.Float64bits(c.AcquireBound), math.Float64bits(c.MaxRefund), math.Float64bits(c.Slack)}
	}
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for name, space := range corpusHosts(t, seed, n) {
			for _, alpha := range []float64{0.5, 3, 16 * n} {
				for _, withTraffic := range []bool{false, true} {
					g := New(NewHost(space), alpha)
					if withTraffic {
						tr := make([][]float64, n)
						for u := range tr {
							tr[u] = make([]float64, n)
							for v := range tr[u] {
								if v != u && rng.Intn(3) > 0 {
									tr[u][v] = rng.Float64() * 2
								}
							}
						}
						if err := g.SetTraffic(tr); err != nil {
							t.Fatal(err)
						}
					}
					profiles := map[string]Profile{
						"random": randomProfile(rng, n, 0.12),
						"star":   StarProfile(n, rng.Intn(n)),
					}
					for pname, prof := range profiles {
						s := NewState(g, prof)
						for u := 0; u < n; u++ {
							got, gok := s.AcquireGainCertificate(u)
							want, wok := fullMax(s, u)
							if gok != wok || bits(got) != bits(want) || got.Agent != want.Agent {
								t.Fatalf("%s alpha=%v traffic=%v %s seed=%d agent %d: certificate (%+v, %v) != full max (%+v, %v)",
									name, alpha, withTraffic, pname, seed, u, got, gok, want, wok)
							}
						}
					}
				}
			}
		}
	}
}

// countingTree wraps a tree metric the way a tracing wrapper does: the
// embedded pointer promotes every capability, and Dist is counted.
type countingTree struct {
	*metric.TreeMetric
	calls *atomic.Int64
}

func (c countingTree) Dist(i, j int) float64 {
	c.calls.Add(1)
	return c.TreeMetric.Dist(i, j)
}

// TestDisconnectingMovesSkipEdgeFold: every delete of the star centre
// disconnects the network, so the scan and the verifier price none of
// their strategies. Once the centre's floor row is warm, BestSingleMove(0)
// and the verifier's check of agent 0 make O(deg) host Dist calls, where
// folding each delete's strategy would make deg·(deg−1). CostAfter itself
// keeps its value: +Inf for a disconnecting delete, and NaN when α = 0
// meets a +Inf host weight.
func TestDisconnectingMovesSkipEdgeFold(t *testing.T) {
	const n = 300
	const deg = n - 1
	var calls atomic.Int64
	g := New(NewHost(countingTree{gen.Tree(11, n, 1, 6), &calls}), n)
	s := NewState(g, StarProfile(n, 0))
	s.BestSingleMove(0)
	for name, check := range map[string]func(){
		"BestSingleMove": func() {
			if _, _, ok := s.BestSingleMove(0); ok {
				t.Fatal("star centre has an improving move at alpha = n")
			}
		},
		"verifyAgent": func() {
			if v := verifyAgent(s, 0, VerifyOptions{}); v.improving || !v.skipped {
				t.Fatalf("verifier verdict for the star centre: %+v, want skipped and not improving", v)
			}
		},
	} {
		calls.Store(0)
		check()
		if c := calls.Load(); c > 4*deg {
			t.Errorf("%s(0) on an n = %d star made %d Dist calls, want O(deg) (≤ %d)", name, n, c, 4*deg)
		}
	}
	if c := s.CostAfter(Move{Agent: 0, Kind: Delete, V: 7}); !math.IsInf(c, 1) {
		t.Fatalf("CostAfter of a disconnecting delete = %v, want +Inf", c)
	}

	// Points 1 and 2 are 2e308 apart under l1: a +Inf host weight. At
	// α = 0 agent 1's edge part is 0·Inf = NaN, and deleting (1,0) also
	// cuts 0 off, so the distance part is +Inf; the sum stays NaN.
	pts, err := metric.NewPoints([][]float64{{0}, {1e308}, {-1e308}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := EmptyProfile(3)
	p.Buy(1, 0)
	p.Buy(1, 2)
	inf := NewState(New(NewHost(pts), 0), p)
	if c := inf.CostAfter(Move{Agent: 1, Kind: Delete, V: 0}); !math.IsNaN(c) {
		t.Fatalf("CostAfter at alpha = 0 with a +Inf weight = %v, want NaN", c)
	}
}

// TestStarScanAndCertificateAllocs is the allocation gate of the scan's
// and the verifier's per-agent paths on warm buffers: scanning the star
// centre's deletes allocates one strategy clone per candidate and nothing
// else, and the verifier's certificate check allocates nothing, for the
// centre and for a leaf, whose check runs the candidate loop.
func TestStarScanAndCertificateAllocs(t *testing.T) {
	const n = 300
	g := New(NewHost(gen.Tree(8, n, 1, 6)), n)
	s := NewState(g, StarProfile(n, 0))
	s.BestSingleMove(0)
	if allocs := testing.AllocsPerRun(20, func() { s.BestSingleMove(0) }); allocs != n-1 {
		t.Fatalf("BestSingleMove(0) on an n = %d star allocated %v times per run, want %d (one clone per delete)", n, allocs, n-1)
	}
	for _, u := range []int{0, 5} {
		s.gainCertificate(u, g.Eps)
		if allocs := testing.AllocsPerRun(20, func() { s.gainCertificate(u, g.Eps) }); allocs != 0 {
			t.Fatalf("certificate of agent %d allocated %v times per run, want 0", u, allocs)
		}
	}
}
