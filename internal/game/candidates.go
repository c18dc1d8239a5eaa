package game

import (
	"math"

	"gncg/internal/bitset"
	"gncg/internal/metric"
	"gncg/internal/parallel"
)

// This file is the geometric fast path of the best-response scan: the
// machinery that turns BestSingleMove's O(n) candidate sweep into an
// output-sensitive one on hosts that can enumerate geometric
// neighborhoods (metric.CandidateSource — kd-trees on point hosts,
// truncated tree traversal on tree hosts).
//
// The contract is the pruning contract, extended wholesale: every
// candidate the geometry excludes is one the existing traffic-weighted
// gain bounds (moveBounds) prove unable to beat the best move found, so
// (move, cost, ok) stays bit-identical to BestSingleMoveExact. The
// derivation: for an acquiring move towards y with host weight
// w = w(u,y), the net gain is bounded by
// min(gainUB(w), excessUB) − AcquirePrice(α,w), which is non-increasing
// in w (gainUB falls, excessUB is constant, the price contract says
// AcquirePrice never falls). acquireCutoff finds a radius r with
//
//	min(gainUB(r), excessUB) − AcquirePrice(α,r) <= eps − refundMax − slack,
//
// so every candidate with w > r satisfies skipAcquire's skip condition
// for any refund <= refundMax and any running best — they can be
// skipped without even being enumerated. The scan then walks only the
// source's {v : w(u,v) <= r} set, in the oracle's own ascending order,
// with the per-candidate bound checks still applied inside it.
//
// When no usable cutoff exists (unbounded refunds, plateaued prices,
// slack exceeding the tolerance at extreme costs) or the host has no
// source, the scan falls back to the exhaustive tiers, mirroring the
// GainBoundsSound fallback of the rules layer. Candidate generation is
// an accelerator, never an approximation.
//
// Which tiers a scan may use is decided by the host space alone: the
// excess certificate needs metric.Classifier, the candidate tier needs
// metric.CandidateSource. A space wrapped to hide those capabilities
// runs the exhaustive pruned tier — the way the oracle-equality tests
// and the pruned-scan benchmark reach it on geometric hosts.

// ScanStats counts how BestSingleMove scans were served on this state —
// the telemetry behind the equilibrium ladder's candidates_scanned /
// fallbacks columns. Counters follow the State's concurrency contract
// (no concurrent mutation); clones and fork workers start at zero, and
// a fork adds to its parent only the scans its caller keeps
// (Fork.FoldScanStats).
type ScanStats struct {
	// CandidateScans counts scans served from a geometric candidate
	// source through a certified cutoff radius.
	CandidateScans int
	// CandidatesScanned totals the candidates those sources returned —
	// the sublinearity measure: compare against CandidateScans·n.
	CandidatesScanned int
	// ExcessSkips counts scans short-circuited by the metric excess
	// certificate before any candidate enumeration (only the agent's
	// deletions were evaluated).
	ExcessSkips int
	// ExhaustiveScans counts pruned scans that swept every candidate —
	// no source, or no usable bounds.
	ExhaustiveScans int
	// Fallbacks counts the subset of ExhaustiveScans where a source was
	// present but no certified cutoff existed. The nightly tree-n=25000
	// gate fails when this is nonzero.
	Fallbacks int
}

// ScanStats returns the state's scan telemetry counters.
func (s *State) ScanStats() ScanStats { return s.scan }

// Sub returns the counters a gained since b was read from the same
// state: one scan's telemetry, taken around the scan.
func (a ScanStats) Sub(b ScanStats) ScanStats {
	return ScanStats{
		CandidateScans:    a.CandidateScans - b.CandidateScans,
		CandidatesScanned: a.CandidatesScanned - b.CandidatesScanned,
		ExcessSkips:       a.ExcessSkips - b.ExcessSkips,
		ExhaustiveScans:   a.ExhaustiveScans - b.ExhaustiveScans,
		Fallbacks:         a.Fallbacks - b.Fallbacks,
	}
}

func (a *ScanStats) add(d ScanStats) {
	a.CandidateScans += d.CandidateScans
	a.CandidatesScanned += d.CandidatesScanned
	a.ExcessSkips += d.ExcessSkips
	a.ExhaustiveScans += d.ExhaustiveScans
	a.Fallbacks += d.Fallbacks
}

// candidateSource returns the host space's geometric-neighborhood
// capability, or nil.
func (h *Host) candidateSource() metric.CandidateSource {
	if cs, ok := h.space.(metric.CandidateSource); ok {
		return cs
	}
	return nil
}

// metricByConstruction reports whether the host is structurally known to
// satisfy the triangle inequality, in O(1). Unlike Host.IsMetric it
// never densifies: hosts without the Classifier capability answer false
// and simply skip the excess fast tier.
func (h *Host) metricByConstruction(eps float64) bool {
	c, ok := h.space.(metric.Classifier)
	return ok && c.Metric(eps)
}

// maxRefundPrice returns the largest swap refund available to agent u:
// the model's price of the heaviest edge u owns (AcquirePrice is
// monotone in w by the Rules contract), 0 when u owns nothing and so
// can make no swap.
func (s *State) maxRefundPrice(u int, owned bitset.Set) float64 {
	maxW, any := 0.0, false
	owned.ForEach(func(v int) {
		any = true
		if w := s.hostWeight(u, v); w > maxW {
			maxW = w
		}
	})
	if !any {
		return 0
	}
	return s.G.Rules().AcquirePrice(s.G.Alpha, maxW)
}

// trafficFloorSum returns Σ_{x≠u} t(u,x)·Host.Weight(u,x) — the
// traffic-weighted host-metric floor under agent u's distance cost. The
// sum depends only on the host and the demand matrix, never on the
// strategy profile, so it is computed once per agent and cached on the
// Game (the demand is fixed once a State exists; SetTraffic before that
// discards the cache); every state and verifier clone sharing the
// Game reuses it, which is what makes the excess certificate sublinear
// after first touch. Concurrent callers may recompute the same entry
// (the sum is deterministic — fixed index order — so duplicates agree
// bitwise); writes are serialized under floorMu.
func (g *Game) trafficFloorSum(u int) float64 {
	g.floorMu.Lock()
	if g.floorSums == nil {
		g.floorSums = make([]float64, g.N())
		g.floorDone = make([]bool, g.N())
	}
	if g.floorDone[u] {
		v := g.floorSums[u]
		g.floorMu.Unlock()
		return v
	}
	sums, done := g.floorSums, g.floorDone
	g.floorMu.Unlock()

	sum := 0.0
	n := g.N()
	for x := 0; x < n; x++ {
		if x == u {
			continue
		}
		if t := g.Traffic(u, x); t != 0 {
			sum += t * g.Host.Weight(u, x)
		}
	}

	g.floorMu.Lock()
	sums[u] = sum
	done[u] = true
	g.floorMu.Unlock()
	return sum
}

// TrafficFloorTotal returns Σ_{u≠v} t(u,v)·w(u,v) over ordered pairs:
// the traffic-weighted host floor under the whole distance cost, and so,
// on a metric host (where every network distance is at least the host
// weight), a lower bound on any profile's total distance cost. It folds
// the per-agent floor sums the excess certificate caches, in
// parallel.Reduce's fixed order, so it is deterministic and costs O(n)
// once every agent has been scanned. Under uniform traffic each row is
// the plain host row sum (t·w = w for t = 1).
func (g *Game) TrafficFloorTotal() float64 {
	return parallel.Reduce(g.N(), 0.0, g.trafficFloorSum,
		func(a, b float64) float64 { return a + b })
}

// excessRulesOutAcquisitions is the sort-free fast tier of the
// geometric scan: on a structurally metric host, every network distance
// satisfies d(u,x) >= w(u,x), so the traffic-weighted distance gain of
// ANY acquiring move is at most
//
//	excess(u) = DistCost(u) − Σ_x t(u,x)·w(u,x)
//
// (acquisitions can at best collapse every distance to its host-metric
// floor). Every acquiring move also PAYS at least the model's price of
// the nearest other point — AcquirePrice is monotone in w, and no
// candidate sits closer than the source's NearestOtherDist — so the
// certificate compares excess plus the largest swap refund against the
// tolerance plus that minimum price. The price term is what lets the
// tier fire at scale: an agent sitting at its host-metric floor (every
// neighbor reached by a direct edge) certifies in O(deg + log n),
// without building moveBounds' row or enumerating candidates, even
// though the float slack on its cost dwarfs the raw tolerance. The
// slack mirrors the pruning bounds': it absorbs the ulp-level
// divergence between this bound's float evaluation and the scan's
// float cost comparisons, so the tier can never rule out a move the
// exact oracle would accept.
func (s *State) excessRulesOutAcquisitions(u int, cur float64, owned bitset.Set) bool {
	if math.IsInf(cur, 1) || !s.G.Rules().GainBoundsSound() {
		return false
	}
	if !s.G.Host.metricByConstruction(s.G.Eps) {
		return false
	}
	floor := s.G.trafficFloorSum(u)
	if math.IsInf(floor, 0) || math.IsNaN(floor) {
		return false
	}
	excess := s.DistCost(u) - floor
	minPrice := 0.0
	if src := s.G.Host.candidateSource(); src != nil {
		if d := src.NearestOtherDist(u); !math.IsInf(d, 1) {
			if p := s.G.Rules().AcquirePrice(s.G.Alpha, d); p > 0 && !math.IsInf(p, 1) {
				minPrice = p
			}
		}
	}
	return excess+s.maxRefundPrice(u, owned)-minPrice <= s.G.Eps-boundSlack(cur)
}

// acquireCutoff finds a host-weight radius r such that every candidate
// with w(u,y) > r is provably skippable: its net acquiring gain
// gainUB(w) − AcquirePrice(α,w) — non-increasing in w — is at or below
// eps − refundMax − slack, which implies skipAcquire's skip condition
// for every refund the scan can offer and any running best. ok is false
// when no finite radius certifies this (e.g. an infinite refund, or a
// price plateau that never overtakes the slack), in which case the
// caller falls back to the exhaustive scan.
//
// The search runs twice over progressively tighter envelopes. The coarse
// pass replaces gainUB(w) by the constant ceiling min(sumTD, excessUB):
// sumTD = gainUB(0) bounds gainUB everywhere, and excessUB — +Inf off
// structurally metric hosts — bounds every acquiring gain outright, the
// bound skipAcquire already tests. The envelope minus the price is still
// non-increasing in w, and excessUB − price(w) <= eps − refundMax − slack
// implies skipAcquire's excess check for every refund <= refundMax, so
// the soundness argument above carries over unchanged. Every probe is
// O(1) and the geo tier's common case never sorts the distance row at
// all; when the price function cannot overtake the ceiling (e.g. a
// plateau) the tight pass retries with the real gainUB, paying the
// one-time sort. Each pass first doubles out of the certified bracket's
// complement, then bisects to tighten the radius. The returned r itself
// always satisfies the certificate, so an inclusive source query at
// radius r is complete.
func (pb *moveBounds) acquireCutoff(refundMax float64) (r float64, ok bool) {
	threshold := pb.eps - refundMax - pb.slack
	if math.IsNaN(threshold) || math.IsInf(threshold, -1) {
		return 0, false
	}
	ceiling := min(pb.sumTD, pb.excessUB)
	if r, ok = pb.cutoffSearch(func(w float64) float64 {
		return ceiling - pb.rules.AcquirePrice(pb.alpha, w)
	}, threshold); ok {
		return r, true
	}
	return pb.cutoffSearch(func(w float64) float64 {
		return pb.gainUB(w) - pb.rules.AcquirePrice(pb.alpha, w)
	}, threshold)
}

// cutoffSearch finds the smallest bracketable radius where the
// non-increasing net envelope drops to the threshold.
func (pb *moveBounds) cutoffSearch(net func(float64) float64, threshold float64) (float64, bool) {
	lo, hi := 0.0, 1.0
	if pb.maxD > hi {
		hi = pb.maxD
	}
	if net(lo) <= threshold {
		return lo, true
	}
	for tries := 0; net(hi) > threshold; tries++ {
		if tries == 64 || math.IsInf(hi, 1) {
			return 0, false
		}
		lo = hi
		hi *= 2
	}
	for i := 0; i < 48; i++ {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if net(mid) <= threshold {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}
