package game

import (
	"math"
	"sync/atomic"

	"gncg/internal/parallel"
)

// This file is the concurrent equilibrium-verification entry point: a
// worker-pool verifier for the greedy-equilibrium property built on the
// same traffic-weighted gain bounds that prune BestSingleMove, promoted
// here to first-class *certificates*. Verification is embarrassingly
// parallel — each agent's check is a pure function of the frozen state —
// and certificate-driven: an agent whose best possible single-move
// improvement is provably <= the strict-improvement tolerance is skipped
// without running its O(n·|S_u|) candidate scan at all. The verifier
// stops an agent's certificate at the first candidate that proves it
// cannot rule acquisitions out, since that agent is rescanned anyway.

// GainCertificate is an upper bound on what any single *acquiring* move
// (a buy, or the bought half of a swap) can gain agent u, derived from
// u's current distance row and the network triangle inequality — the
// moveBounds machinery behind the pruned scan, evaluated in one pass over
// the candidates instead of per scanned candidate.
//
// For each non-owned candidate x with host weight w = w(u,x), the
// traffic-weighted distance gain of acquiring (u,x) is bounded above by
// both T·max(0, d(u,x) − w) and Σ_y t(u,y)·max(0, d(u,y) − w) (see
// moveBounds); AcquireBound is the maximum over candidates of the
// smaller bound minus the model's AcquirePrice(α, w) — α·w under the
// default SumRules. A swap additionally refunds the deleted edge's
// price (its deletion only increases distances, so it cannot enlarge
// the gain); MaxRefund is the largest refund available, the price of
// the heaviest edge u owns. Slack is the float-noise margin inherited
// from the pruned scan, sized to the agent's current cost, so a
// certificate can never rule out a move the exact oracle would accept.
type GainCertificate struct {
	Agent int
	// AcquireBound bounds, over every buyable non-owned candidate x,
	// the distance gain minus edge price of acquiring (u,x). -Inf when
	// no candidate is buyable.
	AcquireBound float64
	// MaxRefund is the largest swap refund: the model's price of the
	// heaviest edge u owns (0 when u owns nothing, so swaps are
	// impossible anyway).
	MaxRefund float64
	// Slack absorbs ulp-level divergence between the real-arithmetic
	// bounds and float path sums.
	Slack float64
}

// RulesOutAcquisitions reports whether the certificate proves that no
// single buy or swap can improve agent u's cost by more than eps: even
// the loosest candidate, granted the largest possible swap refund,
// falls short of the strict-improvement tolerance by more than the
// float slack. Deletions are NOT covered — a certificate-skipped agent
// still needs its |S_u| deletions checked (they are exact O(1)-count
// evaluations, not part of the quadratic scan).
func (c GainCertificate) RulesOutAcquisitions(eps float64) bool {
	return c.AcquireBound+c.MaxRefund <= eps-c.Slack
}

// AcquireGainCertificate computes agent u's gain-bound certificate in
// one pass over the candidates: O(1) bounds each, plus an O(log n)
// sorted-row bound (after a one-time O(n log n) sort) only for
// candidates the O(1) bounds leave able to raise the running maximum.
// Prices and refunds go through the cost model's AcquirePrice, so
// certificates stay sound under any Rules that declares the gain bounds
// applicable. ok is false when u's current cost is infinite (an agent
// that cannot reach a positive-demand node gains unboundedly from
// reconnection, so no finite bound exists) or when the model's
// GainBoundsSound is false; callers must then fall back to a real scan.
// The bound ranges over every non-owned candidate — a superset of the
// model-feasible ones — which can only loosen it, never unsoundly
// tighten it. Like BestSingleMove it works in the state's reused scan
// buffers, so one state must not compute two certificates concurrently.
func (s *State) AcquireGainCertificate(u int) (cert GainCertificate, ok bool) {
	return s.gainCertificate(u, math.Inf(1))
}

// gainCertificate is AcquireGainCertificate's one candidate loop, which
// stops as soon as the certificate can no longer rule out acquisitions
// at tolerance eps: once AcquireBound + MaxRefund > eps − Slack. The
// bound is a running maximum and float addition is monotone, so the
// stopped certificate's RulesOutAcquisitions(eps) is the full one's, bit
// for bit, although its AcquireBound may fall short of the full value.
// A MaxRefund of +Inf (or NaN) fails that test whatever the bound, so it
// stops before the loop. eps = +Inf never stops: the exported
// certificate passes it and keeps its full value.
func (s *State) gainCertificate(u int, eps float64) (cert GainCertificate, ok bool) {
	cur := s.Cost(u)
	pb := s.newMoveBounds(u, cur)
	if pb == nil {
		return GainCertificate{}, false
	}
	owned := s.P.S[u]
	cert = GainCertificate{Agent: u, AcquireBound: math.Inf(-1), MaxRefund: s.maxRefundPrice(u, owned), Slack: pb.slack}
	limit := eps - cert.Slack
	if limit < math.Inf(1) && !(cert.MaxRefund < math.Inf(1)) {
		return cert, true
	}
	n := s.G.N()
	for x := 0; x < n; x++ {
		if x == u || owned.Has(x) {
			continue
		}
		w := s.hostWeight(u, x)
		if math.IsInf(w, 1) {
			continue // unbuyable pair: the edge price alone is +Inf
		}
		// O(1) triangle bound, the excess ceiling and the sorted-row
		// bound; the smallest wins. duv[x] may be +Inf (unreachable
		// zero-demand node): the pair bound is then +Inf and only the
		// other two constrain. Float subtraction is monotone, so when the
		// O(1) bounds alone cannot raise AcquireBound, neither can the
		// smaller three-way minimum: gainUB, and the lazy row sort behind
		// it, is skipped without changing a bit of the result.
		price := pb.rules.AcquirePrice(pb.alpha, w)
		var pair float64
		if duy := pb.duv[x]; pb.tpos > 0 && duy > w {
			pair = pb.tpos * (duy - w)
		}
		b := pair
		if pb.excessUB < b {
			b = pb.excessUB
		}
		if b-price <= cert.AcquireBound {
			continue
		}
		if g := pb.gainUB(w); g < b {
			b = g
		}
		if net := b - price; net > cert.AcquireBound {
			cert.AcquireBound = net
			if cert.AcquireBound+cert.MaxRefund > limit {
				return cert, true
			}
		}
	}
	return cert, true
}

// VerifyOptions configures VerifyGreedyEquilibrium.
type VerifyOptions struct {
	// Workers is the verification worker count; <= 0 means
	// parallel.Workers() (GOMAXPROCS). State.Fork caps it at n and at
	// the state's row cap. The result is identical for every worker
	// count — only wall time changes.
	Workers int
	// Exact runs the unpruned exhaustive scan (BestSingleMoveExact) for
	// agents the certificate cannot skip, making the verdict
	// independent of the pruning bounds for those agents. Default
	// (false) uses the pruned scan — outcome-identical by the pruning
	// contract, and faster.
	Exact bool
}

// VerifyResult reports a concurrent verification.
type VerifyResult struct {
	// Stable is true when no agent has a strictly improving single-edge
	// move: the state is a greedy equilibrium.
	Stable bool
	// FirstImproving is the smallest agent index with an improving
	// move, or -1 when Stable. It is the same agent a serial in-order
	// scan would report first, under any worker count.
	FirstImproving int
	// CertSkipped counts agents whose candidate scan was skipped
	// because their gain-bound certificate ruled out every buy and
	// swap (their deletions were still evaluated exactly).
	CertSkipped int
	// Scanned counts agents that ran a full candidate scan.
	Scanned int
	// Workers is the worker count actually used.
	Workers int
}

// agentVerdict is one agent's worker-independent check outcome.
type agentVerdict struct {
	improving bool
	skipped   bool
}

// VerifyGreedyEquilibrium checks whether the state is a greedy
// equilibrium — no agent has a strictly improving buy, delete or swap —
// by sharding the per-agent checks across the workers of a Fork of s.
//
// Verification leaves s as it found it: the profile, the network and
// every row the state holds stay bit for bit. Each worker checks agents
// taken from a shared counter against its own worker state, whose
// distance cache is reused across all its agents (CostAfter never
// writes it), and whose rows start out borrowed from s: rows the
// dynamics just left current are read, not recomputed. Join then hands
// s the rows the workers computed and their cache counters. Per-agent
// verdicts depend only on the frozen state, never on worker count or
// scheduling, and fold into the result in fixed agent order — so the
// returned VerifyResult is identical for any Workers setting, which is
// what lets sweeps record it under the byte-identical sharding contract
// (pinned by TestVerifyParallelMatchesSerialOracle).
//
// Each agent is checked at the cheapest sufficient tier: its
// GainCertificate first (one bound pass over the candidates, stopped at
// the first candidate that keeps it from ruling acquisitions out); if the
// certificate rules out every buy and swap, only the agent's |S_u|
// deletions are evaluated exactly and the quadratic candidate scan is
// skipped entirely (counted in CertSkipped). Otherwise the agent runs a full
// scan — pruned by default, exhaustive under Exact.
func VerifyGreedyEquilibrium(s *State, opt VerifyOptions) VerifyResult {
	n := s.G.N()
	workers := opt.Workers
	if workers <= 0 {
		workers = parallel.Workers()
	}
	f := s.Fork(workers)
	verdicts := make([]agentVerdict, n)
	var next atomic.Int64
	f.Each(func(_ int, ws *State) {
		for u := int(next.Add(1)) - 1; u < n; u = int(next.Add(1)) - 1 {
			verdicts[u] = verifyAgent(ws, u, opt)
		}
	})
	res := VerifyResult{Stable: true, FirstImproving: -1, Workers: f.Size()}
	f.Join()
	for u, v := range verdicts {
		if v.skipped {
			res.CertSkipped++
		} else {
			res.Scanned++
		}
		if v.improving && res.FirstImproving < 0 {
			res.Stable = false
			res.FirstImproving = u
		}
	}
	return res
}

// verifyAgent checks one agent on a fork worker's state. The verdict
// is a pure function of the state and options.
func verifyAgent(work *State, u int, opt VerifyOptions) (v agentVerdict) {
	cur := work.Cost(u)
	if !math.IsInf(cur, 1) {
		if cert, ok := work.gainCertificate(u, work.G.Eps); ok && cert.RulesOutAcquisitions(work.G.Eps) {
			// Buys and swaps are ruled out; only the agent's own
			// deletions remain, at most |S_u| of them: the shared scan
			// loop with no acquisition targets.
			_, _, v.improving = work.scanMoves(u, cur, nil, nil)
			v.skipped = true
			return v
		}
	}
	if opt.Exact {
		_, _, v.improving = work.BestSingleMoveExact(u)
	} else {
		_, _, v.improving = work.BestSingleMove(u)
	}
	return v
}
