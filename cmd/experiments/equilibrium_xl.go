package main

import (
	"fmt"

	"gncg/internal/dynamics"
	"gncg/internal/game"
	"gncg/internal/gen"
	"gncg/internal/graph"
	"gncg/internal/metric"
	"gncg/internal/parallel"
	"gncg/internal/report"
	"gncg/internal/sweep"
)

// The equilibrium_xl ladder is the geometric candidate generation
// tentpole run at the scale it exists for: n = 25000 / 50000 / 100000 on
// ℓ2 and tree hosts — sizes where an exhaustive O(n) best-response scan
// per agent (let alone the O(n log n) bound-sort behind it) stops being
// a feasible per-round unit of work. It is registered as its own
// experiment rather than extra rungs of `equilibrium` for two reasons:
// the 1-2 host axis cannot come along (its dense boolean matrix is Θ(n²)
// memory), and the nightly workflow runs this ladder once, unsharded, in
// a dedicated step outside the sharded determinism drill — so its tags
// deliberately match none of the nightly's other -run selections.
//
// The certified OPT lower bound α·MST(H) + Σ_{u≠v} d_H(u,v) is computed
// by host-specific O(n²)-or-better routines below instead of
// opt.LowerBound, whose generic Prim pass over Host.Weight (an interface
// call, an O(1) LCA query on tree hosts) prices a 10⁵-vertex cell in
// tens of minutes on its own.

// xlSampleFull / xlSampleHuge size the deterministic exact-oracle spot
// check of the reached state: 48 agents (matching the equilibrium
// ladder's sampled tier) up to xlSampleCut, 16 beyond — an exact scan
// replays every candidate move with no pruning, so its price per agent
// grows superlinearly with n and the sample shrinks where the scan is
// dearest.
const (
	xlSampleCut  = 25000
	xlSampleFull = 48
	xlSampleHuge = 16
)

func registerEquilibriumXL() {
	sweep.Register(sweep.Experiment{
		Name: "equilibrium_xl", Title: "Scale: greedy dynamics at n = 10⁵ — geometric candidate generation ladder",
		Note: "Star-start greedy dynamics on l2 (alpha = 16n) and tree (alpha = n) hosts " +
			"at sizes only the geometric scan tiers reach: the excess certificate and " +
			"the CandidateSource cutoff radius keep per-agent scans output-sensitive, " +
			"and the candidate_* columns record how each cell's scans were served " +
			"(the nightly gate pins the tree n = 25000 rung to zero fallbacks). " +
			"ne_certified is the parallel certified verifier over ALL agents " +
			"(gain-bound certificates + pruned scans, verdict worker-invariant); " +
			"exact_sample_ne re-checks a deterministic sample of non-center agents " +
			"against the unpruned exact oracle — the star center, owning n-1 edges, " +
			"would cost a Θ(n²) exact swap scan and is covered by the certified tier. " +
			"opt_lb uses host-specific O(n²) closed forms (tree closures: the defining " +
			"tree is an MST of its own closure, and per-edge cut counting folds the " +
			"distance sum in O(n)).",
		Tags: []string{"xl"},
		Space: func(quick bool) sweep.Space {
			ns := sweep.Ints("n", 25000, 50000, 100000)
			if quick {
				ns = sweep.Ints("n", 400)
			}
			return sweep.Space{Axes: []sweep.Axis{
				sweep.Strings("host", "l2", "tree"), ns}}
		},
		Schema: []string{"alpha", "outcome", "rounds", "moves", "social_cost", "opt_lb",
			"poa_vs_lb", "ne_certified", "exact_sample_ne",
			"verify_workers", "cert_skipped", "verify_ms",
			"candidate_scans", "candidates_scanned", "excess_skips",
			"exhaustive_scans", "fallbacks"},
		Run: func(p sweep.Params) []sweep.Record {
			n := p.Int("n")
			class := p.Str("host")
			var (
				h             *game.Host
				alpha         float64
				mstW, distSum float64
			)
			switch class {
			case "l2":
				ps := gen.Points(13, n, 2, 1000, 2)
				h, alpha = game.NewHost(ps), 16*float64(n)
				mstW, distSum = l2MSTWeight(ps.Coords), l2DistanceSum(ps.Coords)
			case "tree":
				tm := gen.Tree(13, n, 1, 6)
				h, alpha = game.NewHost(tm), float64(n)
				edges := tm.Edges()
				mstW, distSum = edgeWeightSum(edges), treeClosureDistanceSum(n, edges)
			default:
				panic(fmt.Sprintf("unknown equilibrium_xl host class %q", class))
			}
			g := game.New(h, alpha)
			lb := g.Rules().SpanningEdgeCostLB(alpha, mstW, n) + distSum
			s := game.NewState(g, game.StarProfile(n, 0))
			res := dynamics.RunToConvergence(s, dynamics.GreedyMover, dynamics.RoundRobin{}, ladderBudget(n))
			// Scan telemetry of the convergence run alone: verification
			// scans on the workers of a game.Fork, whose scan counters are
			// never folded into s, and the exact-oracle sample runs
			// unpruned scans, which never count.
			scan := s.ScanStats()

			verification, haveVerification := dynamics.VerifyConvergence(
				res, s, game.VerifyOptions{})
			certified := "-"
			if haveVerification {
				certified = report.Check(verification.Stable)
			}
			sampled := "-"
			if !p.Quick && res.Outcome == dynamics.Converged {
				k := xlSampleFull
				if n > xlSampleCut {
					k = xlSampleHuge
				}
				// Distinct non-center agents, drawn without replacement.
				sample := p.RNG().Perm(n - 1)[:k]
				for i := range sample {
					sample[i]++
				}
				sampled = fmt.Sprintf("%s (%d sampled)", report.Check(exactSampleStable(s, sample)), k)
			}
			kv := append([]any{"host", class, "n", n, "alpha", alpha}, outcomeColumns(res, lb)...)
			kv = append(kv, "ne_certified", certified, "exact_sample_ne", sampled)
			// Full mode only, like the equilibrium ladder: quick cells stay
			// byte-identical between candidate modes (the candidate-exactness
			// gate compares them), and scan counters differ by mode by
			// design; verify_ms is wall clock on top.
			if !p.Quick {
				kv = append(kv, scanColumns(scan)...)
				if haveVerification {
					kv = append(kv, verifyColumns(verification)...)
				}
			}
			return []sweep.Record{sweep.R(kv...)}
		},
	})
}

// l2MSTWeight is opt.metricMSTWeight specialized to raw ℓ2 coordinates:
// Prim with an O(n) frontier array, O(n²) distance evaluations with no
// interface dispatch. Deterministic — minimum-key vertex by lowest index
// on ties, weights folded in insertion order.
func l2MSTWeight(coords [][]float64) float64 {
	n := len(coords)
	if n <= 1 {
		return 0
	}
	inTree := make([]bool, n)
	key := make([]float64, n)
	for v := 1; v < n; v++ {
		key[v] = metric.PNormDist(coords[0], coords[v], 2)
	}
	inTree[0] = true
	total := 0.0
	for round := 1; round < n; round++ {
		best := -1
		for v := 0; v < n; v++ {
			if !inTree[v] && (best < 0 || key[v] < key[best]) {
				best = v
			}
		}
		inTree[best] = true
		total += key[best]
		cb := coords[best]
		for v := 0; v < n; v++ {
			if !inTree[v] {
				if w := metric.PNormDist(cb, coords[v], 2); w < key[v] {
					key[v] = w
				}
			}
		}
	}
	return total
}

// l2DistanceSum returns Σ_{u≠v} ||c_u − c_v||₂ over ordered pairs,
// parallel over rows with a deterministic fold.
func l2DistanceSum(coords [][]float64) float64 {
	n := len(coords)
	return parallel.Reduce(n, 0.0,
		func(u int) float64 {
			row := 0.0
			cu := coords[u]
			for v := 0; v < n; v++ {
				if v != u {
					row += metric.PNormDist(cu, coords[v], 2)
				}
			}
			return row
		},
		func(a, b float64) float64 { return a + b })
}

// edgeWeightSum returns Σ_e w_e — for a tree metric this IS the MST
// weight of the complete closure graph: every closure edge (u,v) weighs
// the full u–v path, so by the cut property no tree edge can be beaten.
func edgeWeightSum(edges []graph.Edge) float64 {
	total := 0.0
	for _, e := range edges {
		total += e.W
	}
	return total
}

// treeClosureDistanceSum returns Σ_{u≠v} d_T(u,v) over ordered pairs in
// O(n): each tree edge e lies on the path of exactly cnt_e·(n−cnt_e)
// unordered pairs, where cnt_e is the vertex count on its child side.
func treeClosureDistanceSum(n int, edges []graph.Edge) float64 {
	head := make([]int32, n+1)
	for _, e := range edges {
		head[e.U+1]++
		head[e.V+1]++
	}
	for v := 0; v < n; v++ {
		head[v+1] += head[v]
	}
	to := make([]int32, 2*len(edges))
	ew := make([]float64, 2*len(edges))
	next := append([]int32(nil), head[:n]...)
	for _, e := range edges {
		to[next[e.U]], ew[next[e.U]] = int32(e.V), e.W
		next[e.U]++
		to[next[e.V]], ew[next[e.V]] = int32(e.U), e.W
		next[e.V]++
	}
	parent := make([]int32, n)
	parentW := make([]float64, n)
	order := make([]int32, 0, n)
	seen := make([]bool, n)
	parent[0], seen[0] = -1, true
	stack := append(make([]int32, 0, 64), 0)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		for e := head[v]; e < head[v+1]; e++ {
			c := to[e]
			if !seen[c] {
				seen[c] = true
				parent[c], parentW[c] = v, ew[e]
				stack = append(stack, c)
			}
		}
	}
	// order places every parent before its children; the reverse walk
	// accumulates subtree sizes bottom-up.
	size := make([]int64, n)
	total := 0.0
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		size[v]++
		if p := parent[v]; p >= 0 {
			size[p] += size[v]
			cnt := float64(size[v])
			total += 2 * parentW[v] * cnt * (float64(n) - cnt)
		}
	}
	return total
}
