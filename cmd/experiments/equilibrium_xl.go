package main

import (
	"fmt"

	"gncg/internal/dynamics"
	"gncg/internal/game"
	"gncg/internal/gen"
	"gncg/internal/opt"
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
// The certified OPT lower bound α·MST(H) + Σ_{u≠v} d_H(u,v) is
// opt.LowerBound's, taken after the dynamics as in the equilibrium
// ladder: by then the scans have cached every agent's host-floor row on
// the Game, so the distance term is an O(n) fold, and the MST term is
// the defining tree's edge sum on tree hosts (metric.MSTWeighter) and an
// O(n²) Prim pass over the points on ℓ2 hosts.

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
			"opt_lb is opt.LowerBound: the distance term folds the host-floor rows the " +
			"scans cached, and the MST term is the defining tree's edge sum on tree " +
			"hosts (it is an MST of its own closure) and a Prim pass on l2 hosts.",
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
				h     *game.Host
				alpha float64
			)
			switch class {
			case "l2":
				h, alpha = game.NewHost(gen.Points(13, n, 2, 1000, 2)), 16*float64(n)
			case "tree":
				h, alpha = game.NewHost(gen.Tree(13, n, 1, 6)), float64(n)
			default:
				panic(fmt.Sprintf("unknown equilibrium_xl host class %q", class))
			}
			g := game.New(h, alpha)
			s := game.NewState(g, game.StarProfile(n, 0))
			res := dynamics.RunToConvergence(s, dynamics.GreedyMover, dynamics.RoundRobin{}, ladderBudget(n))
			// Scan telemetry of the convergence run alone: verification
			// scans on the workers of a game.Fork, whose scan counters are
			// never folded into s, and the exact-oracle sample runs
			// unpruned scans, which never count.
			scan := s.ScanStats()
			lb := opt.LowerBound(g)

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
