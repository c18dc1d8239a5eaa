package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"gncg/internal/dynamics"
	"gncg/internal/game"
	"gncg/internal/gen"
	"gncg/internal/metric"
	"gncg/internal/opt"
	"gncg/internal/stats"
)

// dynSpec is one dynamics workload: the equilibrium sweeps' cell pipeline
// (greedy round-robin dynamics to convergence, the certified OPT lower
// bound, then verification of the reached equilibrium) on a fresh
// generated host per iteration.
type dynSpec struct {
	name  string
	n     int
	host  func(seed int64, n int) metric.Space
	alpha func(n int) float64
	// path starts from a path profile (rewiring dynamics); otherwise from
	// the star centred at agent 0.
	path bool
	// exact verifies every agent with the unpruned oracle; otherwise the
	// certified verifier runs and a sample of agents is re-checked exactly.
	exact bool
	// golden is the quick-sweep cell the pipeline must reproduce at the
	// sweep's seed.
	golden goldenCell
	// digest pins the output digest of a run at seed 13.
	digest string
}

const (
	// digestPass is how many instances every run plays at least; the
	// run's output digest folds theirs.
	digestPass = 8
	// sampleAgents is the size of the exact-oracle sample of star-start
	// workloads, as in the equilibrium_xl sweep.
	sampleAgents = 48
	goldenSeed   = 13
)

func treeHost(seed int64, n int) metric.Space { return gen.Tree(seed, n, 1, 6) }
func l2Host(seed int64, n int) metric.Space   { return gen.Points(seed, n, 2, 1000, 2) }

var dynSpecs = []dynSpec{
	{
		name: "rewire_tree", n: 150, host: treeHost,
		alpha: func(n int) float64 { return float64(n) },
		path:  true, exact: true,
		golden: goldenCell{experiment: "equilibrium", host: "tree", n: 250, withLB: true},
		digest: "290b35f995d5dea2",
	},
	{
		name: "stable_l2", n: 1000, host: l2Host,
		alpha:  func(n int) float64 { return 16 * float64(n) },
		golden: goldenCell{experiment: "equilibrium", host: "l2", n: 500, withLB: true},
		digest: "cc6e027fa4e52091",
	},
	{
		name: "stable_tree", n: 1000, host: treeHost,
		alpha:  func(n int) float64 { return float64(n) },
		golden: goldenCell{experiment: "equilibrium_xl", host: "tree", n: 400},
		digest: "5e6595141d6ea638",
	},
}

// instance summarizes one played instance.
type instance struct {
	setup, wall time.Duration
	rssMB       float64 // peak resident set while the instance played
	res         dynamics.ConvergenceResult
	ver         dynamics.Verification
	verified    bool
	improving   int // sampled agents with an improving exact move
	lb          float64
	scans       int
	scan        game.ScanStats
	cache       game.CacheStats
	digest      uint64
}

// play runs the pipeline on one generated instance. With a tracer, the
// host space and the mover are wrapped and every phase is a span.
func (w dynSpec) play(seed int64, n int, tr *tracer) (instance, *game.State) {
	var in instance
	t0 := time.Now()
	id := tr.begin("setup")
	sp := w.host(seed, n)
	if tr != nil {
		sp = tr.wrapSpace(sp)
	}
	g := game.New(game.NewHost(sp), w.alpha(n))
	start := game.StarProfile(n, 0)
	if w.path {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		start = game.PathProfile(n, order)
	}
	s := game.NewState(g, start)
	sp.(metric.CandidateSource).NearestOtherDist(0) // builds the geometric index
	tr.end(id, nil)
	in.setup = time.Since(t0)

	mover := dynamics.GreedyMover
	if tr != nil {
		mover = tr.wrapMover(mover)
	}
	id = tr.begin("dynamics")
	in.res = dynamics.RunToConvergence(s, mover, dynamics.RoundRobin{},
		dynamics.Budget{MaxRounds: 32, MaxMoves: 20 * n})
	in.scans = in.res.Rounds * n
	tr.end(id, map[string]int64{"rounds": int64(in.res.Rounds), "moves": int64(in.res.Moves), "scans": int64(in.scans)})
	in.scan, in.cache = s.ScanStats(), s.CacheStats()

	id = tr.begin("opt.lower_bound")
	in.lb = opt.LowerBound(g)
	tr.end(id, nil)

	id = tr.begin("game.verify")
	in.ver, in.verified = dynamics.VerifyConvergence(in.res, s, game.VerifyOptions{Exact: w.exact})
	tr.end(id, map[string]int64{"cert_skipped": int64(in.ver.CertSkipped), "scanned": int64(in.ver.Scanned)})

	if !w.exact {
		id = tr.begin("game.verify.exact_sample")
		for _, u := range rand.New(rand.NewSource(seed)).Perm(n - 1)[:sampleAgents] {
			if _, _, improving := s.BestSingleMoveExact(u + 1); improving {
				in.improving++
			}
		}
		tr.end(id, nil)
	}
	in.wall = time.Since(t0)
	in.digest = outputDigest(in.res, in.scans, s.P)
	return in, s
}

// outputDigest folds the deterministic outcome of a run: rounds, moves,
// scans, the social cost's bits and the final purchases.
func outputDigest(res dynamics.ConvergenceResult, scans int, p game.Profile) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(uint64(res.Rounds))
	put(uint64(res.Moves))
	put(uint64(scans))
	put(math.Float64bits(res.SocialCost))
	for _, e := range p.OwnedEdges() {
		put(uint64(e.Owner))
		put(uint64(e.To))
	}
	return h.Sum64()
}

// check verifies one instance's outputs. full adds an independent
// recomputation of the social cost from scratch.
func (w dynSpec) check(in instance, s *game.State, full bool, ck *checks) {
	ck.expect(in.res.Outcome == dynamics.Converged, "%s: dynamics %s after %d rounds", w.name, in.res.Outcome, in.res.Rounds)
	ck.expect(in.verified && in.ver.Stable, "%s: verifier found agent %d improving", w.name, in.ver.FirstImproving)
	if !w.exact {
		ck.expect(in.improving == 0, "%s: %d sampled agents improve under the exact oracle", w.name, in.improving)
	}
	// An equilibrium that is optimal meets the bound, up to the rounding
	// of two different summation orders.
	ck.expect(in.lb > 0 && in.lb <= in.res.SocialCost*(1+1e-12), "%s: lower bound %v vs social cost %v", w.name, in.lb, in.res.SocialCost)
	if full {
		fresh := game.NewState(s.G, s.P.Clone()).SocialCost()
		ck.expect(fresh == in.res.SocialCost, "%s: social cost %v, recomputed %v", w.name, in.res.SocialCost, fresh)
	}
}

// runDynamics measures workload w for the window and returns its metrics:
// the end-to-end set untraced, the per-layer set traced. A traced run
// plays every instance twice, plain and traced, in alternating order, so
// the tracing overhead and digest equality come from identical inputs.
func runDynamics(w dynSpec, cfg config, ck *checks) (map[string]float64, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	seeds := rand.New(rand.NewSource(cfg.seed))
	runDigest := fnv.New64a()
	var plain, traced []instance
	iters, err := measure(cfg.window, digestPass, func(i int) error {
		seed := seeds.Int63()
		playPlain := func() error {
			if err := resetPeakRSS(); err != nil {
				return err
			}
			in, s := w.play(seed, w.n, nil)
			var err error
			if in.rssMB, err = peakRSSMB(); err != nil {
				return err
			}
			w.check(in, s, i < digestPass, ck)
			plain = append(plain, in)
			return nil
		}
		playTraced := func() {
			tr.setRun(i)
			in, _ := w.play(seed, w.n, tr)
			traced = append(traced, in)
		}
		if cfg.trace && i%2 == 1 {
			playTraced()
		}
		if err := playPlain(); err != nil {
			return fmt.Errorf("peak resident set: %w", err)
		}
		if cfg.trace && i%2 == 0 {
			playTraced()
		}
		if cfg.trace {
			a, b := plain[len(plain)-1].digest, traced[len(traced)-1].digest
			ck.expect(a == b, "%s: traced digest %016x differs from untraced %016x", w.name, b, a)
		}
		if i < digestPass {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], plain[i].digest)
			runDigest.Write(b[:])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	digest := fmt.Sprintf("%016x", runDigest.Sum64())
	info("iterations", iters)
	info("output_digest", digest)
	if cfg.seed == goldenSeed {
		ck.expect(digest == w.digest, "%s: seed-%d output digest %s, pinned %s", w.name, goldenSeed, digest, w.digest)
	}
	if err := w.checkGolden(cfg.root, ck); err != nil {
		return nil, err
	}

	wall := func(in instance) float64 { return in.wall.Seconds() }
	if cfg.trace {
		m := dynLayers(w.n, traced, tr.snapshot())
		m["trace.overhead_frac"] = median(traced, wall)/median(plain, wall) - 1
		return m, tr.writeJSONL(traceFile(cfg.buildDir, w.name, cfg.seed))
	}
	return map[string]float64{
		"setup_s":     median(plain, func(in instance) float64 { return in.setup.Seconds() }),
		"wall_s":      median(plain, wall),
		"work_per_s":  median(plain, func(in instance) float64 { return float64(in.scans) / in.res.Elapsed.Seconds() }),
		"peak_rss_mb": median(plain, func(in instance) float64 { return in.rssMB }),
	}, nil
}

// checkGolden replays the workload's pipeline on its quick-sweep cell and
// compares the result with the cell's recorded fields.
func (w dynSpec) checkGolden(root string, ck *checks) error {
	want, err := w.golden.record(root)
	if err != nil {
		return err
	}
	in, _ := w.play(goldenSeed, w.golden.n, nil)
	got := map[string]any{
		"outcome": in.res.Outcome.String(), "rounds": in.res.Rounds, "moves": in.res.Moves,
		"social_cost": in.res.SocialCost,
	}
	if w.golden.withLB {
		got["opt_lb"] = in.lb
	}
	w.golden.compare(want, got, ck)
	ck.expect(in.verified && in.ver.Stable && in.improving == 0, "%s: golden cell %s not verified stable", w.name, w.golden)
	return nil
}

// dynLayers folds the traced instances and their spans into the
// per-layer metrics, as means per instance; ratios divide sums.
func dynLayers(n int, traced []instance, spans []span) map[string]float64 {
	k := float64(len(traced))
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var (
		dynBusy, dynSelf, scanBusy, verifyBusy, sampleBusy, lbBusy time.Duration
		withinBusy, withinVerify, nearestBusy                      time.Duration
		withinCalls, nearestCalls, returned                        int64
		scanUS, withinUS                                           []float64
	)
	for _, s := range spans {
		d := s.dur()
		switch s.Name {
		case "dynamics":
			dynBusy += d
			dynSelf += selfTime(s, children[s.ID])
		case "game.scan":
			scanBusy += d
			scanUS = append(scanUS, float64(d)/1e3)
		case "game.verify":
			verifyBusy += d
		case "game.verify.exact_sample":
			sampleBusy += d
		case "opt.lower_bound":
			lbBusy += d
		case "metric.within":
			withinBusy += d
			withinCalls++
			returned += s.Counts["returned"]
			withinUS = append(withinUS, float64(d)/1e3)
			if s.Parent > 0 && spans[s.Parent-1].Name == "game.verify" {
				withinVerify += d
			}
		case "metric.nearest":
			nearestBusy += d
			nearestCalls++
		}
	}
	var rounds, moves, scans, skipped, scanned, workers float64
	var sc game.ScanStats
	var cc game.CacheStats
	for _, in := range traced {
		rounds += float64(in.res.Rounds)
		moves += float64(in.res.Moves)
		scans += float64(in.scans)
		skipped += float64(in.ver.CertSkipped)
		scanned += float64(in.ver.Scanned)
		workers = float64(in.ver.Workers)
		sc.CandidateScans += in.scan.CandidateScans
		sc.CandidatesScanned += in.scan.CandidatesScanned
		sc.ExcessSkips += in.scan.ExcessSkips
		sc.ExhaustiveScans += in.scan.ExhaustiveScans
		sc.Fallbacks += in.scan.Fallbacks
		cc.Hits += in.cache.Hits
		cc.Misses += in.cache.Misses
		cc.BatchRepairs += in.cache.BatchRepairs
		cc.RepairRefusals += in.cache.RepairRefusals
		cc.Evictions += in.cache.Evictions
	}
	return map[string]float64{
		"dynamics.busy_s":          dynBusy.Seconds() / k,
		"dynamics.self_s":          dynSelf.Seconds() / k,
		"dynamics.rounds":          rounds / k,
		"dynamics.moves":           moves / k,
		"dynamics.scans":           scans / k,
		"dynamics.improving_ratio": ratio(moves, scans),

		"game.scan.busy_s":             scanBusy.Seconds() / k,
		"game.scan.p50_us":             quantile(scanUS, 0.5),
		"game.scan.p99_us":             quantile(scanUS, 0.99),
		"game.scan.candidate_scans":    float64(sc.CandidateScans) / k,
		"game.scan.candidates_scanned": float64(sc.CandidatesScanned) / k,
		"game.scan.excess_skips":       float64(sc.ExcessSkips) / k,
		"game.scan.exhaustive_scans":   float64(sc.ExhaustiveScans) / k,
		"game.scan.fallbacks":          float64(sc.Fallbacks) / k,
		"game.scan.enumerated_frac":    ratio(float64(sc.CandidatesScanned), float64(sc.CandidateScans)*float64(n)),

		"game.cache.hits":            float64(cc.Hits) / k,
		"game.cache.misses":          float64(cc.Misses) / k,
		"game.cache.batch_repairs":   float64(cc.BatchRepairs) / k,
		"game.cache.repair_refusals": float64(cc.RepairRefusals) / k,
		"game.cache.evictions":       float64(cc.Evictions) / k,
		"game.cache.hit_ratio":       ratio(float64(cc.Hits), float64(cc.Hits+cc.Misses)),
		"game.cache.refusal_ratio":   ratio(float64(cc.RepairRefusals), float64(cc.BatchRepairs)),

		"game.verify.busy_s":          verifyBusy.Seconds() / k,
		"game.verify.cert_skipped":    skipped / k,
		"game.verify.scanned":         scanned / k,
		"game.verify.cert_skip_ratio": ratio(skipped, skipped+scanned),
		"game.verify.workers":         workers,
		"game.verify.exact_sample_s":  sampleBusy.Seconds() / k,

		"metric.within.calls":         float64(withinCalls) / k,
		"metric.within.busy_s":        withinBusy.Seconds() / k,
		"metric.within.verify_busy_s": withinVerify.Seconds() / k,
		"metric.within.p99_us":        quantile(withinUS, 0.99),
		"metric.within.returned_mean": ratio(float64(returned), float64(withinCalls)),
		"metric.nearest.calls":        float64(nearestCalls) / k,
		"metric.nearest.busy_s":       nearestBusy.Seconds() / k,

		"opt.lower_bound_s": lbBusy.Seconds() / k,
	}
}

func median[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return quantile(v, 0.5)
}

// quantile is stats.Quantile, with 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
