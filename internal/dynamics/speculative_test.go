package dynamics

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"gncg/internal/bitset"
	"gncg/internal/game"
	"gncg/internal/gen"
	"gncg/internal/graph"
	"gncg/internal/metric"
	"gncg/internal/rules"
)

// serialActivate is the activation loop as it ran before rounds were
// played speculatively: one mover call per schedule position, on s
// itself, on the calling goroutine. It is the reference activate is
// pinned against (WallClock is left out: a run it cuts is
// timing-dependent either way).
func serialActivate(s *game.State, mover Mover, sched Scheduler, b Budget, onMove func(u int, strat bitset.Set) bool) ConvergenceResult {
	n := s.G.N()
	res := ConvergenceResult{Outcome: Exhausted}
	cut := func() bool { return b.MaxMoves > 0 && res.Moves >= b.MaxMoves }
	for !cut() {
		if b.MaxRounds > 0 && res.Rounds >= b.MaxRounds {
			break
		}
		res.Rounds++
		moved := false
		for _, u := range sched.Order(res.Rounds, n) {
			if cut() {
				break
			}
			strat, ok := mover(s, u)
			if !ok {
				continue
			}
			s.SetStrategy(u, strat)
			res.Moves++
			moved = true
			if onMove != nil && onMove(u, strat) {
				res.Outcome = CycleDetected
				return res
			}
		}
		if !moved && !cut() {
			res.Outcome = Converged
			break
		}
	}
	return res
}

// serialRun is Run over serialActivate.
func serialRun(s *game.State, mover Mover, sched Scheduler, maxMoves int) Result {
	res := Result{Outcome: Exhausted}
	seen := map[uint64][]seenEntry{}
	record := func(moveIdx int) (int, bool) {
		h := s.P.Hash()
		for _, e := range seen[h] {
			if e.profile.Equal(s.P) {
				return e.moveIdx, true
			}
		}
		seen[h] = append(seen[h], seenEntry{moveIdx: moveIdx, profile: s.P.Clone()})
		return 0, false
	}
	record(0)
	cr := serialActivate(s, mover, sched, Budget{MaxMoves: maxMoves}, func(u int, strat bitset.Set) bool {
		res.History = append(res.History, Trace{Agent: u, Strategy: strat.Elems()})
		at, dup := record(len(res.History))
		if dup {
			res.CycleStart, res.CycleLen = at, len(res.History)-at
		}
		return dup
	})
	res.Outcome, res.Moves, res.Rounds = cr.Outcome, cr.Moves, cr.Rounds
	return res
}

// runDigest is everything deterministic a run leaves behind.
type runDigest struct {
	Result
	CostBits uint64
	Scan     game.ScanStats
	Profile  []game.OwnedEdge
}

func digestOf(res Result, s *game.State, cost float64) runDigest {
	return runDigest{Result: res, CostBits: math.Float64bits(cost), Scan: s.ScanStats(), Profile: s.P.OwnedEdges()}
}

// specCase is one run configuration, played through both loops.
type specCase struct {
	g      *game.Game
	start  game.Profile
	mover  Mover
	sched  func() Scheduler
	budget int // moves; <= 0 is unlimited (RunToConvergence) or 1<<20 (Run)
}

// serial and speculative play c through Run (run) or RunToConvergence.
func (c specCase) serial(run bool) runDigest {
	s := game.NewState(c.g, c.start.Clone())
	if run {
		return digestOf(serialRun(s, c.mover, c.sched(), c.runBudget()), s, s.SocialCost())
	}
	cr := serialActivate(s, c.mover, c.sched(), c.convBudget(), nil)
	return digestOf(Result{Outcome: cr.Outcome, Moves: cr.Moves, Rounds: cr.Rounds}, s, s.SocialCost())
}

func (c specCase) speculative(run bool) runDigest {
	s := game.NewState(c.g, c.start.Clone())
	if run {
		return digestOf(Run(s, c.mover, c.sched(), c.runBudget()), s, s.SocialCost())
	}
	cr := RunToConvergence(s, c.mover, c.sched(), c.convBudget())
	return digestOf(Result{Outcome: cr.Outcome, Moves: cr.Moves, Rounds: cr.Rounds}, s, cr.SocialCost)
}

func (c specCase) runBudget() int {
	if c.budget <= 0 {
		return 1 << 20
	}
	return c.budget
}

// convBudget caps rounds so dynamics that cycle still end.
func (c specCase) convBudget() Budget { return Budget{MaxRounds: 64, MaxMoves: max(c.budget, 0)} }

// checkSpeculative plays c serially once and speculatively under every
// GOMAXPROCS setting, through both entry points, and fails on the first
// difference.
func checkSpeculative(t *testing.T, name string, c specCase, procs []int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, run := range []bool{false, true} {
		want := c.serial(run)
		for _, p := range procs {
			runtime.GOMAXPROCS(p)
			if got := c.speculative(run); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s run=%v GOMAXPROCS=%d:\nspeculative %+v\nserial      %+v", name, run, p, got, want)
			}
		}
	}
}

// TestSpeculativeRoundMatchesSerial pins activate's speculative rounds
// to the serial loop: outcome, rounds, moves, History, the final
// profile, the social cost's bits and the ScanStats agree exactly, for
// every host class, mover, scheduler, move budget (cuts in the middle of
// a round included) and worker count. At n = 70 the quiet rounds grow
// windows well past the worker count.
func TestSpeculativeRoundMatchesSerial(t *testing.T) {
	hosts := map[string]func(n int) *game.Host{
		"points": func(n int) *game.Host { return game.NewHost(gen.Points(11, n, 2, 10, 2)) },
		"tree":   func(n int) *game.Host { return game.NewHost(gen.Tree(11, n, 1, 5)) },
		"unit":   func(n int) *game.Host { return game.NewHost(metric.Unit{N: n}) },
		"onetwo": func(n int) *game.Host { return game.NewHost(gen.OneTwo(11, n, 0.4)) },
	}
	movers := map[string]Mover{"greedy": GreedyMover, "addonly": AddOnlyMover, "br": BestResponseMover}
	scheds := map[string]func() Scheduler{
		"rr":     func() Scheduler { return RoundRobin{} },
		"random": func() Scheduler { return RandomOrder{Rng: rand.New(rand.NewSource(5))} },
	}
	procs := []int{1, 2, 3, 8}
	for _, n := range []int{3, 6, 9, 70} {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		// Rewiring from a path at n <= 9. At n = 70 a star with alpha = n
		// is stable on most hosts, and on the point host greedy dynamics
		// make a few moves far into rounds whose windows have grown.
		start, alpha := game.PathProfile(n, order), 1.5
		if n == 70 {
			start, alpha = game.StarProfile(n, 0), float64(n)
		}
		for hostName, host := range hosts {
			g := game.New(host(n), alpha)
			for moverName, mover := range movers {
				if moverName == "br" && n > 7 {
					continue // exact best responses are exponential in n
				}
				for schedName, sched := range scheds {
					for _, budget := range []int{1, 5, 11, 0} {
						name := fmt.Sprintf("n=%d/%s/%s/%s/budget=%d", n, hostName, moverName, schedName, budget)
						checkSpeculative(t, name, specCase{g: g, start: start, mover: mover, sched: sched, budget: budget}, procs)
					}
				}
			}
		}
	}
}

// fuzzCoords is the palette FuzzSpeculativeRound draws tree edge
// weights and point coordinates from: zeros, sums that tie only up to an
// ulp (0.1+0.2 against 0.3) and a near-tie 2^-40 apart, so the agents'
// best moves tie or nearly tie and the commit order decides the run.
var fuzzCoords = []float64{0, 0, 0.1, 0.2, 0.3, 1, 1 + 0x1p-40, 2, 3, 7.25}

// FuzzSpeculativeRound fuzzes activate against serialActivate: under
// any GOMAXPROCS, RunToConvergence and Run must leave the bit-identical
// outcome, rounds, moves, History, profile, social cost and ScanStats.
//
// The data bytes decode, in order, into a header (bit 0: a tree host or
// ℓ2 points; bit 1: a star start, else a path; bit 2: a random order,
// else round-robin; n = 2 + (hdr>>3) % 15), then one byte pair per
// vertex (a tree vertex's parent and edge weight, unused for the root,
// or a point's two coordinates), then one bit per ordered agent pair that toggles that
// purchase; missing bytes read as zero. alpha is folded into
// [0, 16n+1), budget 0 is unlimited, procs' low three bits pick
// GOMAXPROCS in [1, 8], and its high bits (procs>>3) the cost model:
// sum, budget (alpha is then each agent's budget, and the feasibility
// predicate reads the workers' shared profile) or unit.
//
//	go test -run '^$' -fuzz FuzzSpeculativeRound -fuzztime 30s ./internal/dynamics/
func FuzzSpeculativeRound(f *testing.F) {
	f.Add([]byte{0x51, 0, 3, 1, 4, 0, 2, 2, 5, 1, 6}, 4.0, uint8(0), uint8(1))
	f.Add([]byte{0x62, 1, 1, 2, 2, 3, 3, 0, 6, 5, 0, 9, 9, 0x24, 0x81}, 10.0, uint8(5), uint8(2))
	f.Add([]byte{0x7f, 0, 0, 0, 2, 1, 3, 2, 4, 3, 5, 0xff, 0x0f}, 200.0, uint8(11), uint8(7))
	f.Add([]byte{0x33, 0, 0, 0, 2, 1, 3, 2, 4, 3, 5, 0, 6, 1, 7}, 6.0, uint8(0), uint8(1<<3|1))
	f.Add([]byte{0x48, 1, 2, 3, 1, 5, 0, 2, 8, 9, 4, 0, 3, 7, 2, 6, 1, 0x11, 0x42}, 1.5, uint8(0), uint8(2<<3|2))
	f.Fuzz(func(t *testing.T, data []byte, alpha float64, budget, procs uint8) {
		read := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		hdr := read()
		n := 2 + int(hdr>>3)%15
		var sp metric.Space
		if hdr&1 != 0 {
			edges := make([]graph.Edge, 0, n-1)
			read()
			read()
			for v := 1; v < n; v++ {
				p := int(read()) % v
				edges = append(edges, graph.Edge{U: p, V: v, W: fuzzCoords[int(read())%len(fuzzCoords)]})
			}
			tm, err := metric.NewTreeMetric(n, edges)
			if err != nil {
				t.Fatal(err)
			}
			sp = tm
		} else {
			coords := make([][]float64, n)
			for i := range coords {
				coords[i] = []float64{fuzzCoords[int(read())%len(fuzzCoords)], fuzzCoords[int(read())%len(fuzzCoords)]}
			}
			ps, err := metric.NewPoints(coords, 2)
			if err != nil {
				t.Fatal(err)
			}
			sp = ps
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		start := game.PathProfile(n, order)
		if hdr&2 != 0 {
			start = game.StarProfile(n, 0)
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
					if start.Buys(u, v) {
						start.Unbuy(u, v)
					} else {
						start.Buy(u, v)
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
		sched := func() Scheduler { return RoundRobin{} }
		if hdr&4 != 0 {
			sched = func() Scheduler { return RandomOrder{Rng: rand.New(rand.NewSource(int64(hdr)))} }
		}
		models := []game.Rules{game.SumRules{}, rules.Budget{}, rules.Unit{}}
		g := game.NewWithRules(game.NewHost(sp), alpha, models[int(procs>>3)%len(models)])
		c := specCase{g: g, start: start, mover: GreedyMover, sched: sched, budget: int(budget % 24)}
		checkSpeculative(t, fmt.Sprintf("n=%d %s alpha=%v hdr=%#x budget=%d", n, g.Rules().Name(), alpha, hdr, c.budget), c, []int{1 + int(procs)%8})
	})
}

// TestSpeculativeWindowPanicReachesCaller: a mover that panics on a
// worker goroutine, inside a window several positions wide, panics the
// caller of RunToConvergence with the mover's value, and leaves the
// state usable.
func TestSpeculativeWindowPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// A stable star: one quiet round, whose windows cover positions
	// {0}, {1, 2}, {3, 4, 5, 6} and {7}.
	g := game.New(game.NewHost(metric.Unit{N: 8}), 4)
	s := game.NewState(g, game.StarProfile(8, 0))
	want := s.SocialCost()
	mover := func(st *game.State, u int) (bitset.Set, bool) {
		if u == 5 {
			panic("mover failed on agent 5")
		}
		return GreedyMover(st, u)
	}
	func() {
		defer func() {
			if r := recover(); r != "mover failed on agent 5" {
				t.Fatalf("recovered %v, want the mover's panic", r)
			}
		}()
		RunToConvergence(s, mover, RoundRobin{}, Budget{})
		t.Fatal("RunToConvergence returned normally")
	}()
	if got := s.SocialCost(); got != want {
		t.Fatalf("social cost after the panic %v, want %v", got, want)
	}
}
