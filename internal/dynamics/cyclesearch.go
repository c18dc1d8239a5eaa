package dynamics

import (
	"math/rand"
	"sync"

	"gncg/internal/bitset"
	"gncg/internal/game"
	"gncg/internal/parallel"
)

// CycleSearchConfig controls the randomized search for improving-move
// cycles (the machine-checkable content of Thms 14 and 17: the games do
// not have the finite improvement property).
type CycleSearchConfig struct {
	Restarts    int     // number of random initial profiles
	MaxMoves    int     // move budget per restart
	EdgeProb    float64 // probability an agent buys a given edge initially
	Seed        int64
	UseGreedy   bool // use GreedyMover instead of exact best responses
	RandomSched bool // random agent order instead of round-robin
}

// CycleWitness is a machine-verified improving-move cycle: starting from
// Initial and applying Moves in order, the strategy profile after move
// CycleStart recurs after CycleLen further moves. Every move in the
// history strictly improved its mover's cost, so the cycle certifies a
// violation of the finite improvement property.
type CycleWitness struct {
	Initial    game.Profile
	Moves      []Trace
	CycleStart int
	CycleLen   int
	Restart    int // which restart found it
}

// FindCycle searches for an improving-move cycle in game g. Restarts run
// in parallel; the witness from the lowest-numbered successful restart is
// returned for determinism. Returns ok=false if no cycle surfaced within
// the budget — which is evidence of nothing (dynamics may simply have
// converged), matching the one-sided nature of FIP refutation.
func FindCycle(g *game.Game, cfg CycleSearchConfig) (CycleWitness, bool) {
	type hit struct {
		witness CycleWitness
		ok      bool
	}
	var mu sync.Mutex
	best := hit{}
	parallel.For(cfg.Restarts, func(r int) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(r)*1_000_003))
		p := randomProfile(rng, g.N(), cfg.EdgeProb)
		s := game.NewState(g, p.Clone())
		mover := BestResponseMover
		if cfg.UseGreedy {
			mover = GreedyMover
		}
		var sched Scheduler = RoundRobin{}
		if cfg.RandomSched {
			sched = RandomOrder{Rng: rng}
		}
		res := Run(s, mover, sched, cfg.MaxMoves)
		if res.Outcome != CycleDetected {
			return
		}
		w := CycleWitness{
			Initial:    p,
			Moves:      res.History,
			CycleStart: res.CycleStart,
			CycleLen:   res.CycleLen,
			Restart:    r,
		}
		mu.Lock()
		if !best.ok || r < best.witness.Restart {
			best = hit{witness: w, ok: true}
		}
		mu.Unlock()
	})
	return best.witness, best.ok
}

// VerifyCycle replays a witness and checks every move strictly improved
// its mover and that the profile really recurs. It is the independent
// validation pass applied to every cycle the search reports. A malformed
// witness — a cycle outside the history, an agent or strategy element
// outside [0, n), an initial profile not of g's n agents — is rejected,
// never a panic.
func VerifyCycle(g *game.Game, w CycleWitness) bool {
	n := g.N()
	if !wellFormed(w.Initial, n) || w.CycleStart < 0 || w.CycleLen <= 0 || w.CycleStart+w.CycleLen > len(w.Moves) {
		return false
	}
	s := game.NewState(g, w.Initial.Clone())
	snapshots := []game.Profile{s.P.Clone()}
	for _, tr := range w.Moves {
		if tr.Agent < 0 || tr.Agent >= n {
			return false
		}
		strat := bitset.New(n)
		for _, v := range tr.Strategy {
			if v < 0 || v >= n || v == tr.Agent {
				return false
			}
			strat.Add(v)
		}
		before := s.Cost(tr.Agent)
		s.SetStrategy(tr.Agent, strat)
		if !g.Improves(s.Cost(tr.Agent), before) {
			return false
		}
		snapshots = append(snapshots, s.P.Clone())
	}
	return snapshots[w.CycleStart].Equal(snapshots[w.CycleStart+w.CycleLen])
}

func randomProfile(rng *rand.Rand, n int, p float64) game.Profile {
	prof := game.EmptyProfile(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				prof.Buy(u, v)
			}
		}
	}
	return prof
}
