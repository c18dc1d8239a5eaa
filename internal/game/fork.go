package game

import (
	"gncg/internal/bitset"
	"gncg/internal/parallel"
)

// Fork is a fork/join group of worker states over one parent state: the
// one primitive behind every parallel sweep of a frozen state, the
// speculative activation rounds of package dynamics and
// VerifyGreedyEquilibrium alike.
//
// Every worker shares the parent's profile: evaluation never writes a
// profile (CostAfter prices the new strategy directly), so one copy
// serves them all. Each worker owns a copy of the network, which
// CostAfter flips edges on, and a distance cache that borrows every row
// of the parent's cache instead of copying it: rows the parent already
// holds cost a worker nothing until the worker repairs one, which copies
// that row first. The parent's row budget (rowCacheCap) is split across
// the workers, so their private rows together never exceed what the
// parent alone may hold.
//
// Until Join, the parent must not be read or mutated except through the
// fork (its profile and rows are shared with the workers), and each
// worker is used by one goroutine at a time. Committed moves go through
// SetStrategy, between rounds of worker calls; the parent's own rows
// stay untouched until Join hands it the workers' current rows.
type Fork struct {
	parent  *State
	workers []*State
}

// Fork returns a fork of s with up to workers worker states (at least
// one, at most one per agent and one per row of the parent's cap).
func (s *State) Fork(workers int) *Fork {
	c := s.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	workers = max(1, min(workers, s.G.N(), c.cap))
	f := &Fork{parent: s, workers: make([]*State, workers)}
	for w := range f.workers {
		f.workers[w] = &State{G: s.G, P: s.P, net: s.net.Clone(), cache: c.borrowLocked(c.cap / workers)}
	}
	return f
}

// borrowLocked returns a worker cache over the same network positions
// as c, sharing every row c holds and privately capped at rowCap. Caller
// holds c.mu.
func (c *distCache) borrowLocked(rowCap int) *distCache {
	w := &distCache{
		head:         c.head,
		base:         c.base,
		log:          append([]edgeDelta(nil), c.log...),
		rows:         append([][]float64(nil), c.rows...),
		rowPos:       append([]uint64(nil), c.rowPos...),
		agg:          append([]rowAgg(nil), c.agg...),
		borrowed:     make([]bool, len(c.rows)),
		cap:          rowCap,
		budget:       c.budget,
		aggDirtyFlag: make([]bool, len(c.aggDirtyFlag)),
	}
	for i, row := range c.rows {
		w.borrowed[i] = row != nil
	}
	return w
}

// Size returns the number of workers.
func (f *Fork) Size() int { return len(f.workers) }

// Worker returns worker w's state.
func (f *Fork) Worker(w int) *State { return f.workers[w] }

// Each runs fn on every worker concurrently, one goroutine per worker,
// and returns once all have returned. A panic in fn is re-raised on the
// calling goroutine.
func (f *Fork) Each(fn func(w int, ws *State)) {
	parallel.ForWorkers(len(f.workers), len(f.workers), func(w int) { fn(w, f.workers[w]) })
}

// SetStrategy commits agent u's new strategy to the shared profile once,
// through the parent, and replays the parent's edge flips on every
// worker's network and cache: one strategy clone per committed move,
// whatever the worker count. It must not run concurrently with Each.
func (f *Fork) SetStrategy(u int, strat bitset.Set) {
	f.parent.SetStrategy(u, strat)
	for _, ws := range f.workers {
		ws.applyFlips(u, f.parent.flips)
	}
}

// FoldScanStats adds one worker scan's counters to the parent's. The
// workers' own counters are never folded wholesale: the caller decides
// which scans count.
func (f *Fork) FoldScanStats(d ScanStats) { f.parent.scan.add(d) }

// Join ends the fork. The parent adopts every row a worker holds current
// that the parent does not (subject to its own cap), and adds the
// workers' CacheStats to its own. The workers must not be used
// afterwards.
func (f *Fork) Join() {
	pc := f.parent.cache
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, ws := range f.workers {
		wc := ws.cache
		wc.mu.Lock()
		pc.stats.add(wc.stats)
		for i, row := range wc.rows {
			if row == nil || wc.rowPos[i] != wc.head || (pc.rows[i] != nil && pc.rowPos[i] == pc.head) {
				continue
			}
			if pc.rows[i] == nil {
				if pc.cached >= pc.cap {
					pc.evictOneLocked(i)
				}
				pc.cached++
			}
			pc.rows[i], pc.agg[i], pc.rowPos[i] = row, wc.agg[i], pc.head
		}
		wc.mu.Unlock()
	}
	f.workers = nil
}
