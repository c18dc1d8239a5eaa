package game

import (
	"sync"

	"gncg/internal/graph"
)

// distCache memoizes shortest-path computations on the created network
// G(s): per-source Dijkstra rows (backing DistCost/Cost/SocialCost) and
// the per-row traffic-weighted distance-sum aggregates that make repeated
// cost queries O(1) (see aggregate.go).
//
// The cache is lazy: an applied edge change never touches a cached row.
// Every single-edge mutation appends one delta to a bounded log and
// advances the head position; a row carries the position it was last
// valid at and is brought current on its next read by collapsing the
// pending deltas into a net edge diff and repairing the row across that
// diff in one batch (graph.RepairRowBatch — Ramalingam–Reps removals
// against the pre-addition graph, then a shared insertion wavefront).
// A repaired row is bit-identical to a fresh Dijkstra on the current
// network, so laziness is unobservable in values. Rows that fall behind
// the log's compaction horizon, or whose removal repair exceeds its
// budget, are dropped and recomputed on demand. Bulk strategy
// replacements bump: the log is discarded and every row expires.
//
// Speculative evaluation never writes the cache: CostAfter repairs a
// scratch copy of the mover's current row across the move's edge flips
// (see State.speculativeDistCost), so no delta is logged, the head never
// moves and every row current before the call is current after it.
//
// Cached rows are capped (rowCacheCap) so the cache holds O(cap·n)
// floats, not O(n²), at scale; a clock sweep evicts stale rows first.
// The cap and the removal-repair budget are per-cache fields, set from
// n when the cache is made; tests lower them on the State they build.
// Eviction and laziness change which queries are cache hits but never
// their values, so results stay byte-deterministic under any schedule.
//
// The cache is safe for concurrent read-side use (parallel cost queries
// on distinct sources, as in IsNash and TotalDistCost); mutation of the
// state itself remains single-threaded, as documented on State. Because
// repair rewrites rows in place, a slice returned by Dist is only valid
// until the state's next mutation.
//
// A fork worker's cache (see fork.go) starts out borrowing every row of
// its parent's cache: the slices are shared, never written, and do not
// count against the worker's cap. The first repair of a borrowed row
// copies it into a private buffer (ownRowLocked), so the parent's rows
// stay bit-for-bit what they were when the fork was made.
type distCache struct {
	mu sync.Mutex

	// Delta-log positions. head counts every network change ever applied
	// (one per single-edge delta, one per bump); log[i] is the delta that
	// took the network from position base+i to base+i+1, so the log
	// covers (base, head] and len(log) == head-base. base advances on
	// compaction and jumps to head on bump.
	head uint64
	base uint64
	log  []edgeDelta

	rows     [][]float64
	rowPos   []uint64
	agg      []rowAgg
	borrowed []bool // rows shared read-only with a fork's parent; nil outside forks
	cached   int    // non-nil private rows
	cap      int    // max cached private rows
	budget   int    // affected-set budget of a removal repair
	clock    int    // eviction sweep pointer

	// Dirty-block scratch for aggregate maintenance (see aggregate.go).
	aggDirty     []int
	aggDirtyFlag []bool

	// CostAfter's scratch copy of the mover's row and its block sums.
	specRow    []float64
	specBlocks []float64

	// pendingDiff's reused collapse buffers.
	diffFlips              []pendingFlip
	diffRemoved, diffAdded []graph.Edge

	// The working memory of every repair and refusal row run under mu.
	scratch graph.Scratch

	stats CacheStats
}

// CacheStats counts distance-cache events over a state's lifetime — the
// observability the ROADMAP's eviction-policy question needs answered
// with data rather than intuition. Counters are exact under
// single-threaded use. Under concurrent read-side use, racing readers of
// the same cold row each count a miss (each really ran a Dijkstra), so
// which reads hit depends on timing. Fork.Join adds its workers'
// counters, so after dynamics.RunToConvergence or
// VerifyGreedyEquilibrium they also count the speculative scans the
// activation round discarded, and how many of those ran depends on
// timing too. Sweeps feeding the byte-identical results contract must
// therefore record counters only from a fresh Clone probed
// sequentially.
type CacheStats struct {
	// Hits counts warm answers: O(1) aggregate reads and current- or
	// repaired-row reads that avoided a fresh Dijkstra.
	Hits uint64
	// Misses counts fresh Dijkstra recomputations (cold rows, rows behind
	// the log horizon, and rows whose repair refused).
	Misses uint64
	// BatchRepairs counts stale rows brought current in place across a
	// non-empty collapsed delta diff (graph.RepairRowBatch calls).
	BatchRepairs uint64
	// RepairRefusals counts repairs that exceeded their affected-set
	// budget: the row was dropped and recomputed instead.
	RepairRefusals uint64
	// Evictions counts rows dropped by the capacity clock sweep.
	Evictions uint64
	// Capacity is the row-cache cap the state was created with (not a
	// counter; filled by State.CacheStats for context).
	Capacity int
}

// add folds d's counters into st (Capacity is not a counter).
func (st *CacheStats) add(d CacheStats) {
	st.Hits += d.Hits
	st.Misses += d.Misses
	st.BatchRepairs += d.BatchRepairs
	st.RepairRefusals += d.RepairRefusals
	st.Evictions += d.Evictions
}

// CacheStats returns a snapshot of the distance cache's event counters.
func (s *State) CacheStats() CacheStats {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	st := s.cache.stats
	st.Capacity = s.cache.cap
	return st
}

// edgeDelta is one logged single-edge network change.
type edgeDelta struct {
	u, v int
	w    float64
	add  bool
}

// maxPendingDeltas bounds the delta log. A row further behind than the
// log's horizon cannot be replayed and recomputes from scratch; past a
// hundred or so collapsed deltas the batch repair would approach the
// price of a fresh Dijkstra anyway.
const maxPendingDeltas = 96

// rowCacheCap returns the maximum number of cached distance rows for an
// n-agent state: every row up to a ~256 MiB row budget, so small and
// mid-size states cache everything and a 10k-agent state holds a few
// thousand rows instead of an 800 MB dense matrix.
func rowCacheCap(n int) int {
	if n <= 0 {
		return 1
	}
	c := (256 << 20) / (8 * n)
	if c < 64 {
		c = 64
	}
	if c > n {
		c = n
	}
	return c
}

func newDistCache(n int) *distCache {
	return &distCache{
		rows:         make([][]float64, n),
		rowPos:       make([]uint64, n),
		agg:          make([]rowAgg, n),
		cap:          rowCacheCap(n),
		budget:       graph.DefaultRepairBudget(n),
		aggDirtyFlag: make([]bool, (n+aggBlock-1)/aggBlock),
	}
}

// bump marks the network as changed in a way no logged delta describes:
// all cached entries expire and nothing older than the bump can ever be
// replayed.
func (c *distCache) bump() {
	c.mu.Lock()
	c.head++
	c.base = c.head
	c.log = c.log[:0]
	c.mu.Unlock()
}

// edgeChanged records the insertion (added=true) or deletion of edge
// (u,v,w) in net, which the caller has already mutated. O(1): no cached
// row is touched — each repairs itself against the log on its next read.
func (c *distCache) edgeChanged(u, v int, w float64, added bool) {
	c.mu.Lock()
	c.head++
	c.log = append(c.log, edgeDelta{u: u, v: v, w: w, add: added})
	if len(c.log) > maxPendingDeltas {
		drop := len(c.log) - maxPendingDeltas
		c.base += uint64(drop)
		c.log = append(c.log[:0], c.log[drop:]...)
	}
	c.mu.Unlock()
}

// pendingDiff collapses the logged deltas after position pos into the net
// edge difference between the network at pos and the current network: a
// pair flipped an even number of times cancels entirely (e.g. a move and
// its exact undo), an odd number of times appears once, on the side of
// its final flip. Order follows first appearance in the log, keeping
// replay deterministic. Pairs are deduplicated by a linear scan (the log
// holds at most maxPendingDeltas entries), and the flips and both
// returned lists live in buffers the cache reuses, valid until the next
// call. Caller holds c.mu; pos must be within the log's horizon
// (pos >= base).
func (c *distCache) pendingDiff(pos uint64) (removed, added []graph.Edge) {
	c.diffFlips = c.diffFlips[:0]
next:
	for _, d := range c.log[pos-c.base:] {
		for j := range c.diffFlips {
			if f := &c.diffFlips[j]; (f.e.U == d.u && f.e.V == d.v) || (f.e.U == d.v && f.e.V == d.u) {
				f.net = !f.net
				f.add = d.add
				continue next
			}
		}
		c.diffFlips = append(c.diffFlips, pendingFlip{e: graph.Edge{U: d.u, V: d.v, W: d.w}, add: d.add, net: true})
	}
	removed, added = c.diffRemoved[:0], c.diffAdded[:0]
	for _, f := range c.diffFlips {
		if !f.net {
			continue
		}
		if f.add {
			added = append(added, f.e)
		} else {
			removed = append(removed, f.e)
		}
	}
	c.diffRemoved, c.diffAdded = removed, added
	return removed, added
}

// pendingFlip is one pair of pendingDiff's collapse: its first logged
// edge, the side of its last flip, and whether its presence differs from
// the row's network.
type pendingFlip struct {
	e   graph.Edge
	add bool
	net bool
}

// replayRowLocked brings cached row i from its position to the current
// head by batch-repairing it across the pending net diff, maintaining its
// distance-sum aggregate incrementally (dirty blocks only). Returns false
// if the repair refused (budget) — the row is dropped and the caller
// should recompute. Caller holds c.mu and has checked rowPos[i] >= base.
func (c *distCache) replayRowLocked(s *State, i int) bool {
	removed, added := c.pendingDiff(c.rowPos[i])
	if len(removed)+len(added) > 0 {
		c.ownRowLocked(i)
		row := c.rows[i]
		mark := c.beginAggMark()
		if !s.net.RepairRowBatch(&c.scratch, row, i, removed, added, c.budget, mark) {
			c.clearAggScratch()
			c.dropRowLocked(i)
			c.stats.RepairRefusals++
			return false
		}
		c.stats.BatchRepairs++
		c.agg[i].total = c.refoldLocked(s, i, row, c.agg[i].blocks)
	}
	c.rowPos[i] = c.head
	return true
}

func (c *distCache) isBorrowed(i int) bool { return c.borrowed != nil && c.borrowed[i] }

// ownRowLocked makes row i private before its first in-place repair: a
// borrowed row and its aggregate blocks are copied, and the copy counts
// against the cap from then on. Private rows are left as they are.
func (c *distCache) ownRowLocked(i int) {
	if !c.isBorrowed(i) {
		return
	}
	if c.cached >= c.cap {
		c.evictOneLocked(i)
	}
	c.rows[i] = append([]float64(nil), c.rows[i]...)
	c.agg[i].blocks = append([]float64(nil), c.agg[i].blocks...)
	c.borrowed[i] = false
	c.cached++
}

func (c *distCache) dropRowLocked(i int) {
	if c.rows[i] != nil {
		if c.isBorrowed(i) {
			c.borrowed[i] = false
		} else {
			c.cached--
		}
		c.rows[i] = nil
		c.agg[i] = rowAgg{}
	}
}

// insertRowLocked publishes a freshly computed row at position pos,
// evicting another row first if the cache is at capacity.
func (c *distCache) insertRowLocked(s *State, i int, row []float64, pos uint64) {
	if c.rows[i] == nil && c.cached >= c.cap {
		c.evictOneLocked(i)
	}
	if c.rows[i] == nil {
		c.cached++
	}
	c.rows[i] = row
	c.agg[i] = buildRowAgg(s, i, row)
	c.rowPos[i] = pos
}

// evictOneLocked drops one cached private row (never keep; dropping a
// borrowed row frees nothing), preferring stale rows — their loss costs
// at most a recompute that was plausibly due anyway — via a clock sweep
// that makes eviction O(1) amortized.
func (c *distCache) evictOneLocked(keep int) {
	n := len(c.rows)
	for pass := 0; pass < 2; pass++ {
		for k := 0; k < n; k++ {
			i := c.clock
			c.clock++
			if c.clock == n {
				c.clock = 0
			}
			if i == keep || c.rows[i] == nil || c.isBorrowed(i) {
				continue
			}
			if pass == 0 && c.rowPos[i] == c.head {
				continue // first pass: stale rows only
			}
			c.dropRowLocked(i)
			c.stats.Evictions++
			return
		}
	}
}

// Dist returns shortest-path distances from src in G(s), memoized until
// the network next changes. Callers must not mutate the returned slice
// and must not retain it across a state mutation: stale rows are
// batch-repaired in place on read, so the slice's contents track the
// current network, not the network at call time.
func (s *State) Dist(src int) []float64 { return s.dist(src, true) }

// dist is Dist with the hit count optional: speculativeDistCost reads
// the mover's row only to repair a copy, and counts its own answer.
func (s *State) dist(src int, countHit bool) []float64 {
	c := s.cache
	c.mu.Lock()
	if row := c.rows[src]; row != nil {
		if c.rowPos[src] == c.head {
			if countHit {
				c.stats.Hits++
			}
			c.mu.Unlock()
			return row
		}
		if c.rowPos[src] >= c.base {
			if c.replayRowLocked(s, src) {
				row = c.rows[src]
				if countHit {
					c.stats.Hits++
				}
				c.mu.Unlock()
				return row
			}
			// Repair refused; the row was dropped — recompute below.
		} else {
			c.dropRowLocked(src) // behind the log horizon
		}
	}
	pos := c.head
	c.stats.Misses++
	c.mu.Unlock()
	row := s.net.Dijkstra(src)
	c.mu.Lock()
	// Only publish if the network did not change while we computed and no
	// concurrent reader beat us to it (identical content either way).
	if c.head == pos && c.rows[src] == nil {
		c.insertRowLocked(s, src, row, pos)
	}
	c.mu.Unlock()
	return row
}

// speculativeDistCost returns DistCost(u) on the network with flips
// applied, without writing the cache. It brings u's row current through
// the read path, applies the flips to the network without logging them,
// repairs a scratch copy of the row and its block sums across them and
// refolds the dirty blocks, then undoes the flips in reverse order. A
// repair refusal recomputes the flipped network's row into the same
// scratch row and folds it; it is not cached. Either way the answer
// counts one cache event of its own: a hit and a batch repair, or a
// refusal and a miss. Like every mutation, it must not run concurrently
// with other uses of s.
func (s *State) speculativeDistCost(u int, flips []edgeFlip) float64 {
	c := s.cache
	row := s.dist(u, false)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.specRow = append(c.specRow[:0], row...)
	c.specBlocks = append(c.specBlocks[:0], c.agg[u].blocks...)
	removed, added := make([]graph.Edge, 0, 2), make([]graph.Edge, 0, 2) // a move flips at most two edges
	for _, f := range flips {
		e := graph.Edge{U: u, V: f.v, W: f.w}
		if f.add {
			s.net.AddEdge(u, f.v, f.w)
			added = append(added, e)
		} else {
			s.net.RemoveEdge(u, f.v)
			removed = append(removed, e)
		}
	}
	var total float64
	if s.net.RepairRowBatch(&c.scratch, c.specRow, u, removed, added, c.budget, c.beginAggMark()) {
		c.stats.Hits++
		c.stats.BatchRepairs++
		total = c.refoldLocked(s, u, c.specRow, c.specBlocks)
	} else {
		c.clearAggScratch()
		c.stats.RepairRefusals++
		c.stats.Misses++
		s.net.DijkstraInto(&c.scratch, c.specRow, u)
		total = s.foldDistCost(u, c.specRow)
	}
	for i := len(flips) - 1; i >= 0; i-- {
		if f := flips[i]; f.add {
			s.net.RemoveEdge(u, f.v)
		} else {
			s.net.AddEdge(u, f.v, f.w)
		}
	}
	return total
}
