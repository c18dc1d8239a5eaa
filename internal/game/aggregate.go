package game

// Incremental distance-sum aggregates: every cached distance row carries
// Σ_v t(u,v)·d(u,v) — the whole of DistCost(u) — maintained alongside the
// row, so repeated cost queries against an unchanged network are O(1) and
// a speculative move's cost evaluation pays only for the entries its
// repair touched, not an O(n) re-summation.
//
// Bit-equality with recomputation is a hard requirement (the sweep
// engine's byte-identical results contract reaches through every cost
// query), and a plain running float sum cannot provide it: float addition
// is not associative, so subtract-old/add-new maintenance drifts by ulps.
// The aggregate instead fixes the summation tree's shape: the row is cut
// into fixed-width blocks, each block folds left-to-right into a partial
// sum, and the partial sums fold left-to-right into the total. Repair
// maintenance recomputes exactly the dirty blocks (the blocks containing
// touched entries) and refolds the block sums — identical values to a
// from-scratch fold because every kept block sum was itself a fold of
// unchanged entries. DistCost's uncached path uses the same shape, so
// cached, incrementally-maintained and freshly-recomputed costs are all
// bit-identical, which the property tests pin across the host corpus.
//
// The shape also keeps the old left-to-right semantics on small
// instances: for n ≤ aggBlock there is a single block and the fold is
// exactly the plain ordered sum the engine always computed.
//
// +Inf distances (disconnected pairs with demand) propagate through the
// folds to a +Inf total, matching the exact semantics; zero-demand pairs
// contribute an exact 0 so a +Inf distance they tolerate never poisons
// the sum (0·Inf is NaN — distTerm guards it).
//
// The terms depend on the game's demand and cost model, which are fixed
// once a State exists (see SetTraffic and SetRules), so an aggregate is
// stale only when its row is: it is built with its row, maintained by
// its row's repairs and dropped with it.

// aggBlock is the fixed fold-block width. It is a constant — never a
// function of n or of the machine — because the fold shape is part of
// the numeric contract.
const aggBlock = 64

// rowAgg is the maintained aggregate of one cached row.
type rowAgg struct {
	blocks []float64 // fixed-shape per-block partial sums
	total  float64   // left-to-right fold of blocks
}

// distTerm is the contribution of pair (u,v) at distance d: the cost
// model's DistTerm(t(u,v), d), with zero-demand pairs (and the
// diagonal) contributing an exact 0 even at d = +Inf — the guards run
// here so Rules implementations never see the 0·Inf case. Under the
// default SumRules this is exactly t·d.
func (s *State) distTerm(u, v int, d float64) float64 {
	if v == u {
		return 0
	}
	t := s.G.Traffic(u, v)
	if t == 0 {
		return 0
	}
	return s.G.Rules().DistTerm(t, d)
}

// foldBlock folds the terms of row[lo:hi] in index order.
func (s *State) foldBlock(u int, row []float64, lo, hi int) float64 {
	acc := 0.0
	for v := lo; v < hi; v++ {
		acc += s.distTerm(u, v, row[v])
	}
	return acc
}

// foldDistCost computes Σ_v t(u,v)·d(u,v) over the row with the canonical
// fold shape. This is the from-scratch path (uncached rows and refused
// repairs); it is bit-identical to any sequence of incremental block
// updates landing on the same row.
func (s *State) foldDistCost(u int, row []float64) float64 {
	total := 0.0
	for lo := 0; lo < len(row); lo += aggBlock {
		hi := min(lo+aggBlock, len(row))
		total += s.foldBlock(u, row, lo, hi)
	}
	return total
}

func foldBlocks(blocks []float64) float64 {
	total := 0.0
	for _, b := range blocks {
		total += b
	}
	return total
}

// buildRowAgg computes row u's aggregate from scratch.
func buildRowAgg(s *State, u int, row []float64) rowAgg {
	nb := (len(row) + aggBlock - 1) / aggBlock
	a := rowAgg{blocks: make([]float64, nb)}
	for b := 0; b < nb; b++ {
		lo := b * aggBlock
		a.blocks[b] = s.foldBlock(u, row, lo, min(lo+aggBlock, len(row)))
	}
	a.total = foldBlocks(a.blocks)
	return a
}

// beginAggMark arms the cache's dirty-block scratch and returns the mark
// hook handed to the repair primitives: each touched row entry dirties
// its block, deduplicated so repeated marks are free. Caller holds c.mu;
// exactly one update may be in flight (mutation is single-threaded).
func (c *distCache) beginAggMark() func(x int) {
	c.aggDirty = c.aggDirty[:0]
	return func(x int) {
		b := x / aggBlock
		if !c.aggDirtyFlag[b] {
			c.aggDirtyFlag[b] = true
			c.aggDirty = append(c.aggDirty, b)
		}
	}
}

// refoldLocked recomputes the dirty blocks of row i's block sums from
// the repaired row, clears the dirty scratch and returns the refolded
// total. Caller holds c.mu.
func (c *distCache) refoldLocked(s *State, i int, row, blocks []float64) float64 {
	for _, b := range c.aggDirty {
		lo := b * aggBlock
		blocks[b] = s.foldBlock(i, row, lo, min(lo+aggBlock, len(row)))
	}
	c.clearAggScratch()
	return foldBlocks(blocks)
}

func (c *distCache) clearAggScratch() {
	for _, b := range c.aggDirty {
		c.aggDirtyFlag[b] = false
	}
	c.aggDirty = c.aggDirty[:0]
}

// aggTotal returns the maintained Σ t(u,·)·d(u,·) when row u is cached
// and current. countHit guards the stats counter: DistCost probes the
// aggregate again after a row fill, and that second probe answers from
// work the fill already counted.
func (c *distCache) aggTotal(u int, countHit bool) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rows[u] == nil || c.rowPos[u] != c.head {
		return 0, false
	}
	if countHit {
		c.stats.Hits++
	}
	return c.agg[u].total, true
}
