// Package parallel provides small helpers for data-parallel loops.
//
// The solvers in this repository are embarrassingly parallel at several
// granularities (one Dijkstra per source in an all-pairs computation, one
// exact best-response per agent in a Nash check, one instance per cell of a
// parameter sweep). These helpers keep that parallelism uniform: bounded
// worker pools sized by GOMAXPROCS, deterministic output placement by
// index, and no shared mutable state beyond the caller's own slices.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the degree of parallelism used by default: GOMAXPROCS.
func Workers() int { return runtime.GOMAXPROCS(0) }

// For runs fn(i) for every i in [0,n) using up to Workers() goroutines.
// Iterations are handed out dynamically (atomic counter), so uneven work
// per index balances well. fn must be safe for concurrent invocation on
// distinct indices.
func For(n int, fn func(i int)) {
	ForWorkers(n, Workers(), fn)
}

// group is a WaitGroup that carries the first panic recovered on a
// worker goroutine back to the calling goroutine, where the caller's own
// recover (or a sweep's per-cell guard) can see it; a panic left on a
// worker goroutine would kill the whole process.
type group struct {
	sync.WaitGroup
	once sync.Once
	val  any // non-nil once caught: recover never returns nil for a panic
}

// done is deferred by each worker goroutine in place of Done.
func (g *group) done() {
	if r := recover(); r != nil {
		g.once.Do(func() { g.val = r })
	}
	g.Done()
}

// wait waits for every worker, then re-raises the caught panic, if any.
func (g *group) wait() {
	g.Wait()
	if g.val != nil {
		panic(g.val)
	}
}

// ForWorkers is For with an explicit worker bound. A panic in fn is
// re-raised on the calling goroutine after every worker has stopped.
func ForWorkers(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var g group
	g.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer g.done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	g.wait()
}

// Map computes out[i] = fn(i) for i in [0,n) in parallel.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	For(n, func(i int) { out[i] = fn(i) })
	return out
}

// reduceChunks is the fixed partition count used by Reduce. It is a
// constant (not GOMAXPROCS) so the fold tree — and hence the result of
// non-associative-in-practice combines like float addition — is identical
// on every machine and under any scheduling.
const reduceChunks = 64

// Reduce computes fn(i) for every i in [0,n) in parallel and folds the
// results with combine, starting from zero. The fold order is
// deterministic: the index range is split into fixed chunks, each chunk
// accumulates in index order, and chunk partials combine in chunk order.
// Float sums therefore reproduce bit-for-bit across runs, worker counts
// and machines — a requirement of the sweep engine's byte-identical
// results contract.
func Reduce[T any](n int, zero T, fn func(i int) T, combine func(a, b T) T) T {
	if n <= 0 {
		return zero
	}
	chunks := reduceChunks
	if n < chunks {
		chunks = n
	}
	partial := make([]T, chunks)
	ForWorkers(chunks, Workers(), func(c int) {
		lo, hi := c*n/chunks, (c+1)*n/chunks
		acc := zero
		for i := lo; i < hi; i++ {
			acc = combine(acc, fn(i))
		}
		partial[c] = acc
	})
	acc := zero
	for _, p := range partial {
		acc = combine(acc, p)
	}
	return acc
}

// FirstErr runs fn(i) for every i in [0,n) in parallel and returns the
// error from the smallest index that failed, or nil if all succeeded.
// All iterations run regardless of failures (no early cancel), which keeps
// the semantics deterministic.
func FirstErr(n int, fn func(i int) error) error {
	errs := make([]error, n)
	For(n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
