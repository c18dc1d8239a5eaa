//go:build race

package graph

// raceEnabled reports a -race build. Its sync.Pool drops a share of Puts
// on purpose, so pooled scratch is reallocated and allocation counts do
// not hold; the allocation tests check them only without -race.
const raceEnabled = true
