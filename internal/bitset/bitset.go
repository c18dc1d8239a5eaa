// Package bitset provides dense bit sets over a fixed universe {0,...,n-1}.
//
// Bit sets are the representation of agent strategies in the network
// creation game: agent u's strategy S_u is the set of node indices u buys
// an edge towards. The operations below are the ones the game engine and
// the best-response solvers need: membership, mutation, iteration in
// increasing order, cardinality, equality and hashing (for cycle detection
// in dynamics).
package bitset

import "math/bits"

const wordBits = 64

// Set is a bit set over a universe fixed at creation time.
// The zero value is an empty set over an empty universe; use New for a
// usable set.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set over the universe {0,...,n-1}.
func New(n int) Set {
	if n < 0 {
		panic("bitset: negative universe size")
	}
	return Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromSlice returns a set over {0,...,n-1} containing exactly the listed
// elements.
func FromSlice(n int, elems []int) Set {
	s := New(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Universe returns the size n of the universe the set ranges over.
func (s Set) Universe() int { return s.n }

// Add inserts element e. It panics if e is outside the universe.
func (s Set) Add(e int) {
	s.check(e)
	s.words[e/wordBits] |= 1 << uint(e%wordBits)
}

// Remove deletes element e if present. It panics if e is outside the
// universe.
func (s Set) Remove(e int) {
	s.check(e)
	s.words[e/wordBits] &^= 1 << uint(e%wordBits)
}

// Has reports whether element e is in the set.
func (s Set) Has(e int) bool {
	if e < 0 || e >= s.n {
		return false
	}
	return s.words[e/wordBits]&(1<<uint(e%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	c := Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Clear removes all elements.
func (s Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Equal reports whether s and t contain the same elements over the same
// universe.
func (s Set) Equal(t Set) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// Elems returns the elements in increasing order.
func (s Set) Elems() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(e int) { out = append(out, e) })
	return out
}

// ForEach calls fn for every element in increasing order.
func (s Set) ForEach(fn func(e int)) {
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(base + b)
			w &= w - 1
		}
	}
}

// ForEachSymDiff calls fn, in increasing order, for every element in
// exactly one of s and t: the vertices whose membership a strategy change
// actually flips. The universes must match. The scan XORs all n/64 words;
// fn is invoked only |difference| times, which is what lets the game
// engine do O(|difference|) per-edge work on a strategy update instead of
// re-examining every vertex.
func (s Set) ForEachSymDiff(t Set, fn func(e int)) {
	if s.n != t.n {
		panic("bitset: universe mismatch")
	}
	for wi, w := range s.words {
		w ^= t.words[wi]
		base := wi * wordBits
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(base + b)
			w &= w - 1
		}
	}
}

// Union adds every element of t to s. The universes must match.
func (s Set) Union(t Set) {
	if s.n != t.n {
		panic("bitset: universe mismatch")
	}
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// Hash folds the set contents into a 64-bit FNV-1a value, for use in
// visited-state tables during dynamics.
func (s Set) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, w := range s.words {
		for b := 0; b < 8; b++ {
			h ^= (w >> (8 * uint(b))) & 0xff
			h *= prime
		}
	}
	return h
}

func (s Set) check(e int) {
	if e < 0 || e >= s.n {
		panic("bitset: element out of range")
	}
}
