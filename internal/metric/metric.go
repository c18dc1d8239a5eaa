// Package metric models the host-graph classes of the paper (Fig. 1):
// arbitrary non-negative weights (GNCG), metric weights (M–GNCG), tree
// metrics (T–GNCG), {1,2} weights (1-2–GNCG), points in R^d under p-norms
// (Rd–GNCG), {1,∞} weights (1-∞–GNCG) and unit weights (the original NCG).
//
// A Space yields the weight of the complete host graph's edge (i,j). The
// game engine consumes spaces directly and lazily — distances are computed
// on demand, so implicit spaces (points under a p-norm, tree metrics, unit
// and {1,2}/{1,∞} hosts) never materialize their O(n²) matrix unless a
// caller explicitly asks for a dense view via Matrix.
//
// Spaces can advertise optional capabilities the engine queries instead of
// scanning a dense matrix:
//
//   - Classifier: the space knows its Fig. 1 class and metricity
//     structurally, in O(1) (points, trees, unit, {1,2}, {1,∞}).
//   - FinitePairer: the space enumerates its finite (buyable) pairs
//     without touching +Inf entries ({1,∞} hosts).
//   - Dense: the space already holds a dense matrix, so densification can
//     reuse it instead of copying (matrix-backed spaces).
//   - MSTWeighter: the space knows the weight of a minimum spanning tree
//     of its complete graph in closed form (tree metrics).
//
// ClassifySpace and IsMetricSpace consult these capabilities and fall back
// to the dense validators (Classify, IsMetric) otherwise.
package metric

import (
	"fmt"
	"math"

	"gncg/internal/graph"
)

var inf = math.Inf(1)

// Space is a finite (pseudo-)metric-like space: a symmetric non-negative
// pairwise weight function over points {0,...,Size()-1} with zero
// diagonal. Triangle inequality is NOT implied; see IsMetric.
type Space interface {
	Size() int
	Dist(i, j int) float64
}

// Classifier is the structural-classification capability: a space that
// knows its position in the paper's Fig. 1 hierarchy by construction, in
// O(1), without inspecting pairwise distances.
//
// Class returns the most specific class guaranteed by the space's
// structure. A realized instance may incidentally lie in an even smaller
// class — e.g. a unit-weight star's tree metric happens to be a {1,2}
// metric — which only dense inspection (Classify on a matrix) detects;
// structural answers are exact for unit, {1,2} and {1,∞} spaces and
// top out at ClassMetric for point and tree spaces.
type Classifier interface {
	Class(eps float64) Class
	// Metric reports whether the space satisfies the triangle inequality.
	Metric(eps float64) bool
}

// FinitePairer is the sparse-iteration capability: a space whose finite
// pairs form a strict (typically sparse) subset of all pairs, such as a
// {1,∞} host. ForEachFinitePair calls fn exactly once for every unordered
// pair u < v with finite weight, in ascending (u,v) order — the order is
// part of the contract so downstream consumers (MST, candidate sets) stay
// deterministic.
type FinitePairer interface {
	ForEachFinitePair(fn func(u, v int, w float64))
}

// Dense is the pre-materialized capability: a space that already holds its
// dense symmetric matrix. Densification reuses the returned matrix rather
// than copying it, so callers must treat it as immutable.
type Dense interface {
	DenseMatrix() [][]float64
}

// MSTWeighter is the closed-form spanning-tree capability: a space that
// knows the weight of a minimum spanning tree of its complete graph
// without pricing its pairs, where the general answer is an O(n²) Prim
// pass over Dist.
type MSTWeighter interface {
	MSTWeight() float64
}

// ClassifySpace returns the space's model class, using the Classifier
// capability in O(1) when present and falling back to materializing the
// matrix and running the dense validator (O(n²) space, O(n³) time)
// otherwise.
func ClassifySpace(s Space, eps float64) Class {
	if c, ok := s.(Classifier); ok {
		return c.Class(eps)
	}
	return Classify(denseOf(s), eps)
}

// IsMetricSpace reports whether the space satisfies the triangle
// inequality, using the Classifier capability in O(1) when present and the
// dense validator otherwise.
func IsMetricSpace(s Space, eps float64) bool {
	if c, ok := s.(Classifier); ok {
		return c.Metric(eps)
	}
	return IsMetric(denseOf(s), eps)
}

// ForEachFinitePair calls fn for every unordered pair u < v with finite
// weight, in ascending (u,v) order. Spaces with the FinitePairer
// capability enumerate only their finite pairs; otherwise every pair is
// visited and +Inf entries are skipped — O(n²) time but no allocation.
func ForEachFinitePair(s Space, fn func(u, v int, w float64)) {
	if fp, ok := s.(FinitePairer); ok {
		fp.ForEachFinitePair(fn)
		return
	}
	n := s.Size()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if w := s.Dist(u, v); !math.IsInf(w, 1) {
				fn(u, v, w)
			}
		}
	}
}

// denseOf returns the space's dense matrix, reusing pre-materialized
// storage when the space advertises it.
func denseOf(s Space) [][]float64 {
	if d, ok := s.(Dense); ok {
		return d.DenseMatrix()
	}
	return Matrix(s)
}

// Matrix materializes a space as a dense symmetric matrix: O(n²) memory
// and construction time. Engine code no longer requires dense hosts;
// this remains for validators, interchange and explicit densification.
func Matrix(s Space) [][]float64 {
	n := s.Size()
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := s.Dist(i, j)
			w[i][j] = d
			w[j][i] = d
		}
	}
	return w
}

// matrixSpace adapts an explicit matrix to the Space interface.
type matrixSpace struct{ w [][]float64 }

// FromMatrix wraps an explicit symmetric weight matrix as a Space. It
// validates shape, symmetry, zero diagonal and non-negativity.
func FromMatrix(w [][]float64) (Space, error) {
	n := len(w)
	for i := range w {
		if len(w[i]) != n {
			return nil, fmt.Errorf("metric: row %d has length %d, want %d", i, len(w[i]), n)
		}
		if w[i][i] != 0 {
			return nil, fmt.Errorf("metric: nonzero diagonal at %d: %v", i, w[i][i])
		}
		for j := range w[i] {
			if w[i][j] < 0 || math.IsNaN(w[i][j]) {
				return nil, fmt.Errorf("metric: invalid weight w(%d,%d)=%v", i, j, w[i][j])
			}
			if w[i][j] != w[j][i] {
				return nil, fmt.Errorf("metric: asymmetric weights w(%d,%d)=%v w(%d,%d)=%v", i, j, w[i][j], j, i, w[j][i])
			}
		}
	}
	return matrixSpace{w}, nil
}

func (m matrixSpace) Size() int             { return len(m.w) }
func (m matrixSpace) Dist(i, j int) float64 { return m.w[i][j] }

// DenseMatrix exposes the wrapped matrix (Dense capability); callers must
// not mutate it.
func (m matrixSpace) DenseMatrix() [][]float64 { return m.w }

// Unit is the unit-weight space on n points: the host graph of the
// original Network Creation Game of Fabrikant et al.
type Unit struct{ N int }

func (u Unit) Size() int { return u.N }

// Dist returns 1 for distinct points and 0 on the diagonal.
func (u Unit) Dist(i, j int) float64 {
	if i == j {
		return 0
	}
	return 1
}

// Class reports ClassUnit: the original NCG (Classifier capability).
func (u Unit) Class(eps float64) Class { return ClassUnit }

// Metric reports true: unit weights always satisfy the triangle
// inequality.
func (u Unit) Metric(eps float64) bool { return true }

// Closure returns the metric closure of a connected weighted graph: the
// space whose distance is the shortest-path distance in g. If g is
// disconnected, unreachable pairs get +Inf (a legal GNCG host where those
// edges can never be bought, i.e. a 1-∞-style host).
func Closure(g *graph.Graph) Space {
	return matrixSpace{g.APSP()}
}

// IsMetric reports whether the matrix satisfies the triangle inequality
// within tolerance eps: w[i][j] <= w[i][k] + w[k][j] + eps for all i,j,k.
// Entries of +Inf are treated as absent connections and violate metricity
// unless the whole row/column is +Inf-free. (A metric host must be finite.)
func IsMetric(w [][]float64, eps float64) bool {
	n := len(w)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && math.IsInf(w[i][j], 1) {
				return false
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			wik := w[i][k]
			for j := 0; j < n; j++ {
				if w[i][j] > wik+w[k][j]+eps {
					return false
				}
			}
		}
	}
	return true
}

// Class identifies where a host matrix sits in the paper's model
// hierarchy (Fig. 1).
type Class int

const (
	// ClassGeneral is an arbitrary non-negative weighted host (GNCG).
	ClassGeneral Class = iota
	// ClassOneInf has all weights in {1, +Inf} (1-∞–GNCG).
	ClassOneInf
	// ClassMetric satisfies the triangle inequality (M–GNCG).
	ClassMetric
	// ClassOneTwo has all weights in {1,2} (1-2–GNCG, always metric).
	ClassOneTwo
	// ClassUnit has all weights equal to 1 (the original NCG).
	ClassUnit
)

// String names the class as in the paper.
func (c Class) String() string {
	switch c {
	case ClassGeneral:
		return "GNCG"
	case ClassOneInf:
		return "1-inf-GNCG"
	case ClassMetric:
		return "M-GNCG"
	case ClassOneTwo:
		return "1-2-GNCG"
	case ClassUnit:
		return "NCG"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classify returns the most specific class of the matrix within tolerance
// eps. Tree metrics and R^d point metrics are not re-derivable from a
// matrix alone (recognizing them is a separate problem), so Classify tops
// out at ClassOneTwo/ClassUnit/ClassMetric/ClassOneInf/ClassGeneral.
func Classify(w [][]float64, eps float64) Class {
	n := len(w)
	allOne, allOneTwo, allOneInf := true, true, true
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := w[i][j]
			if math.Abs(v-1) > eps {
				allOne = false
			}
			if math.Abs(v-1) > eps && math.Abs(v-2) > eps {
				allOneTwo = false
			}
			if math.Abs(v-1) > eps && !math.IsInf(v, 1) {
				allOneInf = false
			}
		}
	}
	switch {
	case allOne:
		return ClassUnit
	case allOneTwo:
		return ClassOneTwo
	case IsMetric(w, eps):
		return ClassMetric
	case allOneInf:
		return ClassOneInf
	default:
		return ClassGeneral
	}
}
