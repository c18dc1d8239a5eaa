package sweep

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Axis is one named, typed dimension of a parameter Space: an ordered
// value list the space crosses with its other axes. Values are
// homogeneous — build axes with the typed constructors (Floats, Ints,
// Int64s, Strings, SeedAxis) so every cell's accessor of the matching
// type succeeds. The zoo of supported value types is exactly what the
// deterministic encoders render token-exactly: string, float64, int and
// int64.
type Axis struct {
	Name   string
	Values []any
}

// Floats builds a float-valued axis (edge prices, norms, thresholds).
func Floats(name string, vs ...float64) Axis {
	a := Axis{Name: name, Values: make([]any, len(vs))}
	for i, v := range vs {
		a.Values[i] = v
	}
	return a
}

// Ints builds an int-valued axis (instance sizes, ladder rungs).
func Ints(name string, vs ...int) Axis {
	a := Axis{Name: name, Values: make([]any, len(vs))}
	for i, v := range vs {
		a.Values[i] = v
	}
	return a
}

// Int64s builds an int64-valued axis (by convention, RNG seeds).
func Int64s(name string, vs ...int64) Axis {
	a := Axis{Name: name, Values: make([]any, len(vs))}
	for i, v := range vs {
		a.Values[i] = v
	}
	return a
}

// Strings builds a string-valued axis (host classes, schedulers,
// policies — categorical selectors of any kind).
func Strings(name string, vs ...string) Axis {
	a := Axis{Name: name, Values: make([]any, len(vs))}
	for i, v := range vs {
		a.Values[i] = v
	}
	return a
}

// Seq returns [0, n) as int64 seeds: the common "n independent trials"
// seed dimension.
func Seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// SeedAxis builds the conventional trial axis: int64 seeds 0..n-1 under
// the name "seed", which Params.Seed and Params.RNG key on.
func SeedAxis(n int) Axis { return Int64s("seed", Seq(n)...) }

// Space is an open, typed parameter space: the cross product of its axes
// expands into cells. Axis order is part of the sharding contract — axis
// 0 varies slowest (outermost), the last axis fastest — so cell identity
// and shard assignment never depend on execution context. An entirely
// empty space expands into exactly one cell with no axes (the "scalar
// experiment" case).
type Space struct {
	Axes []Axis
}

// Cells expands the space in declaration order, assigning each cell its
// index in the enumeration. It panics on empty or duplicate axis names
// and on axes with no values: a declared axis must contribute to the
// product (spaces that shrink in quick mode shorten value lists, they do
// not empty them).
func (sp Space) Cells() []Params {
	total := 1
	seen := map[string]bool{}
	for _, a := range sp.Axes {
		if a.Name == "" {
			panic("sweep: axis with empty name")
		}
		if seen[a.Name] {
			panic(fmt.Sprintf("sweep: duplicate axis %q", a.Name))
		}
		seen[a.Name] = true
		if len(a.Values) == 0 {
			panic(fmt.Sprintf("sweep: axis %q has no values", a.Name))
		}
		total *= len(a.Values)
	}
	cells := make([]Params, 0, total)
	idx := make([]int, len(sp.Axes))
	for c := 0; c < total; c++ {
		var vals []AxisValue
		if len(sp.Axes) > 0 {
			vals = make([]AxisValue, len(sp.Axes))
			for ai, a := range sp.Axes {
				vals[ai] = AxisValue{Axis: a.Name, Value: a.Values[idx[ai]]}
			}
		}
		cells = append(cells, Params{Index: c, Values: vals})
		for ai := len(sp.Axes) - 1; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < len(sp.Axes[ai].Values) {
				break
			}
			idx[ai] = 0
		}
	}
	return cells
}

// Override replaces named axes of every experiment's Space, in full and
// quick mode alike. Each set is "axis=v1,v2,…" (one axis per set, each
// axis at most once), and each value is parsed by the type of the axis
// it replaces: int, int64, float64 (finite only: non-finite floats encode
// as string tokens, so they would change a cell's identity) or a
// non-empty string. An experiment that lacks a named axis fails the
// whole override. With no sets the experiments are returned unchanged.
func Override(exps []Experiment, sets []string) ([]Experiment, error) {
	if len(sets) == 0 {
		return exps, nil
	}
	var names []string
	raw := map[string][]string{}
	for _, set := range sets {
		name, list, ok := strings.Cut(set, "=")
		name = strings.TrimSpace(name)
		switch {
		case !ok || name == "":
			return nil, fmt.Errorf("sweep: -set %q: want axis=v1,v2,…", set)
		case raw[name] != nil:
			return nil, fmt.Errorf("sweep: -set: axis %q given twice", name)
		case strings.TrimSpace(list) == "":
			return nil, fmt.Errorf("sweep: -set %q: empty value list", set)
		}
		names = append(names, name)
		raw[name] = strings.Split(list, ",")
	}
	out := make([]Experiment, len(exps))
	for i, e := range exps {
		var spaces [2]Space // [full, quick]
		for mode, quick := range []bool{false, true} {
			var sp Space
			if e.Space != nil {
				sp = e.Space(quick)
			}
			axes := append([]Axis(nil), sp.Axes...)
			for _, name := range names {
				j := slices.IndexFunc(axes, func(a Axis) bool { return a.Name == name })
				if j < 0 || len(axes[j].Values) == 0 {
					return nil, fmt.Errorf("sweep: -set: experiment %q has no axis %q", e.Name, name)
				}
				vals, err := parseAxisValues(axes[j].Values[0], raw[name])
				if err != nil {
					return nil, fmt.Errorf("sweep: -set %s: experiment %q: %w", name, e.Name, err)
				}
				axes[j] = Axis{Name: name, Values: vals}
			}
			spaces[mode] = Space{Axes: axes}
		}
		e.Space = func(quick bool) Space {
			if quick {
				return spaces[1]
			}
			return spaces[0]
		}
		out[i] = e
	}
	return out, nil
}

// parseAxisValues parses each value as the type of like.
func parseAxisValues(like any, list []string) ([]any, error) {
	vals := make([]any, len(list))
	for i, s := range list {
		s = strings.TrimSpace(s)
		var v any
		var err error
		switch like.(type) {
		case int:
			v, err = strconv.Atoi(s)
		case int64:
			v, err = strconv.ParseInt(s, 10, 64)
		case float64:
			var f float64
			f, err = strconv.ParseFloat(s, 64)
			if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
				err = errors.New("not finite")
			}
			v = f
		case string:
			if s == "" {
				err = errors.New("empty")
			}
			v = s
		default:
			err = fmt.Errorf("axis holds %T", like)
		}
		if err != nil {
			return nil, fmt.Errorf("value %q is not a valid %T: %w", s, like, err)
		}
		vals[i] = v
	}
	return vals, nil
}
