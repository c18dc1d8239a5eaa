package dynamics

import (
	"gncg/internal/game"
)

// FIPWitness is a cycle in the exhaustive improving-move graph: a
// sequence of profiles, each reachable from the previous by one agent's
// strictly improving strategy change, returning to its start. Its
// existence decides (negatively) the finite improvement property for the
// instance — the machine-checkable content of Thms 14 and 17.
type FIPWitness struct {
	Profiles []game.Profile // cycle states; first == last move target
	Agents   []int          // Agents[i] moves Profiles[i] -> Profiles[i+1]
}

// ExhaustiveFIP builds the full improving-move graph of the game — every
// strategy profile is a node, every strictly improving unilateral strategy
// change an arc — and searches it for a directed cycle. It returns a
// replayable witness if one exists; hasCycle=false is a PROOF that the
// instance has the finite improvement property (improving moves strictly
// descend an acyclic relation). Exponential in n²: refuses n > 5.
func ExhaustiveFIP(g *game.Game) (witness *FIPWitness, hasCycle bool, err error) {
	ps, err := NewProfileSpace(g)
	if err != nil {
		return nil, false, err
	}

	// DFS over the improving-move graph with tri-color marking. Gray
	// nodes are exactly the stack, so a back edge to one closes a cycle
	// along it.
	const (
		white = iota
		gray
		black
	)
	color := make([]byte, ps.Total)
	type frame struct {
		idx       int
		succ, ags []int // improving arcs out of idx and their movers
		pos       int   // next arc to take
	}
	var stack []frame
	push := func(idx int) {
		color[idx] = gray
		f := frame{idx: idx}
		for u := 0; u < ps.N; u++ {
			for alt := 0; alt < ps.PerAgent; alt++ {
				nidx := ps.Replace(idx, u, alt)
				if nidx != idx && g.Improves(ps.Costs[nidx][u], ps.Costs[idx][u]) {
					f.succ = append(f.succ, nidx)
					f.ags = append(f.ags, u)
				}
			}
		}
		stack = append(stack, f)
	}
	for start := 0; start < ps.Total; start++ {
		if color[start] != white {
			continue
		}
		push(start)
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.pos >= len(f.succ) {
				color[f.idx] = black
				stack = stack[:len(stack)-1]
				continue
			}
			nxt := f.succ[f.pos]
			f.pos++
			switch color[nxt] {
			case white:
				push(nxt)
			case gray:
				// From nxt's frame to the top, each frame's last taken
				// arc leads to the next frame; the top's leads back to nxt.
				k := len(stack) - 1
				for stack[k].idx != nxt {
					k--
				}
				w := &FIPWitness{}
				for _, fr := range stack[k:] {
					w.Profiles = append(w.Profiles, ps.Profile(fr.idx))
					w.Agents = append(w.Agents, fr.ags[fr.pos-1])
				}
				w.Profiles = append(w.Profiles, ps.Profile(nxt))
				return w, true, nil
			}
		}
	}
	return nil, false, nil
}

// VerifyFIPWitness replays a witness: every step must strictly improve
// its mover and the final profile must equal the first. A malformed
// witness — nil, a mover outside [0, n), a profile not of g's n agents —
// is rejected, never a panic.
func VerifyFIPWitness(g *game.Game, w *FIPWitness) bool {
	n := g.N()
	if w == nil || len(w.Profiles) < 2 || len(w.Agents) != len(w.Profiles)-1 {
		return false
	}
	for _, p := range w.Profiles {
		if !wellFormed(p, n) {
			return false
		}
	}
	for i, u := range w.Agents {
		if u < 0 || u >= n {
			return false
		}
		before := game.NewState(g, w.Profiles[i].Clone()).Cost(u)
		after := game.NewState(g, w.Profiles[i+1].Clone()).Cost(u)
		if !g.Improves(after, before) {
			return false
		}
		// Only agent u's strategy may change.
		for v := 0; v < n; v++ {
			if v != u && !w.Profiles[i].S[v].Equal(w.Profiles[i+1].S[v]) {
				return false
			}
		}
	}
	return w.Profiles[0].Equal(w.Profiles[len(w.Profiles)-1])
}

// wellFormed reports whether p is a profile of an n-agent game: n
// strategies over n nodes, none buying an edge to its own agent.
func wellFormed(p game.Profile, n int) bool {
	if p.N() != n {
		return false
	}
	for u, st := range p.S {
		if st.Universe() != n || st.Has(u) {
			return false
		}
	}
	return true
}
