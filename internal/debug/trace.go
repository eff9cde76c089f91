// Package debug implements the HSIS debugging environment (paper §6):
// error-trace generation for failing language-containment checks (a
// shortest prefix leading to a fair cycle, with the cycle heuristically
// minimized) and the step-at-a-time CTL counterexample unfolding of the
// model checker debugger.
package debug

import (
	"fmt"
	"sort"
	"strings"

	"hsis/internal/bdd"
	"hsis/internal/fair"
	"hsis/internal/sys"
)

// State is one concrete state: a total assignment over the system's
// state bits.
type State map[int]bool

// Trace is a lasso-shaped error trace: a finite prefix from an initial
// state followed by a cycle satisfying all fairness constraints. The
// last prefix state equals the first cycle state; the cycle's last state
// has a transition back to its first.
type Trace struct {
	Prefix []State
	Cycle  []State
}

// Len returns the total number of states in the trace.
func (t *Trace) Len() int { return len(t.Prefix) + len(t.Cycle) }

// stateEq rebuilds the singleton BDD of a concrete state.
func stateEq(s sys.System, st State) bdd.Ref {
	m := s.Manager()
	r := bdd.True
	for _, b := range s.StateBits() {
		if st[b] {
			r = m.And(r, m.Var(b))
		} else {
			r = m.And(r, m.NVar(b))
		}
	}
	return r
}

func pickState(s sys.System, set bdd.Ref) (State, bool) {
	st, ok := s.Manager().PickCube(set, s.StateBits())
	if !ok {
		return nil, false
	}
	return State(st), true
}

// shortestPath returns a minimal-length concrete path within `within`
// from the set `from` to the set `to`. The first state lies in from, the
// last in to. Both endpoints must be nonempty within `within`.
func shortestPath(s sys.System, within, from, to bdd.Ref) ([]State, error) {
	m := s.Manager()
	from = m.And(from, within)
	to = m.And(to, within)
	if from == bdd.False {
		return nil, fmt.Errorf("debug: path source empty")
	}
	if m.And(from, to) != bdd.False {
		st, _ := pickState(s, m.And(from, to))
		return []State{st}, nil
	}
	// forward rings
	rings := []bdd.Ref{from}
	reached := from
	for {
		m.CheckInterrupt() // cancellation safe point (see internal/reach)
		next := m.And(s.Post(rings[len(rings)-1]), within)
		frontier := m.Diff(next, reached)
		if frontier == bdd.False {
			return nil, fmt.Errorf("debug: target unreachable")
		}
		reached = m.Or(reached, frontier)
		rings = append(rings, frontier)
		if m.And(frontier, to) != bdd.False {
			break
		}
	}
	// backward extraction
	d := len(rings) - 1
	cur, _ := pickState(s, m.And(rings[d], to))
	path := make([]State, d+1)
	path[d] = cur
	for i := d - 1; i >= 0; i-- {
		m.CheckInterrupt()
		prevSet := m.And(s.Pre(stateEq(s, path[i+1])), rings[i])
		st, ok := pickState(s, prevSet)
		if !ok {
			return nil, fmt.Errorf("debug: ring extraction failed at depth %d", i)
		}
		path[i] = st
	}
	return path, nil
}

// forwardClosure computes the states reachable from `from` within the
// restriction.
func forwardClosure(s sys.System, within, from bdd.Ref) bdd.Ref {
	m := s.Manager()
	reached := m.And(from, within)
	frontier := reached
	for frontier != bdd.False {
		m.CheckInterrupt()
		next := m.And(s.Post(frontier), within)
		frontier = m.Diff(next, reached)
		reached = m.Or(reached, frontier)
	}
	return reached
}

// FindErrorTrace extracts a debug trace from a failing emptiness check:
// hull must be the (nonempty) reachable fair hull. Per paper §6.1, "the
// language containment debugger returns an error trace such that the
// path to the cycle is minimum among all error traces. The cycle itself
// is heuristically minimized."
func FindErrorTrace(s sys.System, fc *fair.Constraints, hull bdd.Ref) (*Trace, error) {
	if hull == bdd.False {
		return nil, fmt.Errorf("debug: empty fair hull — nothing to explain")
	}
	// Minimum prefix: BFS from the initial states to the hull.
	prefix, err := shortestPath(s, bdd.True, s.Init(), hull)
	if err != nil {
		return nil, fmt.Errorf("debug: no reachable fair state: %w", err)
	}
	entry := prefix[len(prefix)-1]

	cycle, err := buildFairCycle(s, fc, hull, entry)
	if err != nil {
		return nil, err
	}
	// If the cycle does not start at the prefix end (the search may have
	// descended the SCC DAG), extend the prefix to the cycle start.
	if !sameState(entry, cycle[0], s.StateBits()) {
		ext, err := shortestPath(s, hull, stateEq(s, entry), stateEq(s, cycle[0]))
		if err != nil {
			return nil, fmt.Errorf("debug: cannot connect prefix to cycle: %w", err)
		}
		prefix = append(prefix, ext[1:]...)
	}
	return &Trace{Prefix: prefix, Cycle: cycle}, nil
}

// buildFairCycle constructs a concrete cycle within the hull that
// satisfies every fairness constraint, starting the search at entry.
// Waypoints already covered by the partial cycle are skipped — the
// paper's heuristic minimization (exact cycle minimization is NP-hard).
func buildFairCycle(s sys.System, fc *fair.Constraints, hull bdd.Ref, entry State) ([]State, error) {
	m := s.Manager()
	cur := entry
	for attempt := 0; attempt < 1<<16; attempt++ {
		m.CheckInterrupt()
		region := forwardClosure(s, hull, stateEq(s, cur))
		var targets []waypoint
		if fc != nil {
			for _, b := range fc.Buchi {
				w := waypoint{name: b.Name, isEdge: b.IsEdge, edge: b.Set}
				w.set = buchiTarget(s, b, region)
				if w.set == bdd.False {
					return nil, fmt.Errorf("debug: Büchi constraint %q unreachable inside hull region", b.Name)
				}
				targets = append(targets, w)
			}
			for _, p := range fc.Streett {
				// Only relevant if L can occur in the region; the hull
				// guarantees U is then present too (see emptiness docs).
				l := streettSet(s, p.L, p.LEdge, region)
				if l == bdd.False {
					continue
				}
				w := waypoint{name: p.Name, isEdge: p.UEdge, edge: p.U}
				w.set = streettSet(s, p.U, p.UEdge, region)
				if w.set == bdd.False {
					// L present but U absent: this region cannot carry a
					// fair cycle; the hull invariant rules this out.
					return nil, fmt.Errorf("debug: inconsistent hull: Streett %q has L without U", p.Name)
				}
				targets = append(targets, w)
			}
		}
		start := cur
		var cyc []State
		cyc = append(cyc, start)
		ok := true
		for _, w := range targets {
			// Heuristic minimization: skip targets already covered.
			if w.covered(s, cyc) {
				continue
			}
			seg, err := shortestPath(s, region, stateEq(s, cur), w.set)
			if err != nil {
				ok = false
				break
			}
			cyc = append(cyc, seg[1:]...)
			cur = cyc[len(cyc)-1]
			if w.isEdge {
				// Credit for an edge constraint requires actually taking
				// a matching edge out of the source state.
				succ := m.And(s.PostVia(w.edge, stateEq(s, cur)), region)
				st, okPick := pickState(s, succ)
				if !okPick {
					ok = false
					break
				}
				cyc = append(cyc, st)
				cur = st
			}
		}
		if ok {
			// close the loop back to start
			back, err := shortestPath(s, region, s.Post(stateEq(s, cur)), stateEq(s, start))
			if err == nil {
				if len(back) > 0 && sameState(back[0], start, s.StateBits()) && len(cyc) == 1 {
					// self-loop on start
					return cyc, nil
				}
				cyc = append(cyc, back...)
				// last appended state is start itself; drop the duplicate
				cyc = cyc[:len(cyc)-1]
				return cyc, nil
			}
		}
		// Could not close the loop in this region: move strictly deeper
		// (start is unreachable from cur, so cur's closure is a proper
		// sub-region) and retry from cur.
		if sameState(cur, start, s.StateBits()) {
			// No progress possible — pick any successor within hull.
			succ := m.And(s.Post(stateEq(s, cur)), hull)
			st, okPick := pickState(s, succ)
			if !okPick {
				return nil, fmt.Errorf("debug: state in hull without hull successor")
			}
			cur = st
		}
	}
	return nil, fmt.Errorf("debug: fair cycle construction did not converge")
}

// waypoint is one obligation the cycle must discharge: visit a state of
// set, and for edge constraints additionally leave through an edge of
// `edge`.
type waypoint struct {
	name   string
	set    bdd.Ref
	edge   bdd.Ref
	isEdge bool
}

// covered reports whether the partial cycle already discharges the
// waypoint.
func (w waypoint) covered(s sys.System, cyc []State) bool {
	m := s.Manager()
	if !w.isEdge {
		return covers(s, cyc, w.set)
	}
	for i := 0; i+1 < len(cyc); i++ {
		pair := m.And(stateEq(s, cyc[i]), s.SwapRails(stateEq(s, cyc[i+1])))
		if m.And(pair, w.edge) != bdd.False {
			return true
		}
	}
	return false
}

// buchiTarget resolves a Büchi constraint to the state set that
// "credits" it inside the region.
func buchiTarget(s sys.System, b fair.Buchi, region bdd.Ref) bdd.Ref {
	m := s.Manager()
	if b.IsEdge {
		return s.EdgeSources(b.Set, region)
	}
	return m.And(b.Set, region)
}

func streettSet(s sys.System, set bdd.Ref, isEdge bool, region bdd.Ref) bdd.Ref {
	m := s.Manager()
	if isEdge {
		return s.EdgeSources(set, region)
	}
	return m.And(set, region)
}

// covers reports whether any state of the partial cycle lies in target.
func covers(s sys.System, cyc []State, target bdd.Ref) bool {
	m := s.Manager()
	for _, st := range cyc {
		if m.And(stateEq(s, st), target) != bdd.False {
			return true
		}
	}
	return false
}

func sameState(a, b State, bits []int) bool {
	for _, i := range bits {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// VerifyTrace checks that a trace is structurally sound: consecutive
// states are connected, the cycle closes, and every fairness constraint
// is satisfied by the cycle. It is used by tests and by the hsis shell's
// self-check before printing a bug report.
func VerifyTrace(s sys.System, fc *fair.Constraints, t *Trace) error {
	m := s.Manager()
	if len(t.Prefix) == 0 || len(t.Cycle) == 0 {
		return fmt.Errorf("debug: trace missing prefix or cycle")
	}
	if m.And(stateEq(s, t.Prefix[0]), s.Init()) == bdd.False {
		return fmt.Errorf("debug: prefix does not start in an initial state")
	}
	all := append(append([]State(nil), t.Prefix...), t.Cycle[1:]...)
	if !sameState(t.Prefix[len(t.Prefix)-1], t.Cycle[0], s.StateBits()) {
		return fmt.Errorf("debug: prefix end differs from cycle start")
	}
	for i := 0; i+1 < len(all); i++ {
		if !hasEdge(s, all[i], all[i+1]) {
			return fmt.Errorf("debug: no transition between trace steps %d and %d", i, i+1)
		}
	}
	last := t.Cycle[len(t.Cycle)-1]
	if !hasEdge(s, last, t.Cycle[0]) {
		return fmt.Errorf("debug: cycle does not close")
	}
	if fc == nil {
		return nil
	}
	cycleSet := bdd.False
	for _, st := range t.Cycle {
		cycleSet = m.Or(cycleSet, stateEq(s, st))
	}
	for _, b := range fc.Buchi {
		if !cycleMeets(s, t.Cycle, b.Set, b.IsEdge) {
			return fmt.Errorf("debug: cycle misses Büchi constraint %q", b.Name)
		}
	}
	for _, p := range fc.Streett {
		if cycleMeets(s, t.Cycle, p.L, p.LEdge) && !cycleMeets(s, t.Cycle, p.U, p.UEdge) {
			return fmt.Errorf("debug: cycle violates Streett constraint %q", p.Name)
		}
	}
	return nil
}

// cycleMeets reports whether the cycle visits the state set, or for edge
// sets, takes a matching edge (including the closing edge).
func cycleMeets(s sys.System, cyc []State, set bdd.Ref, isEdge bool) bool {
	m := s.Manager()
	if !isEdge {
		for _, st := range cyc {
			if m.And(stateEq(s, st), set) != bdd.False {
				return true
			}
		}
		return false
	}
	for i := range cyc {
		from := cyc[i]
		to := cyc[(i+1)%len(cyc)]
		edge := m.And(stateEq(s, from), s.SwapRails(stateEq(s, to)))
		if m.And(edge, set) != bdd.False && hasEdge(s, from, to) {
			return true
		}
	}
	return false
}

func hasEdge(s sys.System, from, to State) bool {
	m := s.Manager()
	return m.And(s.Post(stateEq(s, from)), stateEq(s, to)) != bdd.False
}

// FormatTrace renders a trace with a caller-supplied state printer.
func FormatTrace(t *Trace, describe func(State) string) string {
	var sb strings.Builder
	sb.WriteString("error trace:\n")
	for i, st := range t.Prefix {
		fmt.Fprintf(&sb, "  step %2d: %s\n", i, describe(st))
	}
	sb.WriteString("  -- cycle (repeats forever) --\n")
	for i, st := range t.Cycle {
		fmt.Fprintf(&sb, "  loop %2d: %s\n", i, describe(st))
	}
	return sb.String()
}

// SortedBits returns the state's bits in sorted order; a helper for
// deterministic describers.
func SortedBits(st State) []int {
	out := make([]int, 0, len(st))
	for b := range st {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}
