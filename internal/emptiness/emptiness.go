// Package emptiness implements the BDD-based fair-cycle machinery at the
// heart of both verification paradigms (paper §5.3): language
// containment reduces to language emptiness — "a fair state is one that
// is involved in some cycle satisfying all fairness constraints, and
// thus a reachable fair state means a failing language containment
// check" — and fair CTL's EG operator is the same computation restricted
// to an invariant.
//
// The algorithm is the Emerson–Lei style hull iteration of ref [17]:
// alternate (1) pruning to states with an infinite path inside the hull,
// (2) for each Büchi condition, pruning to states that can reach the
// condition inside the hull, and (3) for each Streett pair GF(L)→GF(U),
// pruning L-states that cannot reach U inside the hull. At the fixpoint
// every terminal SCC of the hull is fair, so the hull is non-empty iff a
// fair cycle exists; the hull itself is the paper's "approximation to
// the set of fair states".
package emptiness

import (
	"hsis/internal/bdd"
	"hsis/internal/fair"
	"hsis/internal/sys"
	"hsis/internal/telemetry"
)

// EG returns the states of z with an infinite path staying inside z:
// νY. z ∧ Pre(Y).
func EG(s sys.System, z bdd.Ref) bdd.Ref {
	m := s.Manager()
	y := z
	for {
		m.CheckInterrupt() // cancellation safe point
		ny := m.And(z, s.Pre(y))
		ny = m.And(ny, y)
		if ny == y {
			return y
		}
		y = ny
	}
}

// EU returns the states with a path inside z reaching target∩z:
// μY. (target∧z) ∨ (z ∧ Pre(Y)).
func EU(s sys.System, z, target bdd.Ref) bdd.Ref {
	m := s.Manager()
	y := m.And(target, z)
	for {
		m.CheckInterrupt() // cancellation safe point
		ny := m.Or(y, m.And(z, s.Pre(y)))
		if ny == y {
			return y
		}
		y = ny
	}
}

// Result reports a fair-states computation.
type Result struct {
	// Fair is the hull: an over-approximation of the states lying on
	// fair cycles, exact for emptiness (nonempty iff a fair cycle
	// exists within the restriction).
	Fair bdd.Ref
	// Iterations counts outer hull iterations until the fixpoint.
	Iterations int
}

// FairStates computes the fair hull within the restriction set (pass
// bdd.True — or the reachable set — for the whole space). With empty
// constraints this degenerates to EG(restrict): states with any
// infinite path, matching unconstrained ω-semantics.
func FairStates(s sys.System, fc *fair.Constraints, restrict bdd.Ref) Result {
	m := s.Manager()
	z := restrict
	iter := 0
	t := m.Telemetry()
	for {
		m.CheckInterrupt() // cancellation safe point
		iter++
		old := z
		var sp telemetry.Span
		if t != nil {
			sp = t.Start("emptiness.hull.iter")
		}
		// (1) infinite-path hull
		z = EG(s, z)
		if z == bdd.False {
			endHull(m, sp, iter, z)
			return Result{Fair: z, Iterations: iter}
		}
		// (2) Büchi conditions: must be able to revisit each set
		if fc != nil {
			for _, b := range fc.Buchi {
				var target bdd.Ref
				if b.IsEdge {
					target = s.EdgeSources(b.Set, z)
				} else {
					target = m.And(b.Set, z)
				}
				z = m.And(z, EU(s, z, target))
				if z == bdd.False {
					endHull(m, sp, iter, z)
					return Result{Fair: z, Iterations: iter}
				}
			}
			// (3) Streett pairs: L-states must be able to reach U
			for _, p := range fc.Streett {
				var lset bdd.Ref
				if p.LEdge {
					lset = s.EdgeSources(p.L, z)
				} else {
					lset = m.And(p.L, z)
				}
				if lset == bdd.False {
					continue
				}
				var uset bdd.Ref
				if p.UEdge {
					uset = s.EdgeSources(p.U, z)
				} else {
					uset = m.And(p.U, z)
				}
				canReachU := EU(s, z, uset)
				z = m.And(z, m.Or(m.Not(lset), canReachU))
				if z == bdd.False {
					endHull(m, sp, iter, z)
					return Result{Fair: z, Iterations: iter}
				}
			}
		}
		endHull(m, sp, iter, z)
		if z == old {
			return Result{Fair: z, Iterations: iter}
		}
	}
}

// Check runs the full language-emptiness check: compute the reachable
// states, the fair hull within them, and report whether any fair cycle
// is reachable. It returns the reachable set and the reachable fair
// hull (empty means the language is empty — the property PASSES in the
// language-containment reading).
func Check(s sys.System, fc *fair.Constraints) (reached, fairHull bdd.Ref, iterations int) {
	reached = sys.Reached(s)
	r := FairStates(s, fc, reached)
	return reached, r.Fair, r.Iterations
}

// EarlyFairnessFailure is the second early-detection technique of paper
// §5.4, usable only for language containment: it inspects the structure
// induced by the fairness constraints on a subset of the reachable
// states (typically obtained from a few reachability steps) without the
// full fair-path computation. It reports true when a fair cycle already
// exists inside the subset — an error found early. A false result says
// nothing (the full check must still run).
func EarlyFairnessFailure(s sys.System, fc *fair.Constraints, subset bdd.Ref) bool {
	r := FairStates(s, fc, subset)
	return r.Fair != bdd.False
}

// endHull ends one hull-iteration span. The z_nodes field costs a BDD
// traversal, so only a scope with a JSONL tracer receives it (an empty
// hull reports 0).
func endHull(m *bdd.Manager, sp telemetry.Span, iter int, z bdd.Ref) {
	if !m.Telemetry().Traced() {
		sp.End(telemetry.Int("iter", iter))
		return
	}
	zNodes := 0
	if z != bdd.False {
		zNodes = m.NodeCount(z)
	}
	sp.End(telemetry.Int("iter", iter), telemetry.Int("z_nodes", zNodes))
}
