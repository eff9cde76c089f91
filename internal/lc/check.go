package lc

import (
	"hsis/internal/bdd"
	"hsis/internal/emptiness"
	"hsis/internal/fair"
	"hsis/internal/reach"
	"hsis/internal/sys"
	"hsis/internal/telemetry"
)

// Options tunes the containment check.
type Options struct {
	// EarlySteps > 0 enables early failure detection (paper §5.4): after
	// that many reachability steps the fairness-induced structure of the
	// partial state graph is examined for a fair cycle before the full
	// computation runs.
	EarlySteps int
}

// Result reports one language containment check.
type Result struct {
	Automaton *Automaton
	Product   *Product
	// Pass is true when L(system) ⊆ L(property): no reachable fair
	// cycle exists in the product with complemented acceptance.
	Pass bool
	// Reached is the reachable product state set (partial if early
	// detection fired).
	Reached bdd.Ref
	// FairHull is the reachable fair hull; nonempty means failure, and
	// the debugger extracts an error trace from it.
	FairHull bdd.Ref
	// Constraints is the full fairness condition used for the emptiness
	// check (design fairness ∧ complemented acceptance).
	Constraints *fair.Constraints
	// Iterations counts hull iterations of the final emptiness check.
	Iterations int
	// EarlyDetected is true when the bounded-depth scan already proved
	// failure; Reached then covers only the scanned prefix.
	EarlyDetected bool
}

// Check verifies L(design under designFC) ⊆ L(a).
func Check(p *Product, designFC *fair.Constraints, opts Options) *Result {
	fc := fair.Merge(designFC, p.ComplementAcceptance())
	res := &Result{Automaton: p.A, Product: p, Constraints: fc}

	if opts.EarlySteps > 0 {
		subset := boundedReached(p, opts.EarlySteps)
		// Technique 2a: a fair cycle already inside the explored prefix.
		if emptiness.EarlyFairnessFailure(p, fc, subset) {
			r := emptiness.FairStates(p, fc, subset)
			res.Pass = false
			res.Reached = subset
			res.FairHull = r.Fair
			res.Iterations = r.Iterations
			res.EarlyDetected = true
			return res
		}
		// Technique 2b: the prefix reaches a doomed automaton state (no
		// Rabin pair can ever be satisfied from it), so the run is
		// rejected regardless of its future — the structure induced by
		// the acceptance condition proves failure without any fair-path
		// computation. Soundness assumes the design is serial and its
		// fairness is satisfiable from every reachable state (machine
		// closure) — true of realistic designs; the full check (without
		// EarlySteps) makes no such assumption.
		m := p.Manager()
		if doomed := p.A.DoomedStates(m); len(doomed) > 0 {
			hit := m.And(subset, p.StateSet(doomed))
			if hit != bdd.False {
				res.Pass = false
				res.Reached = subset
				res.FairHull = bdd.False // rerun without EarlySteps for a trace
				res.EarlyDetected = true
				return res
			}
		}
	}

	reached, hull, iters := emptiness.Check(p, fc)
	res.Reached = reached
	res.FairHull = hull
	res.Iterations = iters
	res.Pass = hull == bdd.False
	return res
}

// boundedReached takes at most k image steps from the initial states.
func boundedReached(s sys.System, k int) bdd.Ref {
	m := s.Manager()
	reached := s.Init()
	frontier := reached
	t := m.Telemetry()
	for i := 0; i < k && frontier != bdd.False; i++ {
		m.CheckInterrupt() // cancellation safe point (see internal/reach)
		var sp telemetry.Span
		if t != nil {
			sp = t.Start("lc.bounded.iter")
		}
		next := s.Post(frontier)
		frontier = m.Diff(next, reached)
		reached = m.Or(reached, frontier)
		if t != nil {
			sp.End(reach.IterFields(m, i+1, frontier, reached)...)
		}
	}
	return reached
}
