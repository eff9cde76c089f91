// Package reach implements symbolic image/preimage computation and
// reachability over a compiled network, including the clustered
// partitioned transition relation (paper §8 item 4) and the per-step
// Stop hook behind early failure detection (paper §5.4), which ctl's
// invariance path runs.
package reach

import (
	"hsis/internal/bdd"
	"hsis/internal/network"
	"hsis/internal/telemetry"
)

// Image computes the successors of the state set s (over the PS rail)
// using the monolithic product transition relation (built on demand).
func Image(n *network.Network, s bdd.Ref) bdd.Ref {
	return Engine(n, EngineMonolithic).Image(s)
}

// Preimage computes the predecessors of the state set s (over the PS
// rail) using the monolithic product transition relation.
func Preimage(n *network.Network, s bdd.Ref) bdd.Ref {
	return Engine(n, EngineMonolithic).Preimage(s)
}

// Options controls a reachability run.
type Options struct {
	// Engine selects the image-computation strategy (EngineAuto picks
	// monolithic when T is built, the network's plan otherwise). Only
	// tests force a kind.
	Engine EngineKind
	// KeepRings records the frontier of every step for counterexample
	// reconstruction ("onion rings").
	KeepRings bool
	// Stop, if non-nil, is evaluated after each step on the set reached
	// so far (the initial set first); returning true ends the traversal
	// early. ctl's invariance path uses it for early failure detection:
	// "if the property fails on a subset of reachable states, then it
	// fails on the whole set".
	Stop func(reached bdd.Ref) bool
}

// Result reports a reachability run.
type Result struct {
	// Reached is the fixed point (or the partial set if stopped early).
	Reached bdd.Ref
	// Steps is the number of image computations performed.
	Steps int
	// Converged is true when a fixed point was established.
	Converged bool
	// Stopped is true when Options.Stop ended the run.
	Stopped bool
	// Rings[i] holds the states first reached at step i (Rings[0] is the
	// initial set); only populated with Options.KeepRings.
	Rings []bdd.Ref
}

// Forward computes the reachable states from n.Init.
func Forward(n *network.Network, opts Options) *Result {
	return ForwardFrom(n, n.Init, opts)
}

// ForwardFrom computes the states reachable from the given set.
func ForwardFrom(n *network.Network, from bdd.Ref, opts Options) *Result {
	m := n.Manager()
	eng := Engine(n, opts.Engine)
	img := eng.Image
	res := &Result{Reached: from}
	frontier := from
	t := m.Telemetry()
	if t != nil {
		start := []telemetry.Field{telemetry.Str("engine", eng.Kind().String())}
		if t.Traced() {
			start = append(start, telemetry.Int("init_nodes", m.NodeCount(from)))
		}
		t.Emit("reach.start", start...)
		defer func() {
			done := []telemetry.Field{telemetry.Int("steps", res.Steps),
				telemetry.Bool("converged", res.Converged)}
			if t.Traced() {
				done = append(done, telemetry.Int("reached_nodes", m.NodeCount(res.Reached)))
			}
			t.Emit("reach.done", done...)
		}()
	}
	if opts.KeepRings {
		res.Rings = append(res.Rings, frontier)
	}
	if opts.Stop != nil && opts.Stop(res.Reached) {
		res.Stopped = true
		return res
	}
	for frontier != bdd.False {
		// Cancellation check at the same safe point the reorder/GC
		// machinery uses: a cancelled or timed-out job unwinds here via
		// ErrInterrupted instead of finishing the fixpoint.
		m.CheckInterrupt()
		var sp telemetry.Span
		if t != nil {
			sp = t.Start("reach.iter")
		}
		// Safe point: between image steps every Ref the loop still needs
		// is known, so an armed auto-reorder or a due garbage collection
		// can run here under the GC protection contract. The pending
		// checks gate the IncRef traffic to the (rare) iterations where
		// a sift or collection actually fires. Without the periodic GC
		// the plan-replay engines' transient recursion garbage
		// accumulates across the whole fixpoint — on mdlc2's clustered
		// pipeline that alone was a 1.9M-node high-water mark for a live
		// set under 100k.
		if m.ReorderPending() || m.GCPending() {
			m.IncRef(res.Reached)
			m.IncRef(frontier)
			for _, r := range res.Rings {
				m.IncRef(r)
			}
			m.MaybeGC() // drains a pending reorder first, then collects
			for _, r := range res.Rings {
				m.DecRef(r)
			}
			m.DecRef(frontier)
			m.DecRef(res.Reached)
		}
		next := img(frontier)
		frontier = m.Diff(next, res.Reached)
		if frontier == bdd.False {
			if t != nil {
				sp.End(IterFields(m, res.Steps, frontier, res.Reached)...)
			}
			res.Converged = true
			return res
		}
		res.Reached = m.Or(res.Reached, frontier)
		res.Steps++
		if t != nil {
			sp.End(IterFields(m, res.Steps, frontier, res.Reached)...)
		}
		if opts.KeepRings {
			res.Rings = append(res.Rings, frontier)
		}
		if opts.Stop != nil && opts.Stop(res.Reached) {
			res.Stopped = true
			return res
		}
	}
	res.Converged = true
	return res
}

// Backward computes the states that can reach the given set (a least
// fixed point of preimages), optionally restricted to a care set: states
// outside care are never explored. care == bdd.True means no restriction.
func Backward(n *network.Network, target, care bdd.Ref, kind EngineKind) bdd.Ref {
	m := n.Manager()
	pre := Engine(n, kind).Preimage
	reached := m.And(target, care)
	frontier := reached
	t := m.Telemetry()
	step := 0
	for frontier != bdd.False {
		m.CheckInterrupt() // cancellation safe point (see ForwardFrom)
		var sp telemetry.Span
		if t != nil {
			sp = t.Start("reach.back.iter")
		}
		// Safe point (see ForwardFrom).
		if m.ReorderPending() || m.GCPending() {
			m.IncRef(reached)
			m.IncRef(frontier)
			m.IncRef(care)
			m.MaybeGC()
			m.DecRef(care)
			m.DecRef(frontier)
			m.DecRef(reached)
		}
		prev := m.And(pre(frontier), care)
		frontier = m.Diff(prev, reached)
		reached = m.Or(reached, frontier)
		if t != nil {
			step++
			sp.End(IterFields(m, step, frontier, reached)...)
		}
	}
	return reached
}

// IterFields renders the fields of one fixpoint-iteration span: the
// step, plus the frontier (0 once empty) and reached node counts when a
// JSONL tracer is attached. A node count is one BDD traversal, so the
// metrics and flight-recorder sinks (every hsisd job has both) never
// pay for it.
func IterFields(m *bdd.Manager, step int, frontier, reached bdd.Ref) []telemetry.Field {
	if !m.Telemetry().Traced() {
		return []telemetry.Field{telemetry.Int("step", step)}
	}
	fn := 0
	if frontier != bdd.False {
		fn = m.NodeCount(frontier)
	}
	return []telemetry.Field{telemetry.Int("step", step),
		telemetry.Int("frontier_nodes", fn),
		telemetry.Int("reached_nodes", m.NodeCount(reached))}
}
