// Package sim implements the state-based simulator of HSIS (paper §1,
// item 4): "In order to find some easy bugs, HSIS provides a state-based
// simulator. This facility enumerates the reachable states of the
// design, under user control." The simulator holds a *set* of current
// states, steps it through the transition relation (optionally
// constrained by user-chosen input or variable values), lets the user
// focus on a subset, and enumerates concrete states.
package sim

import (
	"fmt"

	"hsis/internal/bdd"
	"hsis/internal/network"
	"hsis/internal/quant"
	"hsis/internal/reach"
	"hsis/internal/telemetry"
)

// Simulator is an interactive stepping session over a compiled network.
// The session owns one manager reference on the current set and one per
// history entry, so its state survives garbage collections and dynamic
// reorders run between commands.
type Simulator struct {
	N *network.Network

	eng     reach.ImageEngine
	current bdd.Ref
	history []bdd.Ref
	steps   int
}

// New starts a session at the network's initial states.
func New(n *network.Network) *Simulator {
	return &Simulator{N: n, eng: reach.Engine(n, reach.EngineAuto),
		current: n.Manager().IncRef(n.Init)}
}

// Current returns the current state set.
func (s *Simulator) Current() bdd.Ref { return s.current }

// Steps returns the number of forward steps taken (net of Back calls).
func (s *Simulator) Steps() int { return s.steps }

// Count returns the number of states in the current set.
func (s *Simulator) Count() float64 { return s.N.NumStates(s.current) }

// Step advances the whole current set one clock tick.
func (s *Simulator) Step() {
	next := s.eng.Image(s.current)
	s.push()
	s.current = s.N.Manager().IncRef(next)
	s.emitStep(false)
}

// StepWith advances under a constraint on the step's variables (inputs,
// intermediate signals, or state variables) — the "user control" knob.
// The constraint is applied before non-state variables are quantified,
// so it can pin primary inputs to chosen values.
func (s *Simulator) StepWith(constraint bdd.Ref) {
	m := s.N.Manager()
	conjs := append(append([]quant.Conjunct(nil), s.N.Conjuncts()...),
		quant.Conjunct{F: s.current, Support: s.N.PSBits()},
		quant.Conjunct{F: constraint, Support: m.Support(constraint)})
	qvars := append(append([]int(nil), s.N.NonStateBits()...), s.N.PSBits()...)
	next := quant.AndExists(m, conjs, qvars)
	s.push()
	s.current = m.IncRef(s.N.SwapRails(next))
	s.emitStep(true)
}

// emitStep reports one simulator advance to the armed tracer.
func (s *Simulator) emitStep(constrained bool) {
	t := s.N.Manager().Telemetry()
	if t == nil {
		return
	}
	fields := []telemetry.Field{telemetry.Int("step", s.steps)}
	if t.Traced() {
		fields = append(fields, telemetry.Int("current_nodes", s.N.Manager().NodeCount(s.current)))
	}
	t.Emit("sim.step", append(fields, telemetry.Bool("constrained", constrained))...)
}

// Focus restricts the current set to its intersection with the given
// set; it errors if the intersection is empty.
func (s *Simulator) Focus(set bdd.Ref) error {
	m := s.N.Manager()
	nxt := m.And(s.current, set)
	if nxt == bdd.False {
		return fmt.Errorf("sim: focus set does not intersect the current states")
	}
	s.push()
	s.current = m.IncRef(nxt)
	s.steps-- // focusing is not a clock step
	return nil
}

// Back undoes the most recent Step/StepWith/Focus.
func (s *Simulator) Back() bool {
	if len(s.history) == 0 {
		return false
	}
	s.N.Manager().DecRef(s.current)
	s.current = s.history[len(s.history)-1]
	s.history = s.history[:len(s.history)-1]
	if s.steps > 0 {
		s.steps--
	}
	return true
}

// Reset returns to the initial states and clears history.
func (s *Simulator) Reset() {
	m := s.N.Manager()
	m.DecRef(s.current)
	for _, h := range s.history {
		m.DecRef(h)
	}
	s.current = m.IncRef(s.N.Init)
	s.history = nil
	s.steps = 0
}

func (s *Simulator) push() {
	s.history = append(s.history, s.current)
	s.steps++
}

// States enumerates up to max concrete states of the current set,
// decoded to latch-value assignments.
func (s *Simulator) States(max int) []network.StateAssignment {
	m := s.N.Manager()
	var out []network.StateAssignment
	rest := s.current
	for len(out) < max && rest != bdd.False {
		asg, ok := s.N.PickState(rest)
		if !ok {
			break
		}
		out = append(out, s.N.DecodeState(asg))
		rest = m.Diff(rest, s.N.StateEq(asg))
	}
	return out
}

// Deadlocked returns the current states with no successor at all
// (useful to catch inconsistent table specifications).
func (s *Simulator) Deadlocked() bdd.Ref {
	m := s.N.Manager()
	hasSucc := s.eng.Preimage(bdd.True)
	return m.Diff(s.current, hasSucc)
}
