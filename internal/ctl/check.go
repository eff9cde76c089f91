package ctl

import (
	"fmt"

	"hsis/internal/bdd"
	"hsis/internal/emptiness"
	"hsis/internal/fair"
	"hsis/internal/network"
	"hsis/internal/reach"
	"hsis/internal/sys"
	"hsis/internal/telemetry"
)

// Checker evaluates fair CTL formulas over a symbolic transition system.
type Checker struct {
	S  sys.System
	FC *fair.Constraints
	// Label resolves an atom var=value to its present-state set.
	Label func(name, value string) (bdd.Ref, error)

	net *network.Network // non-nil when built from a network (fast path)

	reached     bdd.Ref
	haveReached bool
	fairHull    bdd.Ref
	haveFair    bool
}

// New builds a checker over an arbitrary system.
func New(s sys.System, fc *fair.Constraints, label func(string, string) (bdd.Ref, error)) *Checker {
	return &Checker{S: s, FC: fc, Label: label}
}

// NewForNetwork builds a checker over a compiled network, resolving
// atoms with the network's label semantics.
func NewForNetwork(n *network.Network, fc *fair.Constraints) *Checker {
	c := New(sys.FromNetwork(n), fc, n.LabelEq)
	c.net = n
	return c
}

// Reached returns (and caches) the reachable states. The cached set is
// referenced so it survives garbage collections and dynamic reorders
// between checks.
func (c *Checker) Reached() bdd.Ref {
	if !c.haveReached {
		c.reached = c.S.Manager().IncRef(sys.Reached(c.S))
		c.haveReached = true
	}
	return c.reached
}

// Fair returns (and caches) the fair hull within the reachable states:
// the states with some fair path, the denotation of E G TRUE under
// fairness.
func (c *Checker) Fair() bdd.Ref {
	if !c.haveFair {
		r := emptiness.FairStates(c.S, c.FC, c.Reached())
		c.fairHull = c.S.Manager().IncRef(r.Fair)
		c.haveFair = true
	}
	return c.fairHull
}

// Verdict reports one property check.
type Verdict struct {
	Formula Formula
	// Pass is true when every initial state satisfies the formula.
	Pass bool
	// Sat is the satisfying state set (correct on reachable states).
	Sat bdd.Ref
	// FailingInit is Init ∧ ¬Sat (empty iff Pass).
	FailingInit bdd.Ref
	// UsedInvariantPath marks the optimized AG(propositional) route.
	UsedInvariantPath bool
	// FailStep is the reachability step at which the invariant was
	// first violated (invariant path only; -1 otherwise/none).
	FailStep int
}

// Check evaluates the formula and compares against the initial states.
func (c *Checker) Check(f Formula) (*Verdict, error) {
	m := c.S.Manager()
	if inv, ok := AsInvariance(f); ok && c.FC.IsEmpty() && c.net != nil {
		return c.checkInvariant(f, inv)
	}
	sat, err := c.Sat(f)
	if err != nil {
		return nil, err
	}
	failing := m.Diff(c.S.Init(), sat)
	return &Verdict{
		Formula:     f,
		Pass:        failing == bdd.False,
		Sat:         sat,
		FailingInit: failing,
		FailStep:    -1,
	}, nil
}

// checkInvariant is the optimized invariance route: forward reachability
// with a per-step violation test (which is simultaneously the early
// failure detection of paper §5.4 — "take a few reachability steps, and
// then check the property ... if the property fails on a subset of
// reachable states, then the property fails on the whole reachable set").
func (c *Checker) checkInvariant(f, p Formula) (*Verdict, error) {
	m := c.S.Manager()
	good, err := c.Sat(p) // propositional: no recursion into temporal ops
	if err != nil {
		return nil, err
	}
	bad := m.Not(good)
	// The reachability run below contains reorder safe points; good and
	// bad are read afterwards (and inside the Stop closure), so protect
	// them per the GC contract.
	m.IncRef(good)
	m.IncRef(bad)
	defer m.DecRef(bad)
	defer m.DecRef(good)
	step := 0
	failStep := -1
	res := reach.Forward(c.net, reach.Options{
		Stop: func(reached bdd.Ref) bool {
			if m.And(reached, bad) != bdd.False {
				failStep = step
				return true
			}
			step++
			return false
		},
	})
	if !c.haveReached && res.Converged {
		c.reached = m.IncRef(res.Reached)
		c.haveReached = true
	}
	pass := failStep < 0
	sat := good // AG p ⊆ p; precise Sat not needed for the verdict
	failing := bdd.False
	if !pass {
		// Any initial state fails: from it the bad state is reachable.
		failing = c.S.Init()
	}
	return &Verdict{
		Formula:           f,
		Pass:              pass,
		Sat:               sat,
		FailingInit:       failing,
		UsedInvariantPath: true,
		FailStep:          failStep,
	}, nil
}

// Sat returns the set of states satisfying f (exact on reachable
// states, under the checker's fairness constraints).
func (c *Checker) Sat(f Formula) (bdd.Ref, error) {
	m := c.S.Manager()
	switch t := f.(type) {
	case TrueF:
		return bdd.True, nil
	case FalseF:
		return bdd.False, nil
	case Atom:
		set, err := c.Label(t.Var, t.Value)
		if err != nil {
			return bdd.False, err
		}
		if t.Neq {
			return m.Not(set), nil
		}
		return set, nil
	case Not:
		s, err := c.Sat(t.F)
		if err != nil {
			return bdd.False, err
		}
		return m.Not(s), nil
	case And:
		return c.binary(t.L, t.R, m.And)
	case Or:
		return c.binary(t.L, t.R, m.Or)
	case Implies:
		return c.binary(t.L, t.R, m.Implies)
	case Iff:
		return c.binary(t.L, t.R, m.Equiv)
	case EX:
		s, err := c.Sat(t.F)
		if err != nil {
			return bdd.False, err
		}
		return c.S.Pre(m.And(s, c.Fair())), nil
	case EF:
		return c.satEU(TrueF{}, t.F)
	case EU:
		return c.satEU(t.L, t.R)
	case EG:
		s, err := c.Sat(t.F)
		if err != nil {
			return bdd.False, err
		}
		r := emptiness.FairStates(c.S, c.FC, m.And(s, c.Reached()))
		return r.Fair, nil
	case AX:
		// AX p = !EX !p
		return c.Sat(Not{EX{Not{t.F}}})
	case AF:
		// AF p = !EG !p
		return c.Sat(Not{EG{Not{t.F}}})
	case AG:
		// AG p = !EF !p
		return c.Sat(Not{EF{Not{t.F}}})
	case AU:
		// A[p U q] = !(E[!q U (!p ∧ !q)] ∨ EG !q)
		eu, err := c.Sat(EU{Not{t.R}, And{Not{t.L}, Not{t.R}}})
		if err != nil {
			return bdd.False, err
		}
		eg, err := c.Sat(EG{Not{t.R}})
		if err != nil {
			return bdd.False, err
		}
		return m.Not(m.Or(eu, eg)), nil
	default:
		return bdd.False, fmt.Errorf("ctl: unknown formula node %T", f)
	}
}

func (c *Checker) binary(l, r Formula, op func(bdd.Ref, bdd.Ref) bdd.Ref) (bdd.Ref, error) {
	ls, err := c.Sat(l)
	if err != nil {
		return bdd.False, err
	}
	rs, err := c.Sat(r)
	if err != nil {
		return bdd.False, err
	}
	return op(ls, rs), nil
}

// satEU computes fair E[p U q] = μY. (q ∧ fair-hull-reachable) ∨ (p ∧ Pre Y).
func (c *Checker) satEU(l, r Formula) (bdd.Ref, error) {
	m := c.S.Manager()
	p, err := c.Sat(l)
	if err != nil {
		return bdd.False, err
	}
	q, err := c.Sat(r)
	if err != nil {
		return bdd.False, err
	}
	y := m.And(q, c.Fair())
	t := m.Telemetry()
	iter := 0
	for {
		m.CheckInterrupt() // cancellation safe point
		var sp telemetry.Span
		if t != nil {
			sp = t.Start("ctl.eu.iter")
		}
		ny := m.Or(y, m.And(p, c.S.Pre(y)))
		if t != nil {
			iter++
			if t.Traced() {
				sp.End(telemetry.Int("iter", iter),
					telemetry.Int("y_nodes", m.NodeCount(ny)))
			} else {
				sp.End(telemetry.Int("iter", iter))
			}
		}
		if ny == y {
			return y, nil
		}
		y = ny
	}
}
