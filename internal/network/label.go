package network

// Cone-local labels: the label of a combinational condition v == k is
// the set of present states in which the network can produce that
// value, ∃(non-state). (∧ relations ∧ v=k). Conjoining every relation
// makes each label as expensive as building T; on a replicated design
// nearly all of them are irrelevant to any one signal. Only the tables
// in v's fan-in cone (up to present-state variables and primary
// inputs) compute v, so LabelEq quantifies just those. The result is
// exact under three conditions checked here:
//
//   - every table outside the cone is total on valid inputs: for each
//     in-domain input assignment some row yields an in-domain output;
//   - no signal has two drivers and no table drives a latch output;
//   - the tables form no combinational cycle.
//
// Then the outside tables, eliminated sinks first, each reduce to the
// domain constraints of their inputs, and the latch extras (auxiliary
// equalities, next-state domains) likewise. Of those constraints only
// the present-state ones survive the quantification, so the label is
// the cone's result conjoined with the domains of the present-state
// variables any conjunct mentions. A model that fails the structural
// conditions, or a label whose cone leaves a partial table outside,
// falls back to conjoining every relation.

import (
	"fmt"

	"hsis/internal/bdd"
	"hsis/internal/quant"
)

// labelCones caches the cone-local label machinery of one network.
type labelCones struct {
	built   bool                        // initLabelCones has run
	sound   bool                        // the structural conditions hold
	drivers map[string][]int            // signal -> indices of the tables driving it
	total   []bool                      // per table: total on valid inputs
	dom     bdd.Ref                     // domains of the PS variables in any conjunct
	cones   map[string][]quant.Conjunct // signal -> conjuncts a label needs
}

// LabelEq returns the present-state label of the condition
// <name> == <value>. For a state variable this is the plain equality;
// for a combinational or input variable it is the set of states where
// the network *can* produce that value in the current step (the
// relations constrain the variable, inputs and other intermediates are
// existentially quantified).
func (n *Network) LabelEq(name, value string) (bdd.Ref, error) {
	v := n.space.ByName(name)
	if v == nil {
		return bdd.False, fmt.Errorf("network: unknown variable %q", name)
	}
	mv := n.model.Var(name)
	if mv == nil {
		// Only auxiliary $ns rail variables exist in the space but not in
		// a sealed model; properties cannot meaningfully observe them.
		return bdd.False, fmt.Errorf("network: %q is not a model variable", name)
	}
	idx := mv.ValueIndex(value)
	if idx < 0 {
		return bdd.False, fmt.Errorf("network: %q is not a value of %s", value, name)
	}
	if n.isPSVar(v) {
		return v.Eq(idx), nil
	}
	// quantify everything but the PS rail out of (relations ∧ v=idx)
	conjs := append(append([]quant.Conjunct(nil), n.labelConjuncts(name)...),
		quant.Conjunct{F: v.Eq(idx), Support: v.Bits()})
	var qvars []int
	ps := make(map[int]bool, len(n.psBits))
	for _, b := range n.psBits {
		ps[b] = true
	}
	for b := 0; b < n.mgr.NumVars(); b++ {
		if !ps[b] {
			qvars = append(qvars, b)
		}
	}
	return n.mgr.And(quant.AndExists(n.mgr, conjs, qvars), n.labels.dom), nil
}

// labelConjuncts returns the relations the label of a combinational
// signal must conjoin: its fan-in cone when that is exact, every
// conjunct otherwise. Cached per signal.
func (n *Network) labelConjuncts(name string) []quant.Conjunct {
	lc := &n.labels
	if !lc.built {
		n.initLabelCones()
		lc.built = true
	}
	if !lc.sound {
		return n.conjuncts
	}
	if conjs, ok := lc.cones[name]; ok {
		return conjs
	}
	tables := n.model.Tables
	inCone := make([]bool, len(tables))
	conjs := []quant.Conjunct{}
	seen := map[string]bool{name: true}
	queue := []string{name}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, ti := range lc.drivers[s] { // none for PS variables and inputs
			if inCone[ti] {
				continue
			}
			inCone[ti] = true
			conjs = append(conjs, n.conjuncts[n.tableConj[ti]])
			for _, cols := range [][]string{tables[ti].Inputs, tables[ti].Outputs} {
				for _, x := range cols {
					if !seen[x] {
						seen[x] = true
						queue = append(queue, x)
					}
				}
			}
		}
	}
	for ti := range tables {
		if !inCone[ti] && !lc.total[ti] {
			conjs = n.conjuncts
			break
		}
	}
	if lc.cones == nil {
		lc.cones = map[string][]quant.Conjunct{}
	}
	lc.cones[name] = conjs
	return conjs
}

// initLabelCones checks the structural conditions once per network and,
// when they hold, computes per-table totality and the present-state
// domain constraint every label carries.
func (n *Network) initLabelCones() {
	lc := &n.labels
	lc.dom = bdd.True
	tables := n.model.Tables
	latchOut := make(map[string]bool, len(n.latches))
	for _, l := range n.latches {
		latchOut[l.Src.Output] = true
	}
	lc.drivers = map[string][]int{}
	for ti, t := range tables {
		for _, o := range t.Outputs {
			if latchOut[o] || len(lc.drivers[o]) > 0 {
				return
			}
			lc.drivers[o] = append(lc.drivers[o], ti)
		}
	}
	// Combinational cycle check: depth-first over "table reads a signal
	// another table drives" (0 unvisited, 1 on the stack, 2 done).
	state := make([]int, len(tables))
	var cyclic func(ti int) bool
	cyclic = func(ti int) bool {
		state[ti] = 1
		for _, in := range tables[ti].Inputs {
			for _, tj := range lc.drivers[in] {
				if state[tj] == 1 || (state[tj] == 0 && cyclic(tj)) {
					return true
				}
			}
		}
		state[ti] = 2
		return false
	}
	for ti := range tables {
		if state[ti] == 0 && cyclic(ti) {
			return
		}
	}

	m := n.mgr
	lc.total = make([]bool, len(tables))
	for ti, t := range tables {
		var outBits []int
		for _, o := range t.Outputs {
			outBits = append(outBits, n.space.ByName(o).Bits()...)
		}
		inDom := bdd.True
		for _, in := range t.Inputs {
			inDom = m.And(inDom, n.space.ByName(in).Domain())
		}
		lc.total[ti] = m.Exists(n.conjuncts[n.tableConj[ti]].F, m.Cube(outBits)) == inDom
	}
	used := map[int]bool{}
	for _, c := range n.conjuncts {
		for _, b := range c.Support {
			used[b] = true
		}
	}
	dom := bdd.True
	for _, ps := range n.psVars {
		for _, b := range ps.Bits() {
			if used[b] {
				dom = m.And(dom, ps.Domain())
				break
			}
		}
	}
	lc.dom = m.IncRef(dom)
	lc.sound = true
}
