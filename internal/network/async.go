package network

import (
	"fmt"
	"sync/atomic"

	"hsis/internal/bdd"
	"hsis/internal/mdd"
	"hsis/internal/quant"
)

// Synchrony implements the extended c/s concurrency model of paper §4:
// "a synchrony tree is a tree whose leaves are the latches, and whose
// intermediate nodes are labeled with A (for asynchronous) and S (for
// synchronous). The semantics is that at every point in time only a
// subset of latches change their values. The subset to be updated is any
// set of latches that can be reached using the following procedure:
// start at the root, and at each synchronous node, choose all branches,
// whereas at each asynchronous node, choose one branch randomly."
// Latches outside the chosen subset hold their values.
type Synchrony struct {
	// Async marks an A node (choose one child); false is an S node
	// (choose all children).
	Async bool
	// Children of an interior node.
	Children []*Synchrony
	// Latches names latch outputs at a leaf (Children must be empty).
	Latches []string
}

// Leaf builds a leaf grouping the given latch outputs.
func Leaf(latches ...string) *Synchrony { return &Synchrony{Latches: latches} }

// Sync builds a synchronous interior node.
func Sync(children ...*Synchrony) *Synchrony { return &Synchrony{Children: children} }

// Async builds an asynchronous interior node.
func Async(children ...*Synchrony) *Synchrony {
	return &Synchrony{Async: true, Children: children}
}

// Interleaving is the fully asynchronous tree over all of the model's
// latches: exactly one latch updates per step — the classic interleaved
// shared-memory semantics the paper maps onto the c/s model.
func Interleaving(n *Network) *Synchrony {
	root := &Synchrony{Async: true}
	for _, l := range n.Latches() {
		root.Children = append(root.Children, Leaf(l.Src.Output))
	}
	return root
}

// asyncCounter disambiguates selector-variable names. Atomic: the
// daemon builds independent workspaces concurrently.
var asyncCounter atomic.Int64

// BuildAsyncT compiles the extended-c/s transition relation for the
// given synchrony tree over this network: the latches selected by the
// tree update according to the synchronous relations while the rest
// hold. Selector choices at A nodes are existentially quantified, so
// the result is again a relation over the PS/NS rails, usable with the
// same reachability and verification engines (paper §8 item 5: "it may
// be computationally advantageous to work on asynchronous
// specifications directly").
//
// The network must have been built with SkipMonolithic or not — the
// synchronous T is untouched; the caller receives a separate relation
// and can install it with SetT.
func (n *Network) BuildAsyncT(tree *Synchrony) (bdd.Ref, error) {
	m := n.mgr
	byOutput := make(map[string]*Latch, len(n.latches))
	for _, l := range n.latches {
		byOutput[l.Src.Output] = l
	}
	// selected(l): BDD over fresh selector variables, per latch.
	asyncID := asyncCounter.Add(1)
	selected := make(map[*Latch]bdd.Ref, len(n.latches))
	var selectorBits []int
	var walk func(t *Synchrony, path bdd.Ref) error
	selN := 0
	walk = func(t *Synchrony, path bdd.Ref) error {
		if len(t.Latches) > 0 {
			if len(t.Children) > 0 {
				return fmt.Errorf("network: synchrony node has both latches and children")
			}
			for _, name := range t.Latches {
				l := byOutput[name]
				if l == nil {
					return fmt.Errorf("network: synchrony tree names unknown latch %q", name)
				}
				if _, dup := selected[l]; dup {
					return fmt.Errorf("network: latch %q appears twice in the synchrony tree", name)
				}
				selected[l] = path
			}
			return nil
		}
		if len(t.Children) == 0 {
			return fmt.Errorf("network: empty synchrony node")
		}
		if !t.Async {
			for _, c := range t.Children {
				if err := walk(c, path); err != nil {
					return err
				}
			}
			return nil
		}
		// A node: a fresh selector variable picks one child.
		selN++
		sel := n.space.NewVar(fmt.Sprintf("_sel%d_%d", asyncID, selN), len(t.Children))
		selectorBits = append(selectorBits, sel.Bits()...)
		for i, c := range t.Children {
			if err := walk(c, m.And(path, sel.Eq(i))); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(tree, bdd.True); err != nil {
		return bdd.False, err
	}
	for _, l := range n.latches {
		if _, ok := selected[l]; !ok {
			return bdd.False, fmt.Errorf("network: latch %q missing from the synchrony tree", l.Src.Output)
		}
	}

	// Per-latch update constraint: when selected, the next state follows
	// the latch input; otherwise it holds. The synchronous NS rail may
	// reuse latch-input variables, so updating latches keep their usual
	// constraint vacuously (y IS the input); held latches need an
	// auxiliary next-state variable y', with the original input value
	// quantified away.
	aux := make([]*mdd.Var, len(n.latches))
	var auxConjs []quant.Conjunct
	var quantifyExtra []int
	for i, l := range n.latches {
		y := n.space.NewVar(fmt.Sprintf("_async%d_ns_%d", asyncID, i), l.PS.Card())
		aux[i] = y
		inVar := l.NS // synchronous next-state carrier (input or aux)
		upd := m.And(selected[l], y.EqVar(inVar))
		hold := m.And(m.Not(selected[l]), y.EqVar(l.PS))
		cons := m.Or(upd, hold)
		sup := append(append(append([]int(nil), y.Bits()...), inVar.Bits()...), l.PS.Bits()...)
		sup = append(sup, selectorBits...)
		auxConjs = append(auxConjs, quant.Conjunct{F: cons, Support: sup})
		quantifyExtra = append(quantifyExtra, inVar.Bits()...)
	}

	conjs := append(append([]quant.Conjunct(nil), n.conjuncts...), auxConjs...)
	qvars := append(append([]int(nil), n.nonState...), quantifyExtra...)
	qvars = append(qvars, selectorBits...)
	tAux := quant.AndExists(m, conjs, qvars, n.heur)

	// Map the auxiliary rail back onto the canonical NS rail.
	perm := n.space.Permutation(aux, n.nsVars)
	return m.Permute(tAux, perm), nil
}

// SetT installs a replacement transition relation (e.g. an asynchronous
// one from BuildAsyncT). The initial states and rails are unchanged.
func (n *Network) SetT(t bdd.Ref) {
	n.mgr.DecRef(n.T)
	n.T = n.mgr.IncRef(t)
	n.tBuilt = true
}
