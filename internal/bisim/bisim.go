// Package bisim computes bisimulation equivalence symbolically (paper
// §1, item 6: "Support for state minimization using bisimulation and
// similar techniques") and derives don't-care sets from it to minimize
// BDDs in intermediate computations (item 3: "One source of don't cares
// comes from state equivalences, such as bisimulation").
//
// The equivalence relation R(x, x̂) lives over the present-state rail and
// a fresh shadow rail. It is the greatest fixed point of the classic
// refinement: states are equivalent when they agree on all observations
// and every successor of one can be matched by an R-equivalent successor
// of the other (both directions).
package bisim

import (
	"fmt"
	"sync/atomic"

	"hsis/internal/bdd"
	"hsis/internal/mdd"
	"hsis/internal/network"
)

// Relation is a computed bisimulation relation.
type Relation struct {
	N *network.Network
	// R relates the PS rail with the shadow rail.
	R bdd.Ref
	// Iterations counts refinement rounds to the fixed point.
	Iterations int

	shPS, shNS  []*mdd.Var
	toShadow    []int // PS↔shadow-PS, NS↔shadow-NS (involution)
	toNextPairs []int // PS→NS and shadowPS→shadowNS (involution)
	tShadow     bdd.Ref
}

// shadowCounter disambiguates shadow-rail variable names. Atomic: the
// daemon builds independent workspaces concurrently.
var shadowCounter atomic.Int64

// Compute derives the coarsest bisimulation that distinguishes the given
// observation sets (BDDs over the PS rail). Typical observations are the
// atomic-proposition labels occurring in the properties to check; pass
// every latch's value labels for classical machine equivalence.
func Compute(n *network.Network, obs []bdd.Ref) *Relation {
	m := n.Manager()
	id := shadowCounter.Add(1)
	r := &Relation{N: n}
	n.EnsureT() // the refinement quantifies universally over T's successors
	// Shadow rails.
	for _, v := range n.PSVars() {
		r.shPS = append(r.shPS, n.Space().NewVar(shadowName(v.Name(), "ps", id), v.Card()))
	}
	for _, v := range n.NSVars() {
		r.shNS = append(r.shNS, n.Space().NewVar(shadowName(v.Name(), "ns", id), v.Card()))
	}
	all := append(append([]*mdd.Var(nil), n.PSVars()...), n.NSVars()...)
	shAll := append(append([]*mdd.Var(nil), r.shPS...), r.shNS...)
	r.toShadow = n.Space().Permutation(all, shAll)
	pairs := append(append([]*mdd.Var(nil), n.PSVars()...), r.shPS...)
	nextPairs := append(append([]*mdd.Var(nil), n.NSVars()...), r.shNS...)
	r.toNextPairs = n.Space().Permutation(pairs, nextPairs)
	r.tShadow = m.Permute(n.T, r.toShadow)

	// R0: agreement on every observation (and both states valid).
	rel := bdd.True
	for _, o := range obs {
		rel = m.And(rel, m.Equiv(o, m.Permute(o, r.toShadow)))
	}
	for i, v := range n.PSVars() {
		rel = m.And(rel, v.Domain())
		rel = m.And(rel, r.shPS[i].Domain())
	}

	nsCube := n.NSCube()
	shNSCube := n.Space().CubeOf(r.shNS)
	for {
		r.Iterations++
		primed := m.Permute(rel, r.toNextPairs) // R(x', x̂')
		// x̂ can match x: ∀x'. T(x,x') → ∃x̂'. T̂(x̂,x̂') ∧ R(x',x̂')
		canMatch := m.AndExists(r.tShadow, primed, shNSCube)
		fwd := m.Not(m.AndExists(n.T, m.Not(canMatch), nsCube))
		// symmetric direction
		canMatch2 := m.AndExists(n.T, primed, nsCube)
		bwd := m.Not(m.AndExists(r.tShadow, m.Not(canMatch2), shNSCube))
		next := m.AndN(rel, fwd, bwd)
		if next == rel {
			break
		}
		rel = next
	}
	r.R = m.IncRef(rel)
	return r
}

func shadowName(base, rail string, id int64) string {
	return fmt.Sprintf("%s$bisim%s%d", base, rail, id)
}

// toShadowSet maps a PS-rail set onto the shadow rail.
func (r *Relation) toShadowSet(set bdd.Ref) bdd.Ref {
	return r.N.Manager().Permute(set, r.toShadow)
}

// Closure returns the union of the equivalence classes met by set: the
// largest set verification cannot distinguish from it.
func (r *Relation) Closure(set bdd.Ref) bdd.Ref {
	m := r.N.Manager()
	sh := r.toShadowSet(set)
	shCube := r.N.Space().CubeOf(r.shPS)
	return m.AndExists(r.R, sh, shCube)
}

// Interior returns the union of classes entirely contained in set.
func (r *Relation) Interior(set bdd.Ref) bdd.Ref {
	m := r.N.Manager()
	return m.Not(r.Closure(m.Not(set)))
}

// MinimizeSet returns a BDD-minimized set equivalent to the input up to
// bisimulation: any set between Interior(set) and Closure(set) is
// indistinguishable by bisimulation-respecting properties; the smallest
// BDD in that interval (heuristically) is chosen. For class-closed sets
// the result is exact.
func (r *Relation) MinimizeSet(set bdd.Ref) bdd.Ref {
	m := r.N.Manager()
	lower := m.And(r.Interior(set), set)
	upper := m.Or(r.Closure(set), set)
	return m.Squeeze(lower, upper)
}

// Equivalent reports whether two concrete states are bisimilar.
func (r *Relation) Equivalent(a, b map[int]bool) bool {
	m := r.N.Manager()
	sa := r.N.StateEq(a)
	sb := r.toShadowSet(r.N.StateEq(b))
	return m.AndN(r.R, sa, sb) != bdd.False
}

// NumClasses counts the equivalence classes within the given set by
// repeatedly extracting a representative and removing its class.
func (r *Relation) NumClasses(within bdd.Ref) int {
	m := r.N.Manager()
	rest := within
	classes := 0
	for rest != bdd.False {
		asg, ok := r.N.PickState(rest)
		if !ok {
			break
		}
		cls := r.ClassOf(asg)
		rest = m.Diff(rest, cls)
		classes++
	}
	return classes
}

// ClassOf returns the equivalence class of one concrete state, as a set
// over the PS rail.
func (r *Relation) ClassOf(state map[int]bool) bdd.Ref {
	m := r.N.Manager()
	sh := r.toShadowSet(r.N.StateEq(state))
	shCube := r.N.Space().CubeOf(r.shPS)
	return m.AndExists(r.R, sh, shCube)
}
