// Package mdd layers multi-valued decision-diagram variables on top of
// binary BDDs. BLIF-MV variables range over arbitrary finite domains;
// each is log-encoded onto ⌈log₂ card⌉ binary variables of the
// underlying bdd.Manager (paper §4: "Multiple-valued variables are very
// useful in describing state transition graphs symbolically").
//
// Encodings with an index ≥ the cardinality are invalid; Domain()
// characterizes valid codes, and every relation built by the network
// layer constrains outputs to valid codes, so invalid codes never enter
// reachable-state computations.
package mdd

import (
	"fmt"

	"hsis/internal/bdd"
)

// Space owns a set of multi-valued variables over one bdd.Manager.
// Binary variables are allocated in variable creation order, so callers
// control the BDD variable order by the order in which they create MDD
// variables (the basis of the static ordering algorithm, paper ref [1]).
type Space struct {
	mgr    *bdd.Manager
	vars   []*Var
	byName map[string]*Var
}

// Var is one multi-valued variable: a name, a cardinality, and the
// binary BDD variables that encode it (least-significant bit first).
type Var struct {
	space *Space
	name  string
	card  int
	bits  []int // BDD variable IDs, LSB first
	index int   // position within the Space
}

// NewSpace creates an empty variable space over m.
func NewSpace(m *bdd.Manager) *Space {
	return &Space{mgr: m, byName: make(map[string]*Var)}
}

// Manager returns the underlying BDD manager.
func (s *Space) Manager() *bdd.Manager { return s.mgr }

// Vars returns the variables in creation order.
func (s *Space) Vars() []*Var {
	return s.vars
}

// ByName returns the variable with the given name, or nil.
func (s *Space) ByName(name string) *Var {
	return s.byName[name]
}

// NewVar creates a multi-valued variable with the given cardinality,
// allocating fresh binary variables at the bottom of the current order.
// Cardinality must be at least 1; a cardinality-1 variable occupies no
// binary variables and is constantly 0.
func (s *Space) NewVar(name string, card int) *Var {
	if card < 1 {
		panic(fmt.Sprintf("mdd: variable %q with cardinality %d", name, card))
	}
	if _, dup := s.byName[name]; dup {
		panic(fmt.Sprintf("mdd: duplicate variable %q", name))
	}
	v := &Var{space: s, name: name, card: card, index: len(s.vars)}
	for n := card - 1; n > 0; n >>= 1 {
		ref := s.mgr.NewVar()
		v.bits = append(v.bits, s.mgr.VarOf(ref))
	}
	if len(v.bits) > 1 {
		// The bits of one multi-valued variable move as an atomic block
		// under dynamic reordering: value-level locality is what the
		// log encoding exploits, and Eq/In/Domain rebuilds stay cheap.
		s.mgr.GroupVars(v.bits)
	}
	s.vars = append(s.vars, v)
	s.byName[name] = v
	return v
}

// Name returns the variable's name.
func (v *Var) Name() string { return v.name }

// Card returns the variable's cardinality.
func (v *Var) Card() int { return v.card }

// Bits returns the binary BDD variable IDs encoding v, LSB first.
func (v *Var) Bits() []int { return v.bits }

// NumBits returns the number of binary variables encoding v.
func (v *Var) NumBits() int { return len(v.bits) }

// Eq returns the BDD asserting v == val.
func (v *Var) Eq(val int) bdd.Ref {
	if val < 0 || val >= v.card {
		panic(fmt.Sprintf("mdd: %s==%d out of domain [0,%d)", v.name, val, v.card))
	}
	m := v.space.mgr
	r := bdd.True
	for i, b := range v.bits {
		if val&(1<<i) != 0 {
			r = m.And(r, m.Var(b))
		} else {
			r = m.And(r, m.NVar(b))
		}
	}
	return r
}

// In returns the BDD asserting v ∈ vals.
func (v *Var) In(vals []int) bdd.Ref {
	m := v.space.mgr
	r := bdd.False
	for _, val := range vals {
		r = m.Or(r, v.Eq(val))
	}
	return r
}

// Domain returns the BDD of valid encodings (codes below the
// cardinality). For power-of-two cardinalities this is True.
func (v *Var) Domain() bdd.Ref {
	m := v.space.mgr
	r := bdd.False
	if 1<<len(v.bits) == v.card || v.card == 1 {
		return bdd.True
	}
	for val := 0; val < v.card; val++ {
		r = m.Or(r, v.Eq(val))
	}
	return r
}

// EqVar returns the BDD asserting v == o, bit-wise. The variables must
// have the same cardinality.
func (v *Var) EqVar(o *Var) bdd.Ref {
	if v.card != o.card {
		panic(fmt.Sprintf("mdd: EqVar cardinality mismatch %s(%d) vs %s(%d)", v.name, v.card, o.name, o.card))
	}
	m := v.space.mgr
	r := bdd.True
	for i := range v.bits {
		r = m.And(r, m.Equiv(m.Var(v.bits[i]), m.Var(o.bits[i])))
	}
	return r
}

// Cube returns the cube of v's binary variables, for quantification.
func (v *Var) Cube() bdd.Ref {
	return v.space.mgr.Cube(v.bits)
}

// Value decodes v's value from a complete binary assignment indexed by
// BDD variable ID.
func (v *Var) Value(assignment []bool) int {
	val := 0
	for i, b := range v.bits {
		if assignment[b] {
			val |= 1 << i
		}
	}
	return val
}

// ValueFromMap decodes v's value from a partial assignment map; missing
// bits read as 0.
func (v *Var) ValueFromMap(assignment map[int]bool) int {
	val := 0
	for i, b := range v.bits {
		if assignment[b] {
			val |= 1 << i
		}
	}
	return val
}

// CubeOf builds the quantification cube over all binary variables of the
// given multi-valued variables.
func (s *Space) CubeOf(vars []*Var) bdd.Ref {
	var bits []int
	for _, v := range vars {
		bits = append(bits, v.bits...)
	}
	return s.mgr.Cube(bits)
}

// Permutation builds a BDD variable permutation that maps each variable
// in from to the corresponding variable in to (and vice versa). The
// slices must be parallel and each pair must have equal bit width.
// Identity elsewhere. The result is suitable for bdd.Manager.Permute.
func (s *Space) Permutation(from, to []*Var) []int {
	perm := make([]int, s.mgr.NumVars())
	for i := range perm {
		perm[i] = i
	}
	if len(from) != len(to) {
		panic("mdd: Permutation: slice length mismatch")
	}
	for i := range from {
		f, t := from[i], to[i]
		if len(f.bits) != len(t.bits) {
			panic(fmt.Sprintf("mdd: Permutation: width mismatch %s vs %s", f.name, t.name))
		}
		for j := range f.bits {
			perm[f.bits[j]] = t.bits[j]
			perm[t.bits[j]] = f.bits[j]
		}
	}
	return perm
}
