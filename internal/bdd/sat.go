package bdd

import (
	"math/big"
	"sort"
)

// Satisfiability utilities: counting, witness extraction, support and
// structural metrics. Traversals either push the complement mark onto
// cofactors as they descend (top) or memoize on regular nodes and fold
// the mark into the result — SatCount uses the complement identity
// |¬f| = 2^n − |f| directly.

// SatCount returns the number of satisfying assignments of f over the
// given number of variables (typically Manager.NumVars(), but callers
// counting over a sub-space, e.g. state variables only, pass that
// sub-space's size and must ensure f's support lies within it).
// Fractions are accumulated in exact binary floating point (one mantissa
// bit per variable plus headroom): in float64 the complement identity
// 1 − (1 − x) cancels to zero for any set smaller than 2^-52 of the
// space, which is every individual state once a design has more than 52
// state bits. Only the final count is rounded to float64.
func (m *Manager) SatCount(f Ref, nvars int) float64 {
	m.check(f)
	prec := uint(m.numVars) + 64
	memo := make(map[Ref]*big.Float)
	// fraction of the full space satisfying f, times 2^nvars
	frac := m.satFrac(f, memo, prec)
	if frac.Sign() == 0 {
		return 0
	}
	total := new(big.Float).SetPrec(prec).SetMantExp(frac, nvars)
	out, _ := total.Float64()
	return out
}

// SatCountExact returns the exact number of satisfying assignments of f
// over nvars variables as a math/big integer. It shares SatCount's
// exact dyadic accumulation; the difference is purely the final
// rounding — SatCount rounds to float64 (silently losing precision once
// the count exceeds 2^53), while SatCountExact keeps every digit. The
// mantissa budget covers the worst case: frac is a dyadic rational with
// denominator at most 2^numVars, so frac·2^nvars is an integer needing
// at most numVars significant bits.
func (m *Manager) SatCountExact(f Ref, nvars int) *big.Int {
	m.check(f)
	prec := uint(m.numVars) + 64
	memo := make(map[Ref]*big.Float)
	frac := m.satFrac(f, memo, prec)
	if frac.Sign() == 0 {
		return new(big.Int)
	}
	total := new(big.Float).SetPrec(prec).SetMantExp(frac, nvars)
	out, acc := total.Int(nil)
	if acc != big.Exact {
		// Cannot happen under the precision argument above; fail loudly
		// rather than return a silently rounded "exact" count.
		panic("bdd: SatCountExact lost precision")
	}
	return out
}

// satFrac returns the fraction of all assignments satisfying f. The memo
// keys on regular nodes; complement marks become 1 − x on the way out.
func (m *Manager) satFrac(f Ref, memo map[Ref]*big.Float, prec uint) *big.Float {
	if f == False {
		return new(big.Float).SetPrec(prec)
	}
	if f == True {
		return new(big.Float).SetPrec(prec).SetInt64(1)
	}
	if isComp(f) {
		one := new(big.Float).SetPrec(prec).SetInt64(1)
		return one.Sub(one, m.satFrac(neg(f), memo, prec))
	}
	if v, ok := memo[f]; ok {
		return v
	}
	n := m.node(f)
	v := new(big.Float).SetPrec(prec)
	v.Add(m.satFrac(n.low, memo, prec), m.satFrac(n.high, memo, prec))
	v.SetMantExp(v, -1)
	memo[f] = v
	return v
}

// Literal is one variable assignment in a satisfying cube.
type Literal struct {
	Var int  // variable ID
	Val bool // assigned value
}

// AnySat returns one satisfying cube of f (assignments for the variables
// on one true-path; unmentioned variables are don't cares). Returns nil
// and false when f is unsatisfiable.
func (m *Manager) AnySat(f Ref) ([]Literal, bool) {
	m.check(f)
	if f == False {
		return nil, false
	}
	var out []Literal
	for f != True {
		level, low, high := m.top(f)
		v := int(m.level2var[level])
		if low != False {
			out = append(out, Literal{Var: v, Val: false})
			f = low
		} else {
			out = append(out, Literal{Var: v, Val: true})
			f = high
		}
	}
	return out, true
}

// AllSat invokes fn for every satisfying cube of f, where a cube is
// presented as a full slice indexed by variable ID with values 0, 1, or
// -1 (don't care). Iteration stops early if fn returns false.
func (m *Manager) AllSat(f Ref, fn func(cube []int8) bool) {
	m.check(f)
	cube := make([]int8, m.numVars)
	for i := range cube {
		cube[i] = -1
	}
	m.allSatRec(f, cube, fn)
}

func (m *Manager) allSatRec(f Ref, cube []int8, fn func([]int8) bool) bool {
	if f == False {
		return true
	}
	if f == True {
		return fn(cube)
	}
	level, low, high := m.top(f)
	v := m.level2var[level]
	cube[v] = 0
	if !m.allSatRec(low, cube, fn) {
		cube[v] = -1
		return false
	}
	cube[v] = 1
	if !m.allSatRec(high, cube, fn) {
		cube[v] = -1
		return false
	}
	cube[v] = -1
	return true
}

// Eval evaluates f under a complete assignment indexed by variable ID.
func (m *Manager) Eval(f Ref, assignment []bool) bool {
	m.check(f)
	for !m.IsTerminal(f) {
		level, low, high := m.top(f)
		if assignment[m.level2var[level]] {
			f = high
		} else {
			f = low
		}
	}
	return f == True
}

// Support returns the sorted variable IDs f depends on.
func (m *Manager) Support(f Ref) []int {
	m.check(f)
	seen := make(map[Ref]bool)
	vars := make(map[int]bool)
	m.supportRec(f, seen, vars)
	out := make([]int, 0, len(vars))
	for v := range vars {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func (m *Manager) supportRec(f Ref, seen map[Ref]bool, vars map[int]bool) {
	f = regular(f)
	if f == False || seen[f] {
		return
	}
	seen[f] = true
	n := m.node(f)
	vars[int(n.varID)] = true
	m.supportRec(n.low, seen, vars)
	m.supportRec(n.high, seen, vars)
}

// NodeCount returns the number of stored BDD nodes in f, including the
// terminal when it is reachable. f and ¬f have the same count.
func (m *Manager) NodeCount(f Ref) int {
	m.check(f)
	return m.countNodes(f)
}

// NodeCountMulti returns the number of distinct stored nodes in the
// shared forest rooted at the given functions.
func (m *Manager) NodeCountMulti(fs []Ref) int {
	for _, f := range fs {
		m.check(f)
	}
	return m.countNodes(fs...)
}

// countNodes counts the distinct stored nodes under roots. It marks
// them in m.counted, a bitmap that is all zero between calls (the
// visited bits are cleared on the way out), so a count costs a bit test
// per edge rather than a map insert per node.
func (m *Manager) countNodes(roots ...Ref) int {
	if n := (m.nodeCap + 63) / 64; len(m.counted) < n {
		m.counted = append(m.counted, make([]uint64, n-len(m.counted))...)
	}
	var seen []Ref // visited nodes, doubling as the work queue
	visit := func(f Ref) {
		f = regular(f)
		if w, b := f>>6, uint64(1)<<(uint(f)&63); m.counted[w]&b == 0 {
			m.counted[w] |= b
			seen = append(seen, f)
		}
	}
	for _, f := range roots {
		visit(f)
	}
	for i := 0; i < len(seen); i++ {
		if seen[i] != False {
			n := m.node(seen[i])
			visit(n.low)
			visit(n.high)
		}
	}
	for _, f := range seen {
		m.counted[f>>6] &^= uint64(1) << (uint(f) & 63)
	}
	return len(seen)
}

func (m *Manager) countRec(f Ref, seen map[Ref]bool) {
	f = regular(f)
	if seen[f] {
		return
	}
	seen[f] = true
	if f == False {
		return
	}
	n := m.node(f)
	m.countRec(n.low, seen)
	m.countRec(n.high, seen)
}

// PickCube returns a full minterm (one concrete satisfying assignment)
// of f over the variables in vars, preferring value 0 for don't-care
// positions. The result maps variable ID to value. Returns false when f
// is unsatisfiable.
func (m *Manager) PickCube(f Ref, vars []int) (map[int]bool, bool) {
	lits, ok := m.AnySat(f)
	if !ok {
		return nil, false
	}
	out := make(map[int]bool, len(vars))
	for _, v := range vars {
		out[v] = false
	}
	for _, l := range lits {
		out[l.Var] = l.Val
	}
	return out, true
}
