package bdd

// Don't-care based minimization operators (paper §1, item 3). Both take
// a care set c and return a function that agrees with f on c but may be
// anything outside it, chosen to make the BDD smaller.
//
// Constrain is the generalized cofactor of Coudert and Madre; it has the
// useful algebraic property f·c = constrain(f,c)·c and distributes over
// Boolean connectives, but can introduce variables not in f's support.
// Restrict is the "safe" variant that never grows the support of f.
//
// Both recursions commute with output complement — cofactoring ¬f along
// the care set complements every leaf of the recursion — so complement
// marks on f are normalized away at entry and the memo tables key on
// regular nodes only. The recursions memoize in per-call maps rather
// than the shared op caches.

type pairKey struct{ a, b Ref }

// Constrain returns the generalized cofactor f ↓ c. c must not be False.
func (m *Manager) Constrain(f, c Ref) Ref {
	m.check(f)
	m.check(c)
	if c == False {
		panic("bdd: Constrain with empty care set")
	}
	return m.constrainRec(f, c, make(map[pairKey]Ref))
}

func (m *Manager) constrainRec(f, c Ref, memo map[pairKey]Ref) Ref {
	if c == True || m.IsTerminal(f) {
		return f
	}
	if f == c {
		return True
	}
	if f == neg(c) {
		return False
	}
	if isComp(f) {
		return neg(m.constrainRec(neg(f), c, memo))
	}
	key := pairKey{f, c}
	if r, ok := memo[key]; ok {
		return r
	}
	lf, f0, f1 := m.top(f)
	lc, c0, c1 := m.top(c)
	top := lf
	if lc < top {
		top = lc
	}
	if lf != top {
		f0, f1 = f, f
	}
	if lc != top {
		c0, c1 = c, c
	}
	var r Ref
	switch {
	case c1 == False:
		r = m.constrainRec(f0, c0, memo)
	case c0 == False:
		r = m.constrainRec(f1, c1, memo)
	default:
		low := m.constrainRec(f0, c0, memo)
		high := m.constrainRec(f1, c1, memo)
		r = m.mk(top, low, high)
	}
	memo[key] = r
	return r
}

// Restrict returns the Coudert–Madre restrict of f with care set c: a
// function agreeing with f on c whose support is a subset of f's.
// c must not be False.
func (m *Manager) Restrict(f, c Ref) Ref {
	m.check(f)
	m.check(c)
	if c == False {
		panic("bdd: Restrict with empty care set")
	}
	r := m.restrictRec(f, c, make(map[pairKey]Ref))
	// Restrict is a heuristic: on rare inputs the recursion grows the
	// graph. f itself trivially agrees with f on the care set, so fall
	// back to it whenever minimization did not pay off.
	if r != f && m.countNodes(r) > m.countNodes(f) {
		r = f
	}
	return r
}

func (m *Manager) restrictRec(f, c Ref, memo map[pairKey]Ref) Ref {
	if c == True || m.IsTerminal(f) {
		return f
	}
	if f == c {
		return True
	}
	if f == neg(c) {
		return False
	}
	if isComp(f) {
		return neg(m.restrictRec(neg(f), c, memo))
	}
	key := pairKey{f, c}
	if r, ok := memo[key]; ok {
		return r
	}
	nf := *m.node(f)
	lf := m.var2level[nf.varID]
	lc, c0, c1 := m.top(c)
	var r Ref
	if lc < lf {
		// The care set constrains a variable f does not depend on:
		// drop it by existential quantification to stay in f's support.
		cc := m.or(c0, c1)
		r = m.restrictRec(f, cc, memo)
	} else if lc == lf {
		switch {
		case c1 == False:
			r = m.restrictRec(nf.low, c0, memo)
		case c0 == False:
			r = m.restrictRec(nf.high, c1, memo)
		default:
			low := m.restrictRec(nf.low, c0, memo)
			high := m.restrictRec(nf.high, c1, memo)
			r = m.mk(lf, low, high)
		}
	} else {
		low := m.restrictRec(nf.low, c, memo)
		high := m.restrictRec(nf.high, c, memo)
		r = m.mk(lf, low, high)
	}
	memo[key] = r
	return r
}

// Squeeze returns some function between lower and upper (pointwise),
// chosen heuristically to have a small BDD. It requires lower ≤ upper.
// This implements interval minimization used when bisimulation don't
// cares provide both a lower and an upper bound.
func (m *Manager) Squeeze(lower, upper Ref) Ref {
	m.check(lower)
	m.check(upper)
	if !m.Leq(lower, upper) {
		panic("bdd: Squeeze requires lower ≤ upper")
	}
	// care set = lower ∨ ¬upper; restrict lower to it.
	care := m.Or(lower, m.Not(upper))
	return m.Restrict(lower, care)
}
