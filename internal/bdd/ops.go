package bdd

// Boolean connectives. With complement edges only two recursions are
// needed: AND and XOR. Everything else is derived through De Morgan
// identities that cost a sign flip — Or(f,g) = ¬(¬f ∧ ¬g) shares the
// AND cache, Not is a single XOR — so f, ¬f, f∧g, ¬f∨¬g … all draw on
// one shared DAG and one set of cache entries. Results are canonical by
// construction.

// Not returns the complement of f in O(1): complement edges make
// negation a sign flip, with no node allocation and no recursion.
func (m *Manager) Not(f Ref) Ref {
	m.check(f)
	return neg(f)
}

// And returns f AND g.
func (m *Manager) And(f, g Ref) Ref {
	m.check(f)
	m.check(g)
	return m.andRec(f, g)
}

// Or returns f OR g.
func (m *Manager) Or(f, g Ref) Ref {
	m.check(f)
	m.check(g)
	return m.or(f, g)
}

// Xor returns f XOR g.
func (m *Manager) Xor(f, g Ref) Ref {
	m.check(f)
	m.check(g)
	return m.xorRec(f, g)
}

// Diff returns f AND NOT g.
func (m *Manager) Diff(f, g Ref) Ref {
	m.check(f)
	m.check(g)
	return m.andRec(f, neg(g))
}

// Implies returns NOT f OR g.
func (m *Manager) Implies(f, g Ref) Ref {
	m.check(f)
	m.check(g)
	return neg(m.andRec(f, neg(g)))
}

// Equiv returns the biconditional f XNOR g.
func (m *Manager) Equiv(f, g Ref) Ref {
	m.check(f)
	m.check(g)
	return neg(m.xorRec(f, g))
}

// ITE returns if-then-else(f, g, h) = f·g + f'·h.
func (m *Manager) ITE(f, g, h Ref) Ref {
	m.check(f)
	m.check(g)
	m.check(h)
	return m.iteRec(f, g, h)
}

// AndN folds And over its arguments; AndN() is True.
func (m *Manager) AndN(fs ...Ref) Ref {
	r := True
	for _, f := range fs {
		m.check(f)
		r = m.andRec(r, f)
		if r == False {
			break
		}
	}
	return r
}

// OrN folds Or over its arguments; OrN() is False.
func (m *Manager) OrN(fs ...Ref) Ref {
	r := False
	for _, f := range fs {
		m.check(f)
		r = m.or(r, f)
		if r == True {
			break
		}
	}
	return r
}

// Leq reports whether f implies g (f ≤ g pointwise).
func (m *Manager) Leq(f, g Ref) bool {
	return m.andRec(f, neg(g)) == False
}

// or is the internal disjunction: ¬(¬f ∧ ¬g), sharing the AND cache.
func (m *Manager) or(f, g Ref) Ref {
	return neg(m.andRec(neg(f), neg(g)))
}

func (m *Manager) andRec(f, g Ref) Ref {
	// Terminal and complement-identity cases.
	switch {
	case f == g:
		return f
	case f == neg(g), f == False, g == False:
		return False
	case f == True:
		return g
	case g == True:
		return f
	}
	if f > g {
		f, g = g, f
	}
	m.statApplyCalls++
	h := hash3(opAnd, uint64(f), uint64(g))
	slot := &m.binop[h&m.binopMask]
	if slot.op == opAnd && slot.f == f && slot.g == g {
		m.statApplyHits++
		return slot.res
	}
	lf, f0, f1 := m.top(f)
	lg, g0, g1 := m.top(g)
	level := lf
	if lg < level {
		level = lg
	}
	if lf != level {
		f0, f1 = f, f
	}
	if lg != level {
		g0, g1 = g, g
	}
	low := m.andRec(f0, g0)
	high := m.andRec(f1, g1)
	r := m.mk(level, low, high)
	*slot = binopEntry{op: opAnd, f: f, g: g, res: r}
	return r
}

func (m *Manager) xorRec(f, g Ref) Ref {
	switch {
	case f == g:
		return False
	case f == neg(g):
		return True
	case f == False:
		return g
	case g == False:
		return f
	case f == True:
		return neg(g)
	case g == True:
		return neg(f)
	}
	// XOR commutes with complement on either input: ¬f ⊕ g = ¬(f ⊕ g).
	// Strip both marks, recurse on the regular pair, and re-apply the
	// parity to the result, so all four sign combinations share one
	// cache entry.
	cm := (f ^ g) & compBit
	f, g = regular(f), regular(g)
	if f > g {
		f, g = g, f
	}
	m.statApplyCalls++
	h := hash3(opXor, uint64(f), uint64(g))
	slot := &m.binop[h&m.binopMask]
	if slot.op == opXor && slot.f == f && slot.g == g {
		m.statApplyHits++
		return slot.res ^ cm
	}
	lf, f0, f1 := m.top(f)
	lg, g0, g1 := m.top(g)
	level := lf
	if lg < level {
		level = lg
	}
	if lf != level {
		f0, f1 = f, f
	}
	if lg != level {
		g0, g1 = g, g
	}
	low := m.xorRec(f0, g0)
	high := m.xorRec(f1, g1)
	r := m.mk(level, low, high)
	*slot = binopEntry{op: opXor, f: f, g: g, res: r}
	return r ^ cm
}

func (m *Manager) iteRec(f, g, h Ref) Ref {
	// Terminal and simplification cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	}
	if g == f {
		g = True
	} else if g == neg(f) {
		g = False
	}
	if h == f {
		h = False
	} else if h == neg(f) {
		h = True
	}
	// Reductions to the binary recursions keep the cache hit rate high.
	switch {
	case g == True && h == False:
		return f
	case g == False && h == True:
		return neg(f)
	case g == True:
		return m.or(f, h)
	case g == False:
		return m.andRec(neg(f), h)
	case h == False:
		return m.andRec(f, g)
	case h == True:
		return neg(m.andRec(f, neg(g))) // f → g
	case g == neg(h):
		return m.xorRec(f, h)
	}
	// Complement normalization: ITE(¬f,g,h) = ITE(f,h,g) makes the first
	// argument regular, and ITE(f,¬g,h) = ¬ITE(f,g,¬h) makes the second
	// regular, so the cache stores one canonical triple per function.
	if isComp(f) {
		f, g, h = neg(f), h, g
	}
	var cm Ref
	if isComp(g) {
		cm = compBit
		g, h = neg(g), neg(h)
	}
	m.statITECalls++
	hh := hash3(uint64(f), uint64(g), uint64(h))
	slot := &m.ite[hh&m.iteMask]
	if slot.f == f && slot.g == g && slot.h == h {
		m.statITEHits++
		return slot.res ^ cm
	}
	lf, f0, f1 := m.top(f)
	lg, g0, g1 := m.top(g)
	lh, h0, h1 := m.top(h)
	level := lf
	if lg < level {
		level = lg
	}
	if lh < level {
		level = lh
	}
	if lf != level {
		f0, f1 = f, f
	}
	if lg != level {
		g0, g1 = g, g
	}
	if lh != level {
		h0, h1 = h, h
	}
	low := m.iteRec(f0, g0, h0)
	high := m.iteRec(f1, g1, h1)
	r := m.mk(level, low, high)
	*slot = iteEntry{f: f, g: g, h: h, res: r}
	return r ^ cm
}
