package bdd

// Quantification. Cubes are BDDs that are conjunctions of positive
// literals; they name the set of variables to quantify. Cube nodes are
// always regular (their low edges are False), so cube traversal reads
// stored nodes directly. The quantification caches key on (operand,
// cube) pairs, so results survive across calls with different cubes — an
// image step (quantifying the present-state rail) no longer evicts the
// entries of the preimage step (quantifying the next-state rail) that
// alternates with it in every backward/forward fixpoint. With complement
// edges, universal quantification is derived — ∀x.f = ¬∃x.¬f — so a
// single Exists cache serves both quantifiers.

// Cube builds the positive cube over the given variable IDs.
func (m *Manager) Cube(vars []int) Ref {
	// Build bottom-up in level order for linear-size intermediate results.
	levels := make([]int32, 0, len(vars))
	for _, v := range vars {
		levels = append(levels, m.var2level[v])
	}
	sortInt32(levels)
	r := True
	for i := len(levels) - 1; i >= 0; i-- {
		if i+1 < len(levels) && levels[i] == levels[i+1] {
			continue // duplicate variable
		}
		r = m.mk(levels[i], False, r)
	}
	return r
}

// CubeVars decomposes a positive cube into the variable IDs it mentions.
func (m *Manager) CubeVars(cube Ref) []int {
	var out []int
	for cube != True {
		level, low, high := m.top(cube)
		if level == terminalLevel {
			panic("bdd: CubeVars on non-cube (reached False)")
		}
		if low != False {
			panic("bdd: CubeVars on non-cube (negative or shared literal)")
		}
		out = append(out, int(m.level2var[level]))
		cube = high
	}
	return out
}

// Exists existentially quantifies the variables of cube out of f.
func (m *Manager) Exists(f, cube Ref) Ref {
	m.check(f)
	m.check(cube)
	if cube == True || m.IsTerminal(f) {
		return f
	}
	return m.existsRec(f, cube)
}

// ForAll universally quantifies the variables of cube out of f. It is
// the complement-edge dual ¬∃x.¬f, sharing the Exists cache.
func (m *Manager) ForAll(f, cube Ref) Ref {
	m.check(f)
	m.check(cube)
	if cube == True || m.IsTerminal(f) {
		return f
	}
	return neg(m.existsRec(neg(f), cube))
}

// AndExists computes Exists(cube, f AND g) without building the full
// conjunction — the core "relational product" used by image computation.
func (m *Manager) AndExists(f, g, cube Ref) Ref {
	m.check(f)
	m.check(g)
	m.check(cube)
	if cube == True {
		return m.andRec(f, g)
	}
	return m.andExistsRec(f, g, cube)
}

func (m *Manager) existsRec(f, cube Ref) Ref {
	if m.IsTerminal(f) {
		return f
	}
	lf, f0, f1 := m.top(f)
	// Skip cube variables above f's top variable.
	for cube != True && m.levelOf(cube) < lf {
		cube = m.node(cube).high
	}
	if cube == True {
		return f
	}
	m.statQuantCalls++
	h := hash3(uint64(f), uint64(cube), 0x5eed)
	slot := &m.quant[h&m.quantMask]
	if slot.f == f && slot.cube == cube {
		m.statQuantHits++
		return slot.res
	}
	nc := m.node(cube)
	var r Ref
	if lf == m.var2level[nc.varID] {
		low := m.existsRec(f0, nc.high)
		if low == True {
			r = True
		} else {
			high := m.existsRec(f1, nc.high)
			r = m.or(low, high)
		}
	} else {
		low := m.existsRec(f0, cube)
		high := m.existsRec(f1, cube)
		r = m.mk(lf, low, high)
	}
	*slot = quantEntry{f: f, cube: cube, res: r}
	return r
}

func (m *Manager) andExistsRec(f, g, cube Ref) Ref {
	switch {
	case f == False, g == False, f == neg(g):
		return False
	case f == True:
		return m.existsRec(g, cube)
	case g == True, f == g:
		return m.existsRec(f, cube)
	}
	if f > g {
		f, g = g, f
	}
	lf, f0, f1 := m.top(f)
	lg, g0, g1 := m.top(g)
	top := lf
	if lg < top {
		top = lg
	}
	for cube != True && m.levelOf(cube) < top {
		cube = m.node(cube).high
	}
	if cube == True {
		return m.andRec(f, g)
	}
	m.statAexCalls++
	h := hash3(uint64(f), uint64(g), uint64(cube))
	slot := &m.aex[h&m.aexMask]
	if slot.f == f && slot.g == g && slot.cube == cube {
		m.statAexHits++
		return slot.res
	}
	if lf != top {
		f0, f1 = f, f
	}
	if lg != top {
		g0, g1 = g, g
	}
	nc := m.node(cube)
	var r Ref
	if m.var2level[nc.varID] == top {
		low := m.andExistsRec(f0, g0, nc.high)
		if low == True {
			r = True
		} else {
			high := m.andExistsRec(f1, g1, nc.high)
			r = m.or(low, high)
		}
	} else {
		low := m.andExistsRec(f0, g0, cube)
		high := m.andExistsRec(f1, g1, cube)
		r = m.mk(top, low, high)
	}
	*slot = aexEntry{f: f, g: g, cube: cube, res: r}
	return r
}

func sortInt32(a []int32) {
	// insertion sort; cubes are small
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
