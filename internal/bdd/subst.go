package bdd

// Substitution and permutation. These rebuild BDDs with memoized
// recursion; they are used to shift between present-state and next-state
// variable rails and to compose intermediate signal definitions into
// transition relations.
//
// All three recursions commute with output complement — substituting
// into ¬f complements every rebuilt leaf — so complement marks are
// normalized away at entry and the memos key on regular nodes.
//
// The memo has two representations, chosen per call by the size of the
// previous rebuild. Small rebuilds (a frontier set during the early
// fixpoint iterations) use a map: a few dozen entries stay in L1 and the
// per-call setup is one small allocation. Large rebuilds (shifting a
// converged reached set between variable rails) use a pair of
// epoch-stamped arrays indexed by stored-node id: no hashing, no
// allocation, O(1) reset by bumping the epoch — on a 60k-node input this
// is worth more than 2× — but for a tiny input those same arrays are
// pure cache-miss territory, which is why the map path survives.

// memoSmallMax is the crossover: a rebuild that visited fewer stored
// nodes than this keeps the map representation on the next call.
const memoSmallMax = 4096

// memoBegin opens a fresh stamped-array memo generation. The arrays are
// indexed by stored-node id and validated by the current epoch, so
// starting a new rebuild is O(1): bumping the epoch invalidates every
// previous entry without touching memory. Keys are always nodes of the
// input BDD, which exist before the call, so sizing the arrays at entry
// is sufficient even though the rebuild allocates new nodes.
func (m *Manager) memoBegin() {
	alloc := m.nodeCap
	if len(m.memoStamp) < alloc {
		// Grow geometrically: the node array grows continuously during a
		// cold build, and resizing the memo on every call would turn each
		// rebuild into an O(nodes) allocation.
		n := 2 * len(m.memoStamp)
		if n < alloc {
			n = alloc
		}
		m.memoVal = make([]Ref, n)
		m.memoStamp = make([]uint32, n)
		m.memoEpoch = 0
	}
	if m.memoEpoch++; m.memoEpoch == 0 { // epoch wrapped: stamps are stale
		clear(m.memoStamp)
		m.memoEpoch = 1
	}
	m.memoCount = 0
}

// Permute returns f with every variable v replaced by perm[v]. perm must
// be a permutation over variable IDs; identity entries are allowed and
// common. Variables beyond len(perm) — e.g. created after the
// permutation was built — map to themselves, so cached permutations stay
// valid as the manager grows.
func (m *Manager) Permute(f Ref, perm []int) Ref {
	m.check(f)
	if len(perm) > m.numVars {
		panic("bdd: Permute: permutation longer than variable count")
	}
	var r Ref
	if m.memoLast < memoSmallMax {
		memo := make(map[Ref]Ref, m.memoLast+16)
		r = m.permuteRecMap(f, perm, memo)
		m.memoLast = len(memo)
	} else {
		m.memoBegin()
		r = m.permuteRec(f, perm)
		m.memoLast = m.memoCount
	}
	return r
}

func (m *Manager) permuteRecMap(f Ref, perm []int, memo map[Ref]Ref) Ref {
	if m.IsTerminal(f) {
		return f
	}
	// Permutation commutes with complement, so fold the mark into the
	// result instead of spending a recursive call on it.
	cm := f & compBit
	f ^= cm
	if r, ok := memo[f]; ok {
		return r ^ cm
	}
	n := *m.node(f)
	v := int(n.varID)
	low := m.permuteRecMap(n.low, perm, memo)
	high := m.permuteRecMap(n.high, perm, memo)
	target := v
	if v < len(perm) {
		target = perm[v]
	}
	r := m.iteRec(m.varRef(target), high, low)
	memo[f] = r
	return r ^ cm
}

func (m *Manager) permuteRec(f Ref, perm []int) Ref {
	if m.IsTerminal(f) {
		return f
	}
	cm := f & compBit
	f ^= cm
	if m.memoStamp[f] == m.memoEpoch {
		return m.memoVal[f] ^ cm
	}
	n := *m.node(f)
	v := int(n.varID)
	low := m.permuteRec(n.low, perm)
	high := m.permuteRec(n.high, perm)
	target := v
	if v < len(perm) {
		target = perm[v]
	}
	r := m.iteRec(m.varRef(target), high, low)
	m.memoStamp[f] = m.memoEpoch
	m.memoVal[f] = r
	m.memoCount++
	return r ^ cm
}

// Compose substitutes g for variable v in f: f[v := g].
func (m *Manager) Compose(f Ref, v int, g Ref) Ref {
	m.check(f)
	m.check(g)
	if v < 0 || v >= m.numVars {
		panic("bdd: Compose: variable out of range")
	}
	var r Ref
	if m.memoLast < memoSmallMax {
		memo := make(map[Ref]Ref, m.memoLast+16)
		r = m.composeRecMap(f, m.var2level[v], g, memo)
		m.memoLast = len(memo)
	} else {
		m.memoBegin()
		r = m.composeRec(f, m.var2level[v], g)
		m.memoLast = m.memoCount
	}
	return r
}

func (m *Manager) composeRecMap(f Ref, level int32, g Ref, memo map[Ref]Ref) Ref {
	if m.levelOf(f) > level {
		// f does not depend on the substituted variable.
		return f
	}
	cm := f & compBit
	f ^= cm
	if r, ok := memo[f]; ok {
		return r ^ cm
	}
	n := *m.node(f)
	var r Ref
	if m.var2level[n.varID] == level {
		r = m.iteRec(g, n.high, n.low)
	} else {
		low := m.composeRecMap(n.low, level, g, memo)
		high := m.composeRecMap(n.high, level, g, memo)
		// The substituted function g may depend on variables above
		// f's root, so rebuild with ITE on the root variable rather
		// than mk.
		r = m.iteRec(m.varRef(int(n.varID)), high, low)
	}
	memo[f] = r
	return r ^ cm
}

func (m *Manager) composeRec(f Ref, level int32, g Ref) Ref {
	if m.levelOf(f) > level {
		return f
	}
	cm := f & compBit
	f ^= cm
	if m.memoStamp[f] == m.memoEpoch {
		return m.memoVal[f] ^ cm
	}
	n := *m.node(f)
	var r Ref
	if m.var2level[n.varID] == level {
		r = m.iteRec(g, n.high, n.low)
	} else {
		low := m.composeRec(n.low, level, g)
		high := m.composeRec(n.high, level, g)
		r = m.iteRec(m.varRef(int(n.varID)), high, low)
	}
	m.memoStamp[f] = m.memoEpoch
	m.memoVal[f] = r
	m.memoCount++
	return r ^ cm
}

// VectorCompose simultaneously substitutes subst[v] for each variable v
// present in the map. Substitution is simultaneous, not sequential: the
// replacement functions are interpreted over the original variables.
func (m *Manager) VectorCompose(f Ref, subst map[int]Ref) Ref {
	m.check(f)
	if len(subst) == 0 {
		return f
	}
	byLevel := make(map[int32]Ref, len(subst))
	for v, g := range subst {
		m.check(g)
		byLevel[m.var2level[v]] = g
	}
	var r Ref
	if m.memoLast < memoSmallMax {
		memo := make(map[Ref]Ref, m.memoLast+16)
		r = m.vectorComposeRecMap(f, byLevel, memo)
		m.memoLast = len(memo)
	} else {
		m.memoBegin()
		r = m.vectorComposeRec(f, byLevel)
		m.memoLast = m.memoCount
	}
	return r
}

func (m *Manager) vectorComposeRecMap(f Ref, byLevel map[int32]Ref, memo map[Ref]Ref) Ref {
	if m.IsTerminal(f) {
		return f
	}
	cm := f & compBit
	f ^= cm
	if r, ok := memo[f]; ok {
		return r ^ cm
	}
	n := *m.node(f)
	low := m.vectorComposeRecMap(n.low, byLevel, memo)
	high := m.vectorComposeRecMap(n.high, byLevel, memo)
	g, ok := byLevel[m.var2level[n.varID]]
	if !ok {
		g = m.varRef(int(n.varID))
	}
	r := m.iteRec(g, high, low)
	memo[f] = r
	return r ^ cm
}

func (m *Manager) vectorComposeRec(f Ref, byLevel map[int32]Ref) Ref {
	if m.IsTerminal(f) {
		return f
	}
	cm := f & compBit
	f ^= cm
	if m.memoStamp[f] == m.memoEpoch {
		return m.memoVal[f] ^ cm
	}
	n := *m.node(f)
	low := m.vectorComposeRec(n.low, byLevel)
	high := m.vectorComposeRec(n.high, byLevel)
	g, ok := byLevel[m.var2level[n.varID]]
	if !ok {
		g = m.varRef(int(n.varID))
	}
	r := m.iteRec(g, high, low)
	m.memoStamp[f] = m.memoEpoch
	m.memoVal[f] = r
	m.memoCount++
	return r ^ cm
}
