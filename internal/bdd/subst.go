package bdd

// Variable permutation. Permute rebuilds a BDD with memoized recursion;
// it shifts sets and relations between the present-state and next-state
// variable rails.
//
// The recursion commutes with output complement — permuting ¬f
// complements every rebuilt leaf — so complement marks are normalized
// away at entry and the memo keys on regular nodes.
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
