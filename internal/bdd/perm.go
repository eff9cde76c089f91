package bdd

// Permuter: a variable permutation bound to a persistent memo table.
//
// Permute keys its memo per call, which is right for the rail swap (each
// call sees a different function). The isomorphism-exploiting image
// pipeline has the opposite profile: the same permutation is applied to
// a whole family of closely related functions (every cluster of a
// representative cone, again after every replan), and those functions
// share most of their subgraphs. A Permuter keeps the rebuild memo alive
// across calls, so a subgraph permuted once is never rebuilt again —
// replica instantiation degenerates to a memo walk.
//
// The memo maps regular stored nodes of input BDDs to their rebuilt
// images. Both keys and values can die: a GC recycles unreferenced
// nodes, and a reorder session rewrites the arena in place. The memo is
// therefore validated against the manager's GC and reorder counters on
// every call and discarded wholesale when either moved — correctness
// never depends on the cache, it only loses warmth.
//
// Permutations are variable-ID based, not level based, so a reorder does
// NOT change what a Permuter computes; it only invalidates the cached
// node mapping. Variables created after the Permuter (beyond len(perm))
// map to themselves, mirroring Permute.
type Permuter struct {
	m    *Manager
	perm []int
	memo map[Ref]Ref

	gcAt      int // GCCount the memo entries were built under
	reorderAt int // statReorders likewise
}

// NewPermuter binds a permutation over variable IDs to the manager with
// a persistent memo. The perm slice is retained, not copied; callers
// must not mutate it afterwards.
func (m *Manager) NewPermuter(perm []int) *Permuter {
	return &Permuter{
		m:         m,
		perm:      perm,
		memo:      make(map[Ref]Ref),
		gcAt:      m.GCCount,
		reorderAt: m.statReorders,
	}
}

// Permute returns f with every variable v replaced by perm[v], sharing
// rebuilt structure with every earlier call through the persistent memo.
func (p *Permuter) Permute(f Ref) Ref {
	m := p.m
	m.check(f)
	if len(p.perm) > m.numVars {
		panic("bdd: Permuter: permutation longer than variable count")
	}
	if m.GCCount != p.gcAt || m.statReorders != p.reorderAt {
		// Nodes may have been recycled (GC) or the arena rewritten in
		// place (reorder): every cached Ref is suspect. Drop the map.
		clear(p.memo)
		p.gcAt = m.GCCount
		p.reorderAt = m.statReorders
	}
	r := m.permuterRec(f, p)
	return r
}

// Size returns the number of live memo entries (observability hook).
func (p *Permuter) Size() int { return len(p.memo) }

func (m *Manager) permuterRec(f Ref, p *Permuter) Ref {
	if m.IsTerminal(f) {
		return f
	}
	// Permutation commutes with complement: fold the mark into the
	// result so f and ¬f share one memo entry.
	cm := f & compBit
	f ^= cm
	m.statPermCalls++
	if r, ok := p.memo[f]; ok {
		m.statPermHits++
		return r ^ cm
	}
	n := *m.node(f)
	v := int(n.varID)
	low := m.permuterRec(n.low, p)
	high := m.permuterRec(n.high, p)
	target := v
	if v < len(p.perm) {
		target = p.perm[v]
	}
	r := m.iteRec(m.varRef(target), high, low)
	p.memo[f] = r
	return r ^ cm
}
