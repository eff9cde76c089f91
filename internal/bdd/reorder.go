package bdd

// Dynamic variable reordering: the kernel half of the sifting subsystem
// (the search strategy lives in internal/reorder). A ReorderSession
// exposes the one primitive reordering needs — swapping two adjacent
// levels in place — while keeping every Ref that is protected by IncRef
// (directly or transitively) valid and denoting the same Boolean
// function. The contract is exactly the GC contract: starting a session
// may reclaim nodes no protected root reaches, so callers protect what
// they hold, and in exchange never need to translate a single Ref.
//
// The swap itself is the classic Rudell in-place exchange adapted to
// complement edges. Writing u for the variable at level l and v for the
// one at l+1, a node f = (u, F0, F1) whose cofactors depend on v is
// rewritten in place as f = (v, G0, G1) with G0 = (u, F00, F10) and
// G1 = (u, F01, F11): the stored slot keeps its index (so parents and
// external Refs are untouched) while the node it holds changes label.
// Complement edges add two wrinkles. First, cofactoring F1 through a
// complemented high edge pushes the mark onto F1's children (F10, F11
// pick up the mark). Second, the canonical low-edge-never-complemented
// rule must be re-established for the new inner nodes: G0 inherits F00,
// which is a stored low edge and hence always regular, so the rewritten
// node itself is safe, but G1's low edge F01 is a stored *high* edge and
// may carry the mark — swapMk re-roots exactly like mk does, returning
// the complement of the flipped twin.
//
// Nodes store variable IDs, not levels (see the node type), which is
// what makes swaps cheap. A u-node with no v-child keeps its triple
// verbatim and "moves" purely through the final order-map update; a
// v-node is never visited at all — it either survives untouched or is
// released when a rewrite severs its last reference. Only the nodes
// that genuinely couple the two variables are rewritten. When the two
// variables do not interact anywhere there is nothing to rewrite and
// the swap degenerates to exchanging two order-map entries: O(1),
// independent of the populations. MoveBlock extends that to whole
// non-interacting spans in a single order-map rotation.
//
// During a session the unique table is stale (Close rebuilds
// it), so no mk/mkNode may run; the session keeps its own exact index
// instead — a map keyed on the stored triple (varID, low, high), which
// relabel-free moves never touch. A rewritten node's new (v, G0, G1)
// key cannot collide with a stale (v, b0, b1) one: a rewritten node
// keeps its dependence on u, so at least one of G0, G1 is an inner
// u-node — a slot the stale keys, whose children all lie strictly below
// the pair, cannot mention at that position. Per-variable node
// populations are maintained incrementally in bucket lists, which
// doubles as the level-size signal sifting uses (a variable occupies
// exactly one level).
//
// StartReorder also computes the variable interaction matrix: bit v of
// row u is set when u and v co-occur in the support of some live
// function (protected or garbage — the walk starts from every parentless
// node, so a session opened without a prior GC is still covered). Two
// facts make it load-bearing. A node's own variable and its children's
// variables all lie in the support of any function reaching it, so
// "u and v do not interact" implies no u-node has a v-child or vice
// versa; and swaps preserve every function (garbage included — rewrites
// are function-preserving, releases only drop whole functions), so the
// matrix stays valid for the life of the session. When the two levels
// being swapped do not interact, Swap degenerates to relabeling
// the two buckets: no snapshot, no map traffic, no cofactoring, no
// allocation or release — the driver counts these as interaction skips.
// Operation caches are function-keyed, so surviving entries stay
// semantically correct across swaps; the only invalid entries are those
// naming a slot freed during the session (possibly since reused), which
// Close sweeps out via a sticky "tainted" bitmap.

import (
	"fmt"
	"sort"
	"time"

	"hsis/internal/telemetry"
)

// ReorderPolicy names the dynamic-reordering modes the CLIs surface as
// -reorder: no reordering at all, reordering only on explicit request,
// or growth-triggered automatic sifting.
type ReorderPolicy int

const (
	ReorderOff ReorderPolicy = iota
	ReorderManual
	ReorderAuto
)

func (p ReorderPolicy) String() string {
	switch p {
	case ReorderManual:
		return "manual"
	case ReorderAuto:
		return "auto"
	default:
		return "off"
	}
}

// ReorderSession is an open reordering transaction on a Manager. Between
// StartReorder and Close only session methods may touch the manager (no
// BDD operations), and the GC protection contract applies to the whole
// session: Refs not reachable from an IncRef'd root may be reclaimed.
type ReorderSession struct {
	m *Manager

	// ref[i] counts why slot i must stay: its external references plus
	// one per allocated parent node (dead parents included — a node is
	// only reclaimed when the session itself severs its last edge, which
	// is how unprotected garbage melts away as its levels are swapped).
	ref []int32

	// bucket[v] lists exactly the slots labeled with variable v; pos[i]
	// is slot i's index within its bucket (swap-remove bookkeeping).
	bucket [][]Ref
	pos    []int32

	free    []uint64 // slots currently on the free list
	tainted []uint64 // slots freed at any point during the session (sticky across reuse)

	// uniq is the session's unique index: every live triple.
	uniq map[node]Ref

	// imat is the variable interaction matrix (numVars rows of imatW
	// words): bit v of row u set iff u,v co-occur in a live support.
	// useInter gates the fast-path swap (ablation switch).
	imat     []uint64
	imatW    int
	useInter bool

	// Scratch buffers reused across swaps.
	relStack []Ref
	sa       []Ref
	inter    []Ref
	rot      []int32

	swaps      int // adjacent-level swaps performed
	interSkips int // crossings taken as pure order-map relabels (fast-path swaps and MoveBlock spans)
	lbAborts   int // sift directions cut short by the lower bound (driver-counted)
	before     int
	start      time.Time
}

// StartReorder opens a reordering session. It panics if one is already
// active. All ordinary operations (mk-based construction, Apply, GC, …)
// are forbidden until Close; Refs protected per the GC contract remain
// valid across the session and keep their functions.
func (m *Manager) StartReorder() *ReorderSession {
	if m.session != nil {
		panic("bdd: StartReorder with a reorder session already active")
	}
	// Freeze a coherent Statistics snapshot before the session starts
	// rewriting the arena; Stats() serves it until Close.
	m.statsSnap = m.statsNow()
	if sc := m.Telemetry(); sc != nil {
		sc.Emit("bdd.reorder_start", telemetry.Int("live", m.Size()))
	}
	alloc := m.nodeCap
	s := &ReorderSession{
		m:       m,
		start:   time.Now(),
		before:  m.Size(),
		ref:     make([]int32, alloc),
		pos:     make([]int32, alloc),
		free:    make([]uint64, (alloc+63)/64),
		tainted: make([]uint64, (alloc+63)/64),
		bucket:  make([][]Ref, m.numVars),
		// Size the map by the live count, not the arena: after the GC a
		// sifting driver runs first, live is typically a small fraction
		// of alloc, and map presizing is O(capacity).
		uniq: make(map[node]Ref, m.Size()+m.Size()/4),
	}
	for _, f := range m.free {
		s.free[f>>6] |= 1 << (uint(f) & 63)
	}
	for i := 1; i < alloc; i++ {
		r := Ref(i)
		if s.isFree(r) {
			continue
		}
		n := *m.node(r)
		s.ref[i] += *m.rcPtr(r)
		s.ref[n.low]++
		s.ref[regular(n.high)]++
		s.uniq[n] = r
		s.addToBucket(r, int(n.varID))
	}
	s.buildInteractions(alloc)
	s.useInter = true
	m.session = s
	return s
}

// buildInteractions computes the interaction matrix. Every allocated
// node is reachable from some parentless top (the parent relation is a
// finite DAG), so walking the support of each node whose session ref
// count equals its external count — no allocated parent — covers
// protected roots and garbage alike.
func (s *ReorderSession) buildInteractions(alloc int) {
	m := s.m
	nv := m.numVars
	s.imatW = (nv + 63) / 64
	s.imat = make([]uint64, nv*s.imatW)
	visited := make([]int32, alloc) // epoch stamps: one DFS per top, no clearing
	varSeen := make([]int32, nv)
	mask := make([]uint64, s.imatW)
	var stack []Ref
	var support []int32
	epoch := int32(0)
	for i := 1; i < alloc; i++ {
		r := Ref(i)
		if s.isFree(r) || s.ref[i] != *m.rcPtr(r) {
			continue
		}
		epoch++
		support = support[:0]
		visited[r] = epoch
		stack = append(stack[:0], r)
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n := *m.node(f)
			if v := n.varID; varSeen[v] != epoch {
				varSeen[v] = epoch
				support = append(support, v)
			}
			for _, ch := range [2]Ref{n.low, regular(n.high)} {
				if ch != 0 && visited[ch] != epoch {
					visited[ch] = epoch
					stack = append(stack, ch)
				}
			}
		}
		if len(support) < 2 {
			continue
		}
		for j := range mask {
			mask[j] = 0
		}
		for _, v := range support {
			mask[v>>6] |= 1 << (uint(v) & 63)
		}
		for _, v := range support {
			row := s.imat[int(v)*s.imatW : (int(v)+1)*s.imatW]
			for j, w := range mask {
				row[j] |= w
			}
		}
	}
}

func (s *ReorderSession) interacts(u, v int) bool {
	return s.imat[u*s.imatW+(v>>6)]&(1<<(uint(v)&63)) != 0
}

// Interacts reports whether variables u and v co-occur in the support
// of any live function (the interaction matrix frozen at StartReorder).
func (s *ReorderSession) Interacts(u, v int) bool { return s.interacts(u, v) }

// SetInteractionFastPath toggles the non-interacting relabel fast path
// in Swap; it exists so ablation runs can measure the full-cost swap.
func (s *ReorderSession) SetInteractionFastPath(on bool) { s.useInter = on }

// InteractionSkips returns the number of swaps taken as pure relabels.
func (s *ReorderSession) InteractionSkips() int { return s.interSkips }

// NoteLowerBoundAbort records a sift direction cut short by the
// lower-bound estimate; LowerBoundAborts reads the tally. The search
// strategy lives in internal/reorder, the counter here so Close can
// fold it into the manager statistics with the rest.
func (s *ReorderSession) NoteLowerBoundAbort() { s.lbAborts++ }

// LowerBoundAborts returns the recorded lower-bound aborts.
func (s *ReorderSession) LowerBoundAborts() int { return s.lbAborts }

// Swaps returns the number of adjacent-level swaps performed so far.
func (s *ReorderSession) Swaps() int { return s.swaps }

// LevelSize returns the number of nodes currently stored at the given
// level (the per-level population sifting minimizes). A variable
// occupies exactly one level, so this is its bucket's length.
func (s *ReorderSession) LevelSize(level int) int {
	return len(s.bucket[s.m.level2var[level]])
}

// Manager returns the manager this session reorders.
func (s *ReorderSession) Manager() *Manager { return s.m }

// Swap exchanges the variables at level and level+1, rewriting the
// affected nodes in place — the Rudell exchange adapted to complement
// edges, reduced by ID-labeling to one pass over the upper variable's
// bucket:
//
//  1. a u-node with no v-child keeps its triple verbatim — its level
//     changes implicitly with the final order-map update;
//  2. a u-node with a v-child is rewritten in place onto variable v,
//     its new cofactors built with swapMk (which shares or allocates
//     inner u-nodes). Old-child reference drops are recorded but not
//     settled — later rewrites in the same pass still read the old
//     children, so no slot may be freed or reused yet;
//  3. the recorded drops are settled: nodes left with no external
//     reference and no parent are released (cascading).
//
// v-nodes are never visited: a live one keeps its triple and moves up
// implicitly with the maps, a dead one is exactly a recorded drop
// settled in step 3.
func (s *ReorderSession) Swap(level int) {
	m := s.m
	if m.session != s {
		panic("bdd: Swap on an inactive reorder session")
	}
	if level < 0 || level+1 >= m.numVars {
		panic(fmt.Sprintf("bdd: Swap(%d) outside [0,%d)", level, m.numVars-1))
	}
	l := int32(level)
	lv1 := l + 1
	u, v := m.level2var[l], m.level2var[lv1]

	if s.useInter && !s.interacts(int(u), int(v)) {
		m.level2var[l], m.level2var[lv1] = v, u
		m.var2level[u], m.var2level[v] = lv1, l
		s.swaps++
		s.interSkips++
		return
	}

	s.sa = append(s.sa[:0], s.bucket[u]...)
	dead := s.inter[:0]
	for _, f := range s.sa {
		np := m.node(f)
		n := *np
		f0, f1 := n.low, n.high
		r1, c := regular(f1), f1&compBit
		d0 := m.node(f0).varID == v
		d1 := m.node(r1).varID == v
		if !d0 && !d1 {
			continue // no v-child: triple unchanged, moves with the maps
		}
		var f00, f01 Ref
		if d0 {
			b := *m.node(f0)
			f00, f01 = b.low, b.high
		} else {
			f00, f01 = f0, f0
		}
		var f10, f11 Ref
		if d1 {
			b := *m.node(r1)
			f10, f11 = b.low^c, b.high^c
		} else {
			f10, f11 = f1, f1
		}
		g0 := s.swapMk(u, f00, f10)
		g1 := s.swapMk(u, f01, f11)
		s.ref[regular(g0)]++
		s.ref[regular(g1)]++
		if s.uniq[n] == f {
			delete(s.uniq, n)
		}
		*np = node{varID: v, low: g0, high: g1}
		s.uniq[*np] = f
		s.removeFromBucket(f, int(u))
		s.addToBucket(f, int(v))
		if f0 != 0 {
			if s.ref[f0]--; s.ref[f0] == 0 {
				dead = append(dead, f0)
			}
		}
		if r1 != 0 {
			if s.ref[r1]--; s.ref[r1] == 0 {
				dead = append(dead, r1)
			}
		}
	}
	// Settle the drops. A candidate may have been re-referenced by a
	// later rewrite (as a shared cofactor) or already released through
	// an earlier candidate's cascade — both are skipped.
	for _, g := range dead {
		if s.ref[g] == 0 && !s.isFree(g) {
			s.release(g)
		}
	}
	s.inter = dead[:0]
	m.level2var[l], m.level2var[lv1] = v, u
	m.var2level[u], m.var2level[v] = lv1, l
	s.swaps++
}

// MoveBlock moves the block of width adjacent levels starting at level
// across span further levels — downward past the next span levels for
// span > 0, upward for span < 0 — in one order-map rotation, provided
// no crossed variable interacts with any block variable (it panics
// otherwise; callers gate on Interacts). Because nodes store variable
// IDs, nothing but the two order maps is touched, and every function is
// preserved exactly as if the width×|span| adjacent swaps had run; the
// session counts those avoided swaps as interaction skips. This is what
// lets the sifting driver cross a whole span of unrelated variables in
// O(span) instead of O(span × population).
func (s *ReorderSession) MoveBlock(level, width, span int) {
	m := s.m
	if m.session != s {
		panic("bdd: MoveBlock on an inactive reorder session")
	}
	if span == 0 || width == 0 {
		return
	}
	lo, hi := level, level+width+span // rotation window [lo, hi)
	if span < 0 {
		lo, hi = level+span, level+width
	}
	if lo < 0 || hi > m.numVars {
		panic(fmt.Sprintf("bdd: MoveBlock(%d,%d,%d) outside [0,%d)", level, width, span, m.numVars))
	}
	for bl := level; bl < level+width; bl++ {
		b := int(m.level2var[bl])
		for k := lo; k < hi; k++ {
			if k >= level && k < level+width {
				continue
			}
			if s.interacts(b, int(m.level2var[k])) {
				panic("bdd: MoveBlock across an interacting variable")
			}
		}
	}
	s.rot = append(s.rot[:0], m.level2var[level:level+width]...)
	if span > 0 {
		copy(m.level2var[level:], m.level2var[level+width:level+width+span])
		copy(m.level2var[level+span:level+span+width], s.rot)
	} else {
		copy(m.level2var[level+span+width:level+width], m.level2var[level+span:level])
		copy(m.level2var[level+span:level+span+width], s.rot)
	}
	for k := lo; k < hi; k++ {
		m.var2level[m.level2var[k]] = int32(k)
	}
	if span < 0 {
		span = -span
	}
	s.interSkips += width * span
}

// swapMk is the session's mk: reduction, canonical-low re-rooting, and
// find-or-allocate against the session's unique index.
func (s *ReorderSession) swapMk(varID int32, low, high Ref) Ref {
	if low == high {
		return low
	}
	if isComp(low) {
		return neg(s.swapMkNode(varID, neg(low), neg(high)))
	}
	return s.swapMkNode(varID, low, high)
}

func (s *ReorderSession) swapMkNode(varID int32, low, high Ref) Ref {
	m := s.m
	key := node{varID: varID, low: low, high: high}
	if r, ok := s.uniq[key]; ok {
		return r
	}
	var r Ref
	if top := len(m.free); top > 0 {
		r = m.free[top-1]
		m.free = m.free[:top-1]
		s.free[r>>6] &^= 1 << (uint(r) & 63) // taint, if set, stays set
		*m.rcPtr(r) = 0
		s.ref[r] = 0
	} else {
		r = m.newSlot()
		s.ref = append(s.ref, 0)
		s.pos = append(s.pos, 0)
		for len(s.free)*64 < m.nodeCap {
			s.free = append(s.free, 0)
			s.tainted = append(s.tainted, 0)
		}
		m.peakNodes = max(m.peakNodes, m.nodeCap)
	}
	*m.node(r) = key
	s.ref[low]++
	s.ref[regular(high)]++
	s.uniq[key] = r
	s.addToBucket(r, int(varID))
	m.peakLive = max(m.peakLive, m.Size())
	return r
}

// release frees a node whose last reason to live is gone, cascading to
// children left with no external reference and no parent.
func (s *ReorderSession) release(g Ref) {
	m := s.m
	stack := append(s.relStack[:0], g)
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := *m.node(r)
		if s.uniq[n] == r {
			delete(s.uniq, n)
		}
		s.removeFromBucket(r, int(n.varID))
		s.free[r>>6] |= 1 << (uint(r) & 63)
		s.tainted[r>>6] |= 1 << (uint(r) & 63)
		m.free = append(m.free, r)
		for _, ch := range [2]Ref{n.low, regular(n.high)} {
			if ch == 0 {
				continue
			}
			if s.ref[ch]--; s.ref[ch] == 0 {
				stack = append(stack, ch)
			}
		}
	}
	s.relStack = stack[:0]
}

// Close ends the session: it rebuilds the unique table for the new
// order, sweeps operation-cache entries that name a slot freed during
// the session, and records the reorder statistics. The manager is fully
// operational again afterwards.
func (s *ReorderSession) Close() {
	m := s.m
	if m.session != s {
		panic("bdd: Close on an inactive reorder session")
	}
	m.session = nil
	clear(m.table)
	m.tableCount = 0
	for i := 1; i < m.nodeCap; i++ {
		r := Ref(i)
		if !s.isFree(r) {
			m.tableInsert(r)
		}
	}
	m.sweepCachesTainted(s.tainted)
	m.statReorders++
	m.statReorderSwaps += uint64(s.swaps)
	m.statInterSkips += uint64(s.interSkips)
	m.statLBAborts += uint64(s.lbAborts)
	m.statReorderTime += time.Since(s.start)
	m.reorderBefore = s.before
	m.reorderAfter = m.Size()
	if sc := m.Telemetry(); sc != nil {
		sc.PublishNodes(m.Size(), m.peakLive)
		sc.EmitElapsed("bdd.reorder_end", time.Since(s.start),
			telemetry.Int("swaps", s.swaps),
			telemetry.Int("inter_skips", s.interSkips),
			telemetry.Int("lb_aborts", s.lbAborts),
			telemetry.Int("before", s.before),
			telemetry.Int("after", m.Size()))
	}
}

func (s *ReorderSession) isFree(r Ref) bool {
	return s.free[r>>6]&(1<<(uint(r)&63)) != 0
}

func (s *ReorderSession) addToBucket(r Ref, v int) {
	s.bucket[v] = append(s.bucket[v], r)
	s.pos[r] = int32(len(s.bucket[v]) - 1)
}

func (s *ReorderSession) removeFromBucket(r Ref, v int) {
	b := s.bucket[v]
	i := s.pos[r]
	last := b[len(b)-1]
	b[i] = last
	s.pos[last] = i
	s.bucket[v] = b[:len(b)-1]
}

// sweepCachesTainted drops every operation-cache entry mentioning a slot
// freed during a reorder session. Entries whose nodes all survived are
// function-keyed and stay correct under any permutation of levels, so
// they are kept. Slots already free when the session started cannot
// appear in any entry (the GC that freed them swept or cleared the
// caches), so the tainted set is exactly the invalid one.
func (m *Manager) sweepCachesTainted(tainted []uint64) {
	bad := func(f Ref) bool {
		i := regular(f)
		return tainted[i>>6]&(1<<(uint(i)&63)) != 0
	}
	for i := range m.ite {
		e := &m.ite[i]
		if e.f != 0 && (bad(e.f) || bad(e.g) || bad(e.h) || bad(e.res)) {
			*e = iteEntry{}
		}
	}
	for i := range m.binop {
		e := &m.binop[i]
		if e.f != 0 && (bad(e.f) || bad(e.g) || bad(e.res)) {
			*e = binopEntry{}
		}
	}
	for i := range m.quant {
		e := &m.quant[i]
		if e.f != 0 && (bad(e.f) || bad(e.cube) || bad(e.res)) {
			*e = quantEntry{}
		}
	}
	for i := range m.aex {
		e := &m.aex[i]
		if e.f != 0 && (bad(e.f) || bad(e.g) || bad(e.cube) || bad(e.res)) {
			*e = aexEntry{}
		}
	}
}

// GroupVars registers the given variable IDs as one atomic reordering
// block: sifting moves them together, preserving their relative order.
// This is how MDD log-encoded value bits and interleaved present/next
// state pairs stay adjacent — the Permute-based rail swap is keyed on
// variable IDs and stays *correct* under any order, but block sifting
// keeps the orders that make it *cheap*. Registrations sharing a
// variable merge into one block; IDs are kept sorted and deduplicated.
func (m *Manager) GroupVars(vars []int) {
	if len(vars) < 2 {
		return
	}
	merged := append([]int(nil), vars...)
	for _, v := range merged {
		if v < 0 || v >= m.numVars {
			panic(fmt.Sprintf("bdd: GroupVars: variable %d out of range [0,%d)", v, m.numVars))
		}
	}
	in := make(map[int]bool, len(merged))
	for _, v := range merged {
		in[v] = true
	}
	kept := m.groups[:0]
	for _, g := range m.groups {
		overlap := false
		for _, v := range g {
			if in[v] {
				overlap = true
				break
			}
		}
		if !overlap {
			kept = append(kept, g)
			continue
		}
		for _, v := range g {
			if !in[v] {
				in[v] = true
				merged = append(merged, v)
			}
		}
	}
	sort.Ints(merged)
	m.groups = append(kept, merged)
}

// VarGroups returns the registered atomic reordering blocks. Callers
// must not mutate the result.
func (m *Manager) VarGroups() [][]int { return m.groups }

// SetReorderPolicy records the reordering mode. Setting ReorderOff or
// ReorderManual disarms any pending automatic trigger; ReorderAuto is
// normally installed through SetAutoReorder, which supplies the hook.
func (m *Manager) SetReorderPolicy(p ReorderPolicy) {
	m.reorderPolicy = p
	if p != ReorderAuto {
		m.reorderPending = false
		m.reorderAt = 0
	} else if m.reorderFn != nil {
		m.armReorder()
	}
}

// GetReorderPolicy returns the recorded reordering mode.
func (m *Manager) GetReorderPolicy() ReorderPolicy { return m.reorderPolicy }

// SetAutoReorder installs fn as the automatic reordering hook and sets
// the policy to ReorderAuto: when live nodes exceed grow times the size
// at the last (re-)arming — but at least minNodes — the next safe point
// (MaybeReorder or MaybeGC) runs fn and re-arms the trigger. A nil fn
// reverts the policy to ReorderOff.
func (m *Manager) SetAutoReorder(grow float64, minNodes int, fn func(*Manager)) {
	m.reorderFn = fn
	m.reorderGrow = grow
	m.reorderMin = minNodes
	m.reorderPending = false
	if fn == nil {
		m.reorderPolicy = ReorderOff
		m.reorderAt = 0
		return
	}
	m.reorderPolicy = ReorderAuto
	m.armReorder()
}

// SetReorderGrowth replaces the growth factor of the armed automatic
// trigger without touching the hook or the floor. The auto-sift hook's
// back-off policy calls it after an unproductive pass, before
// MaybeReorder re-arms the trigger, so the raised factor takes effect
// immediately; it has no effect until the next (re-)arming otherwise.
func (m *Manager) SetReorderGrowth(grow float64) {
	if grow > 1 {
		m.reorderGrow = grow
	}
}

func (m *Manager) armReorder() {
	m.reorderAt = max(int(m.reorderGrow*float64(m.Size())), m.reorderMin)
}

// ReorderPending reports whether an automatic reorder is armed and due.
// Fixpoint loops test it before paying to protect their live Refs for a
// MaybeReorder call.
func (m *Manager) ReorderPending() bool {
	return m.reorderPending && m.reorderFn != nil && m.session == nil
}

// MaybeReorder runs the automatic reordering hook if its growth trigger
// has fired, then re-arms the trigger; it reports whether a reorder ran.
// This is a safe point with the same contract as GC: all Refs the caller
// needs afterwards must be protected by IncRef (their functions are
// preserved — unlike after a GC, protected Refs need no recomputation).
func (m *Manager) MaybeReorder() bool {
	if !m.ReorderPending() {
		return false
	}
	m.reorderPending = false
	m.reorderFn(m)
	m.armReorder()
	return true
}

// CheckInvariants validates the kernel's structural invariants —
// canonical-low edges, strictly increasing levels, no freed children or
// duplicate triples, exact unique-table membership, and no operation
// cache entry naming a freed slot. It exists for tests and debugging;
// it is O(nodes + cache entries). The sift driver may call it
// mid-session.
func (m *Manager) CheckInvariants() error {
	free := make(map[Ref]bool, len(m.free))
	for _, f := range m.free {
		if free[f] {
			return fmt.Errorf("slot %d appears twice on the free list", f)
		}
		free[f] = true
	}
	alloc := m.nodeCap
	seen := make(map[node]Ref, alloc)
	for i := 1; i < alloc; i++ {
		r := Ref(i)
		if free[r] {
			continue
		}
		n := *m.node(r)
		if isComp(n.low) {
			return fmt.Errorf("node %d has a complemented low edge", i)
		}
		if free[n.low] || free[regular(n.high)] {
			return fmt.Errorf("node %d has a freed child", i)
		}
		ln := m.nodeLevel(&n)
		if m.levelOf(n.low) <= ln || m.levelOf(regular(n.high)) <= ln {
			return fmt.Errorf("node %d (level %d) has a child at level <= its own", i, ln)
		}
		if prev, dup := seen[n]; dup {
			return fmt.Errorf("nodes %d and %d store the same triple", prev, i)
		}
		seen[n] = r
		if m.session == nil {
			hh := hash3(uint64(n.varID), uint64(n.low), uint64(n.high)) & m.tableMask
			for {
				idx := m.table[hh]
				if idx == 0 {
					return fmt.Errorf("node %d missing from the unique table", i)
				}
				if Ref(idx-1) == r {
					break
				}
				hh = (hh + 1) & m.tableMask
			}
		}
	}
	bad := func(f Ref) bool { return free[regular(f)] }
	for i := range m.ite {
		e := &m.ite[i]
		if e.f != 0 && (bad(e.f) || bad(e.g) || bad(e.h) || bad(e.res)) {
			return fmt.Errorf("ite cache entry names a freed slot")
		}
	}
	for i := range m.binop {
		e := &m.binop[i]
		if e.f != 0 && (bad(e.f) || bad(e.g) || bad(e.res)) {
			return fmt.Errorf("binop cache entry names a freed slot")
		}
	}
	for i := range m.quant {
		e := &m.quant[i]
		if e.f != 0 && (bad(e.f) || bad(e.cube) || bad(e.res)) {
			return fmt.Errorf("quant cache entry names a freed slot")
		}
	}
	for i := range m.aex {
		e := &m.aex[i]
		if e.f != 0 && (bad(e.f) || bad(e.g) || bad(e.cube) || bad(e.res)) {
			return fmt.Errorf("andexists cache entry names a freed slot")
		}
	}
	return nil
}

// PeakLive returns the largest live node count observed (allocated minus
// free at each allocation), the number dynamic reordering exists to
// shrink.
func (m *Manager) PeakLive() int { return m.peakLive }

// ReorderCount returns the number of completed reorder sessions. Plan
// caches (the network's compiled quantification schedules) stamp
// themselves with it and recompile when it moves, so a sift never
// leaves a schedule tuned for the dead variable order in service.
func (m *Manager) ReorderCount() int { return m.statReorders }

// ResetPeaks restarts peak tracking from the current state, so a
// measurement can isolate one phase.
func (m *Manager) ResetPeaks() {
	m.peakNodes = m.nodeCap
	m.peakLive = m.Size()
}
