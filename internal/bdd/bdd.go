// Package bdd implements reduced ordered binary decision diagrams
// (ROBDDs) with complement edges, the symbolic kernel underneath every
// verification algorithm in this repository.
//
// The design follows the classic shared-BDD architecture used by the
// original HSIS (and by BuDDy/CUDD): a single Manager owns an arena of
// nodes, a unique table guaranteeing canonicity, operation caches, and
// reference counts for garbage collection. Node handles are small
// integer Refs that are only meaningful together with their Manager.
//
// The sign bit of a Ref is a complement mark: a negative Ref denotes the
// Boolean complement of the function stored at the underlying node, so a
// function and its negation share one DAG and Not is a single XOR with
// no allocation. Canonicity is preserved by the standard rule that the
// low (else) edge of a stored node is never complemented; mk re-roots
// any violating node onto the complement of its flipped twin. There is a
// single stored terminal — the False node at index 0 — and True is its
// complement edge, so the identity False = ¬True holds on Refs rather
// than between two distinct nodes.
//
// Variables are identified by stable integer IDs assigned at creation
// time. Each variable sits at a level in the global order; adjacent
// levels can be exchanged in place through a ReorderSession (see
// reorder.go), which is how the sifting driver in internal/reorder
// permutes the order dynamically. All operations are deterministic.
//
// # Concurrency
//
// A Manager is single-threaded: one goroutine owns it and runs every
// operation, GC and reorder session on it. GC and reordering run only at
// explicit safe points (GC, MaybeGC, MaybeReorder), never implicitly
// inside an operation. The only members safe to use from another
// goroutine are Interrupt (see interrupt.go) and SetTelemetry.
// Parallelism lives above the kernel: the hsisd daemon runs concurrent
// jobs, each on its own Manager.
package bdd

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"hsis/internal/telemetry"
)

// Ref is a handle to a BDD node inside a Manager, with the sign bit
// carrying the complement mark. The zero value is the constant false
// BDD; True is the constant true BDD. Refs are only valid for the
// Manager that produced them.
type Ref int32

// compBit is the complement mark: XOR-ing it negates the function.
const compBit Ref = -1 << 31

// Terminal constants. A Manager stores one terminal node (False, at
// index 0); True is the complement edge onto the same node.
const (
	False Ref = 0
	True  Ref = compBit
)

// regular strips the complement mark from f.
func regular(f Ref) Ref { return f &^ compBit }

// isComp reports whether f carries the complement mark.
func isComp(f Ref) bool { return f < 0 }

// neg complements f. This is the O(1), allocation-free negation that
// complement edges exist to provide.
func neg(f Ref) Ref { return f ^ compBit }

// terminalLevel is the level assigned to the terminal node. It compares
// greater than any variable level.
const terminalLevel = int32(1 << 30)

// node is one stored BDD node. The low edge is always regular (the
// canonical-form invariant); the high edge may carry a complement mark.
//
// The node stores its *variable ID*, not its level: the level is read
// through var2level (see levelOf). IDs are stable across reordering
// while levels are not, so exchanging two adjacent levels whose
// variables do not interact is a pure order-map update that touches no
// node — the O(1) swap fast path dynamic reordering is built on. The
// variable/level bijection makes the triple (varID, low, high) exactly
// as canonical as (level, low, high), so the unique table keys on the
// stored triple directly.
type node struct {
	varID int32 // variable ID (terminalLevel for the terminal node)
	low   Ref   // else-branch (variable = 0), never complemented
	high  Ref   // then-branch (variable = 1)
}

// The node arena is chunked: chunks are fixed-size blocks allocated on
// demand and never moved or freed, so a *node obtained from node() stays
// valid across later allocations (the reorder swap rewrites nodes
// through such pointers). Slot indices are dense; index 0 is the
// terminal.
const (
	chunkShift = 16
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
	maxChunks  = 1 << (31 - chunkShift)
)

// chunk stores one block of nodes plus their external reference counts
// (kept out of node so a node is exactly the triple the unique table
// compares, 12 bytes).
type chunk struct {
	nodes [chunkSize]node
	refs  [chunkSize]int32
}

// Manager owns a shared forest of BDD nodes. It is single-threaded; see
// the package comment.
type Manager struct {
	chunks  []*chunk
	nodeCap int // number of initialized node slots (high water)

	// The unique table: open addressing with linear probing over node
	// indices + 1 (0 means empty), grown at 70% load.
	table      []int32
	tableMask  uint64
	tableCount int

	free []Ref // recycled node indices (dead after GC), used as a stack

	var2level []int32
	level2var []int32

	// Operation caches. Each is a direct-mapped power-of-two array that
	// starts at its initial size and doubles adaptively (see cache.go);
	// entries whose operands and result survive a GC are kept.
	ite       []iteEntry
	binop     []binopEntry
	quant     []quantEntry // Exists cache, keyed on (f, cube)
	aex       []aexEntry   // AndExists cache, keyed on (f, g, cube)
	iteMask   uint64
	binopMask uint64
	quantMask uint64
	aexMask   uint64

	cacheWin   [numCaches]cacheWindow // adaptive-growth bookkeeping
	allocs     uint64                 // node allocations
	allocsAtGC uint64                 // allocs at the last collection (demand estimate)
	sinceAdapt uint64                 // allocations since the last adaptation checkpoint

	marks   []uint64 // reusable mark bitmap, one bit per node slot
	counted []uint64 // NodeCount's bitmap, all zero between calls

	// Reusable rebuild memo (Permute/Compose/VectorCompose): indexed by
	// stored-node id, validated by an epoch stamp so calls never clear
	// it. memoLast (stored nodes visited by the previous rebuild) picks
	// between this and a plain map per call; see subst.go.
	memoVal   []Ref
	memoStamp []uint32
	memoEpoch uint32
	memoCount int
	memoLast  int

	statApplyCalls, statApplyHits uint64
	statITECalls, statITEHits     uint64
	statQuantCalls, statQuantHits uint64
	statAexCalls, statAexHits     uint64
	statCompShared                uint64 // mk results re-rooted onto a complement-shared node
	statPermCalls, statPermHits   uint64 // Permuter node visits / persistent-memo hits
	statCacheGrowths              int
	statCacheKept                 int // op-cache entries that survived the last GC

	// interrupted is the cooperative-cancellation flag (interrupt.go):
	// set by Interrupt from any goroutine, polled by CheckInterrupt at
	// the head of every image-iterating loop.
	interrupted atomic.Bool

	autoGCAt  int // node count that triggers an automatic GC on allocation
	GCCount   int // number of garbage collections performed
	lastLive  int
	numVars   int
	peakNodes int
	peakLive  int // largest live count seen at an allocation

	// Dynamic variable reordering (reorder.go; sifting driver in
	// internal/reorder).
	session        *ReorderSession // non-nil while a reorder is in progress
	groups         [][]int         // atomic sifting blocks (variable IDs)
	reorderPolicy  ReorderPolicy
	reorderFn      func(*Manager) // automatic-reorder hook
	reorderGrow    float64
	reorderMin     int
	reorderAt      int  // live count that arms reorderPending (0 = disarmed)
	reorderPending bool // trigger fired; next safe point reorders

	statReorders     int
	statReorderSwaps uint64
	statInterSkips   uint64 // swaps taken as non-interacting relabels
	statLBAborts     uint64 // sift directions cut by the lower bound
	statReorderTime  time.Duration
	reorderBefore    int // manager size entering the last reorder
	reorderAfter     int // manager size leaving the last reorder

	// statsSnap is the coherent Statistics snapshot taken when a reorder
	// session opens; Stats() serves it while the session is rewriting the
	// arena (see stats.go).
	statsSnap Statistics

	// scope is the manager's observability endpoint: every kernel
	// instrumentation site (GC, cache growth, reorder sessions, gauge
	// publication) and every fixpoint driver working on this manager
	// reports through Telemetry(). Nil falls back to the process
	// default, which keeps the single-manager CLI behaviour; the daemon
	// sets one scope per job so concurrent jobs never share a sink.
	scope atomic.Pointer[telemetry.Scope]
}

// SetTelemetry installs sc as this manager's observability scope (nil
// reverts to the process default). Safe to call at any time; sites
// read the pointer atomically.
func (m *Manager) SetTelemetry(sc *telemetry.Scope) {
	m.scope.Store(sc)
}

// Telemetry returns the scope instrumentation on this manager should
// use: the instance scope if set, else the process default, else nil
// (the disarmed case — two atomic loads and a branch, no allocation).
func (m *Manager) Telemetry() *telemetry.Scope {
	if sc := m.scope.Load(); sc != nil {
		return sc
	}
	return telemetry.Default()
}

// Cache entries. Empty cache entries are all-zero. A zero operand field
// can never match a probe: every recursion resolves terminal operands
// before probing, so a cached f is always a non-terminal (index ≥ 1)
// Ref.
type iteEntry struct {
	f, g, h, res Ref
}

type binopEntry struct {
	op        int32
	f, g, res Ref
}

// quantEntry caches one Exists recursion (ForAll is derived through
// complement edges: ∀x.f = ¬∃x.¬f, so one cache serves both). The
// quantification cube (the suffix actually reaching this node) is part
// of the key, so plans that alternate cubes — an image step followed by
// a preimage step, as every fixpoint does — do not thrash the cache.
type quantEntry struct {
	f, cube, res Ref
}

// aexEntry caches one AndExists recursion, cube included in the key for
// the same reason.
type aexEntry struct {
	f, g, cube, res Ref
}

const (
	opAnd = iota + 1
	opXor
)

const defaultTableSize = 1 << 14

// New creates a Manager with no variables. Variables are added with
// NewVar or NewVars.
func New() *Manager {
	m := &Manager{
		table:     make([]int32, defaultTableSize),
		tableMask: defaultTableSize - 1,
		ite:       make([]iteEntry, initITECache),
		binop:     make([]binopEntry, initBinopCache),
		quant:     make([]quantEntry, initQuantCache),
		aex:       make([]aexEntry, initAexCache),
		iteMask:   initITECache - 1,
		binopMask: initBinopCache - 1,
		quantMask: initQuantCache - 1,
		aexMask:   initAexCache - 1,
		autoGCAt:  1 << 19,
	}
	// Install the single terminal at index 0.
	m.chunks = append(m.chunks, new(chunk))
	m.nodeCap = 1
	t := m.node(0)
	t.varID = terminalLevel
	*m.rcPtr(0) = 1 // permanently referenced
	return m
}

// node returns the stored node underlying f (complement mark ignored).
// Chunks never move, so the pointer stays valid across allocations.
func (m *Manager) node(f Ref) *node {
	i := uint32(f &^ compBit)
	return &m.chunks[i>>chunkShift].nodes[i&chunkMask]
}

// rcPtr returns the external reference-count cell of f's stored node.
func (m *Manager) rcPtr(f Ref) *int32 {
	i := uint32(f &^ compBit)
	return &m.chunks[i>>chunkShift].refs[i&chunkMask]
}

// newSlot extends the arena by one slot and returns its index.
func (m *Manager) newSlot() Ref {
	i := m.nodeCap
	if i>>chunkShift >= len(m.chunks) {
		if len(m.chunks) >= maxChunks {
			panic("bdd: node arena exhausted")
		}
		m.chunks = append(m.chunks, new(chunk))
	}
	m.nodeCap++
	return Ref(i)
}

// NumVars returns the number of variables created in the manager.
func (m *Manager) NumVars() int { return m.numVars }

// Size returns the number of live plus dead nodes currently allocated,
// including the terminal.
func (m *Manager) Size() int { return m.nodeCap - len(m.free) }

// PeakSize returns the largest node count observed since creation.
func (m *Manager) PeakSize() int { return m.peakNodes }

// NewVar appends a fresh variable at the bottom of the current order and
// returns its projection function (the BDD "v"). Projection nodes are
// permanently referenced: callers everywhere hold them for the life of
// the manager (spaces, networks, cubes), and a reorder session must
// never reclaim and reuse their slots.
func (m *Manager) NewVar() Ref {
	v := m.numVars
	m.numVars++
	m.var2level = append(m.var2level, int32(v))
	m.level2var = append(m.level2var, int32(v))
	r := m.mk(int32(v), False, True)
	*m.rcPtr(r)++
	return r
}

// NewVars creates n fresh variables and returns their projection
// functions in creation order.
func (m *Manager) NewVars(n int) []Ref {
	out := make([]Ref, n)
	for i := range out {
		out[i] = m.NewVar()
	}
	return out
}

// Var returns the projection function of variable id v.
func (m *Manager) Var(v int) Ref {
	if v < 0 || v >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, m.numVars))
	}
	return m.varRef(v)
}

// NVar returns the negative literal of variable id v.
func (m *Manager) NVar(v int) Ref {
	if v < 0 || v >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, m.numVars))
	}
	return m.mk(m.var2level[v], True, False)
}

// varRef is the unchecked projection builder used by the recursions.
func (m *Manager) varRef(v int) Ref {
	return m.mk(m.var2level[v], False, True)
}

// Level returns the current level of variable id v in the order.
func (m *Manager) Level(v int) int { return int(m.var2level[v]) }

// VarAtLevel returns the variable id currently placed at the given
// level.
func (m *Manager) VarAtLevel(l int) int { return int(m.level2var[l]) }

// VarOf returns the variable id labelling the root node of f. It panics
// if f is a terminal.
func (m *Manager) VarOf(f Ref) int {
	n := m.node(f)
	if n.varID == terminalLevel {
		panic("bdd: VarOf on terminal")
	}
	return int(n.varID)
}

// IsTerminal reports whether f is one of the two constants.
func (m *Manager) IsTerminal(f Ref) bool { return regular(f) == 0 }

// Low returns the else-cofactor of the root node of f.
func (m *Manager) Low(f Ref) Ref { return m.node(f).low ^ (f & compBit) }

// High returns the then-cofactor of the root node of f.
func (m *Manager) High(f Ref) Ref { return m.node(f).high ^ (f & compBit) }

// top returns the root level of f and its two cofactors, pushing f's
// complement mark down onto the children.
func (m *Manager) top(f Ref) (level int32, low, high Ref) {
	n := m.node(f)
	c := f & compBit
	return m.nodeLevel(n), n.low ^ c, n.high ^ c
}

// nodeLevel maps a stored node to its current level. The terminal's
// varID is the terminalLevel sentinel, above every var2level index.
func (m *Manager) nodeLevel(n *node) int32 {
	if n.varID == terminalLevel {
		return terminalLevel
	}
	return m.var2level[n.varID]
}

// levelOf returns the root level of f (terminalLevel for constants).
func (m *Manager) levelOf(f Ref) int32 { return m.nodeLevel(m.node(f)) }

// mk returns the canonical ref for the triple (level, low, high),
// applying the reduction rules: equal children collapse, structurally
// identical nodes are shared through the unique table, and a node whose
// low edge is complemented is re-rooted onto the complement of its
// flipped twin so f and ¬f share one stored node.
func (m *Manager) mk(level int32, low, high Ref) Ref {
	if low == high {
		return low
	}
	if isComp(low) {
		m.statCompShared++
		return neg(m.mkNode(level, neg(low), neg(high)))
	}
	return m.mkNode(level, low, high)
}

// mkNode finds or allocates the stored node for the variable at the
// given level; low must already be regular. The table keys on the
// variable ID (what nodes store), so the level is translated exactly
// once per probe.
func (m *Manager) mkNode(level int32, low, high Ref) Ref {
	if m.session != nil {
		panic("bdd: operation during an active reorder session")
	}
	vid := m.level2var[level]
	r, hh, ok := m.tableFind(vid, low, high)
	if ok {
		return r
	}
	r = m.allocSlot()
	*m.node(r) = node{varID: vid, low: low, high: high}
	m.tableFill(hh, r)
	m.afterAlloc()
	return r
}

// allocSlot pops a recycled slot or extends the arena.
func (m *Manager) allocSlot() Ref {
	if top := len(m.free); top > 0 {
		r := m.free[top-1]
		m.free = m.free[:top-1]
		return r
	}
	return m.newSlot()
}

// afterAlloc is mkNode's post-allocation bookkeeping: peak gauges, the
// reorder growth trigger, and the allocation-driven cache-adaptation
// checkpoint.
func (m *Manager) afterAlloc() {
	m.allocs++
	m.sinceAdapt++
	m.peakNodes = max(m.peakNodes, m.nodeCap)
	live := m.Size()
	m.peakLive = max(m.peakLive, live)
	if m.reorderAt > 0 && live >= m.reorderAt {
		// The growth trigger arms here; the reorder itself runs at the
		// next safe point (MaybeReorder/MaybeGC), never inside an
		// operation.
		m.reorderPending = true
	}
	if m.sinceAdapt >= cacheAdaptEvery {
		// Allocation-driven adaptation point: lets the caches grow in
		// the middle of a long recursion that never reaches a GC. It is
		// also the periodic checkpoint where the kernel publishes its
		// node counts for the telemetry sampler — off the per-allocation
		// hot path, but frequent enough that a blowup shows up in the
		// timeline while it happens.
		m.sinceAdapt = 0
		m.adaptCaches()
		if sc := m.Telemetry(); sc != nil {
			sc.PublishNodes(m.Size(), m.peakLive)
		}
	}
}

// homeSlot is the unique-table slot a probe for n's triple starts at.
func (m *Manager) homeSlot(n *node) uint64 {
	return hash3(uint64(n.varID), uint64(n.low), uint64(n.high)) & m.tableMask
}

// tableFind probes the unique table for the triple (vid, low, high). It
// returns the stored node when there is one; otherwise ok is false and
// hh is the empty slot the probe ended on, where the triple belongs
// (tableFill stores it there without probing again).
func (m *Manager) tableFind(vid int32, low, high Ref) (r Ref, hh uint64, ok bool) {
	hh = hash3(uint64(vid), uint64(low), uint64(high)) & m.tableMask
	for {
		idx := m.table[hh]
		if idx == 0 {
			return 0, hh, false
		}
		n := m.node(Ref(idx - 1))
		if n.varID == vid && n.low == low && n.high == high {
			return Ref(idx - 1), hh, true
		}
		hh = (hh + 1) & m.tableMask
	}
}

// tableFill stores r in the empty table slot hh and grows the table at
// 70% load.
func (m *Manager) tableFill(hh uint64, r Ref) {
	m.table[hh] = int32(r) + 1
	m.tableCount++
	if 10*m.tableCount > 7*len(m.table) {
		m.resizeTable(2 * len(m.table))
	}
}

// tableInsert indexes node r, whose triple the table does not hold yet
// (GC rebuilds, reorder rewrites).
func (m *Manager) tableInsert(r Ref) {
	hh := m.homeSlot(m.node(r))
	for m.table[hh] != 0 {
		hh = (hh + 1) & m.tableMask
	}
	m.tableFill(hh, r)
}

// tableDelete removes node r, indexed under its current triple, by
// backward-shift deletion: each later entry of the probe run moves back
// into the hole when the hole lies on its own probe path (between its
// home slot and where it sits), so every remaining entry stays reachable
// from its home with no tombstones, and tableCount stays exact.
func (m *Manager) tableDelete(r Ref) {
	mask := m.tableMask
	i := m.homeSlot(m.node(r))
	for m.table[i] != int32(r)+1 {
		if m.table[i] == 0 {
			panic(fmt.Sprintf("bdd: node %d missing from the unique table", r))
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; m.table[j] != 0; j = (j + 1) & mask {
		if k := m.homeSlot(m.node(Ref(m.table[j] - 1))); (j-k)&mask >= (j-i)&mask {
			m.table[i] = m.table[j]
			i = j
		}
	}
	m.table[i] = 0
	m.tableCount--
}

// resizeTable re-probes every entry of the unique table into a table of
// size slots (a power of two).
func (m *Manager) resizeTable(size int) {
	old := m.table
	m.table = make([]int32, size)
	m.tableMask = uint64(size - 1)
	for _, idx := range old {
		if idx == 0 {
			continue
		}
		h := m.homeSlot(m.node(Ref(idx - 1)))
		for m.table[h] != 0 {
			h = (h + 1) & m.tableMask
		}
		m.table[h] = idx
	}
}

// resetMarks sizes the reusable mark bitmap to the node arena and clears
// it. The bitmap is shared by GC and unique-table rebuilds, so neither
// allocates per collection.
func (m *Manager) resetMarks() {
	n := (m.nodeCap + 63) / 64
	if cap(m.marks) < n {
		m.marks = make([]uint64, n)
		return
	}
	m.marks = m.marks[:n]
	clear(m.marks)
}

func (m *Manager) setMark(i Ref) { m.marks[i>>6] |= 1 << (uint(i) & 63) }

func (m *Manager) marked(i Ref) bool { return m.marks[i>>6]&(1<<(uint(i)&63)) != 0 }

func hash3(a, b, c uint64) uint64 {
	h := a*0x9e3779b97f4a7c15 ^ bits.RotateLeft64(b, 21)*0xbf58476d1ce4e5b9 ^ bits.RotateLeft64(c, 42)*0x94d049bb133111eb
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// check panics if f is not a plausible handle for this manager. It is
// used at public API boundaries.
func (m *Manager) check(f Ref) {
	if int(regular(f)) >= m.nodeCap {
		panic(fmt.Sprintf("bdd: invalid ref %d (manager has %d nodes)", f, m.nodeCap))
	}
}
