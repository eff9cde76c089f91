package bdd

import (
	"math/bits"
	"time"

	"hsis/internal/telemetry"
)

// Reference counting and garbage collection. External code that must
// keep a BDD alive across a GC point calls IncRef; the verification
// algorithms call MaybeGC between fixpoint iterations. GC never runs
// implicitly inside an operation, so plain Refs held in local variables
// are stable for the duration of any sequence of operations that does
// not call GC.
//
// Reference counts live on stored nodes, so f and ¬f share one count.
// The mark phase uses the Manager's reusable bitmap (no per-collection
// allocation), and the operation caches are swept — entries whose
// operands and result all survived are kept — rather than cleared.

// IncRef marks f as externally referenced and returns f for chaining.
func (m *Manager) IncRef(f Ref) Ref {
	m.check(f)
	*m.rcPtr(f)++
	return f
}

// DecRef releases one external reference to f.
func (m *Manager) DecRef(f Ref) {
	m.check(f)
	rc := m.rcPtr(f)
	if *rc--; *rc < 0 {
		panic("bdd: DecRef without matching IncRef")
	}
}

// GC sweeps all nodes not reachable from externally referenced roots and
// rebuilds the unique table. Operation-cache entries survive when every
// node they mention is still live. All Refs not protected (directly or
// transitively) by IncRef are invalidated.
func (m *Manager) GC() {
	if m.session != nil {
		panic("bdd: GC during an active reorder session")
	}
	gcStart := time.Now()
	alloc := m.nodeCap
	m.resetMarks()
	m.setMark(0) // the terminal is always live
	for base := 0; base < alloc; base += chunkSize {
		ch := m.chunks[base>>chunkShift]
		n := min(chunkSize, alloc-base)
		for j := 0; j < n; j++ {
			if ch.refs[j] > 0 {
				m.mark(Ref(base + j))
			}
		}
	}
	markDur := time.Since(gcStart)
	sweepStart := time.Now()
	live := m.sweep(alloc)
	if sc := m.Telemetry(); sc != nil {
		sc.PublishNodes(m.Size(), m.peakLive)
		sc.EmitElapsed("bdd.gc_mark", markDur,
			telemetry.Int("live", live))
		sc.EmitElapsed("bdd.gc", time.Since(sweepStart),
			telemetry.Int("live", live),
			telemetry.Int("dead", alloc-live),
			telemetry.Int("kept_cache_entries", m.statCacheKept))
	}
	if m.OnGC != nil {
		m.OnGC(live, alloc-live)
	}
}

// sweep is the collection's second half: count the marked nodes,
// rebuild the unique table, sweep the dead into the free list, and
// resize/sweep the operation caches. The mark bitmap must cover
// [0, alloc). It returns the live count.
func (m *Manager) sweep(alloc int) int {
	live := 0
	for _, w := range m.marks {
		live += bits.OnesCount64(w)
	}
	// Demand estimate: the phase between two collections needed table
	// and cache room for everything it allocated, not just for what
	// survived. Sizing decisions use max(live, allocations since the
	// last GC) so a steady-state loop that rebuilds a large forest every
	// iteration keeps its structures, while a loop over a small working
	// set stops paying for a long-gone peak.
	demand := max(live, int(m.allocs-m.allocsAtGC))
	m.allocsAtGC = m.allocs
	// Rebuild the unique table. A table sized for a long-gone peak makes
	// every later collection wipe megabytes to reinsert a few hundred
	// survivors, so shrink it when demand has fallen well below it (2×
	// hysteresis; the table regrows on its load factor as usual).
	size := max(pow2AtLeast(4*demand), defaultTableSize)
	if 2*size <= len(m.table) {
		m.table = make([]int32, size)
		m.tableMask = uint64(size - 1)
	} else {
		clear(m.table)
	}
	m.tableCount = 0
	// Sweep into the free list.
	m.free = m.free[:0]
	for i := 1; i < alloc; i++ {
		if m.marked(Ref(i)) {
			m.tableInsert(Ref(i))
		} else {
			m.free = append(m.free, Ref(i))
		}
	}
	m.GCCount++
	m.lastLive = live
	// The mark bitmap is still valid here: use it to retain cache
	// entries that only mention surviving nodes. When almost everything
	// died, survival is hopeless (an entry needs all of its nodes live),
	// so skip the scan, wipe, and shrink toward the live set. Then give
	// each cache a chance to grow if its hit rate collapsed since the
	// last check.
	if 4*live >= alloc {
		m.sweepCaches()
	} else {
		m.clearCaches(demand)
	}
	m.adaptCaches()
	return live
}

// mark sets the live bit on f's stored node and everything below it,
// iterating down high chains to keep recursion depth at the BDD width.
func (m *Manager) mark(f Ref) {
	f = regular(f)
	for !m.marked(f) {
		m.setMark(f)
		n := m.node(f)
		m.mark(n.low)
		f = regular(n.high)
	}
}

// MaybeGC runs a collection if the node count has crossed the adaptive
// threshold. It returns true if a collection ran. Even when no
// collection is due it performs the O(1) cache-adaptation check, so
// fixpoint loops that never trigger a GC still grow their caches.
func (m *Manager) MaybeGC() bool {
	// MaybeGC call sites already satisfy the protection contract a
	// reorder needs, so a pending automatic reorder drains here too.
	m.MaybeReorder()
	if !m.gcEnabled || m.Size() < m.autoGCAt {
		m.adaptCaches()
		return false
	}
	before := m.Size()
	m.GC()
	freed := before - m.lastLive
	if freed < before/4 {
		// Collection was not productive; defer the next one.
		m.autoGCAt *= 2
	}
	return true
}

// GCPending reports whether the next MaybeGC call would collect — the
// node count has crossed the adaptive threshold. Fixpoint loops use it
// to gate the IncRef traffic that protects their loop state across a
// safe point, the same way ReorderPending gates reorder protection.
func (m *Manager) GCPending() bool {
	return m.gcEnabled && m.Size() >= m.autoGCAt
}

// SetGCThreshold sets the node count at which MaybeGC collects.
func (m *Manager) SetGCThreshold(n int) { m.autoGCAt = n }

// DisableGC turns MaybeGC into a no-op (explicit GC still works).
func (m *Manager) DisableGC() { m.gcEnabled = false }
