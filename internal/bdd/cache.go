package bdd

import "hsis/internal/telemetry"

// The adaptive operation-cache layer. The four direct-mapped caches
// (ITE, binary ops, Exists, AndExists) start at fixed power-of-two sizes
// and grow on demand: when a cache shows a sustained hit-rate collapse —
// at least cacheGrowStreak consecutive observation windows below
// cacheGrowHitRate — its array doubles, bounded by a per-Manager total
// entry budget. Growth rehashes the surviving entries into the larger
// array, so a resize never discards warm state.
//
// The caches also survive garbage collection: sweepCaches (called from
// GC while the mark bitmap is valid) keeps every entry whose operands
// and result are all still live, and only zeroes entries that reference
// a reclaimed node. Before this, every collection cleared all caches
// wholesale, so each fixpoint iteration after a GC recomputed work the
// previous iteration had already done.

// Initial cache sizes (entries, powers of two). These match the old
// fixed constants, so a session that never collects sees the same
// capacity as before — but they are now just a starting point: a cache
// under sustained pressure doubles, and the collector shrinks an
// oversized cache down to minCacheSize when the working set no longer
// justifies it.
const (
	initITECache   = 1 << 15
	initBinopCache = 1 << 16
	initQuantCache = 1 << 15
	initAexCache   = 1 << 16

	// minCacheSize is the shrink floor: no cache drops below this, so
	// even a tiny session keeps enough associativity to be useful.
	minCacheSize = 1 << 12
)

// defaultCacheBudget caps the total entries across the four op caches
// (~32 MiB at 16 bytes/entry). SetCacheBudget overrides it.
const defaultCacheBudget = 1 << 21

const (
	cacheWindowMin   = 1 << 14 // probes before a window yields a verdict
	cacheGrowHitRate = 0.25    // below this, a window counts toward growth
	cacheGrowStreak  = 2       // consecutive low windows before doubling

	// cacheAdaptEvery is the node-allocation interval at which mkNode
	// runs an adaptation check, so caches grow during long recursions
	// that never reach a GC point.
	cacheAdaptEvery = 1 << 14
)

type cacheID int

const (
	cacheITE cacheID = iota
	cacheBinop
	cacheQuant
	cacheAex
	numCaches
)

func (id cacheID) String() string {
	switch id {
	case cacheITE:
		return "ite"
	case cacheBinop:
		return "apply"
	case cacheQuant:
		return "quant"
	case cacheAex:
		return "andexists"
	default:
		return "unknown"
	}
}

// cacheWindow tracks one cache's counters at the last adaptation check.
type cacheWindow struct {
	calls, hits uint64
	lowStreak   int
}

// SetCacheBudget bounds the total number of operation-cache entries the
// adaptive growth policy may reach, across all four caches.
func (m *Manager) SetCacheBudget(entries int) { m.cacheBudget = entries }

// adaptCaches runs one adaptation check per cache. It is O(1) unless a
// cache actually grows, so callers (MaybeGC, GC) can invoke it freely.
func (m *Manager) adaptCaches() {
	m.adaptOne(cacheITE, m.statITECalls, m.statITEHits)
	m.adaptOne(cacheBinop, m.statApplyCalls, m.statApplyHits)
	m.adaptOne(cacheQuant, m.statQuantCalls, m.statQuantHits)
	m.adaptOne(cacheAex, m.statAexCalls, m.statAexHits)
}

func (m *Manager) adaptOne(id cacheID, calls, hits uint64) {
	w := &m.cacheWin[id]
	dcalls := calls - w.calls
	if dcalls < cacheWindowMin {
		return // not enough traffic since the last check for a verdict
	}
	dhits := hits - w.hits
	w.calls, w.hits = calls, hits
	if float64(dhits) >= cacheGrowHitRate*float64(dcalls) {
		w.lowStreak = 0
		return
	}
	if w.lowStreak++; w.lowStreak < cacheGrowStreak {
		return
	}
	w.lowStreak = 0
	// A low hit rate alone is not a capacity signal: a cold phase misses
	// because its subproblems are new, and doubling then just buys more
	// memory to wipe. Only grow when the cache is also nearly full, the
	// evidence that misses come from entries evicting each other.
	if m.cacheOccupied(id) {
		m.growCache(id)
	}
}

// cacheOccupied samples the cache and reports whether it is mostly full
// (≥ 3/4 of sampled slots in use). Empty entries have f == 0.
func (m *Manager) cacheOccupied(id cacheID) bool {
	const samples = 256
	used := 0
	switch id {
	case cacheITE:
		stride := len(m.ite) / samples
		for i := 0; i < samples; i++ {
			if m.ite[i*stride].f != 0 {
				used++
			}
		}
	case cacheBinop:
		stride := len(m.binop) / samples
		for i := 0; i < samples; i++ {
			if m.binop[i*stride].f != 0 {
				used++
			}
		}
	case cacheQuant:
		stride := len(m.quant) / samples
		for i := 0; i < samples; i++ {
			if m.quant[i*stride].f != 0 {
				used++
			}
		}
	case cacheAex:
		stride := len(m.aex) / samples
		for i := 0; i < samples; i++ {
			if m.aex[i*stride].f != 0 {
				used++
			}
		}
	}
	return used >= samples*3/4
}

func (m *Manager) totalCacheEntries() int {
	return len(m.ite) + len(m.binop) + len(m.quant) + len(m.aex)
}

// growCache doubles one cache, rehashing its entries into the new array,
// unless doing so would exceed the per-Manager budget.
func (m *Manager) growCache(id cacheID) {
	switch id {
	case cacheITE:
		if m.totalCacheEntries()+len(m.ite) > m.cacheBudget {
			return
		}
		old := m.ite
		m.ite = make([]iteEntry, 2*len(old))
		m.iteMask = uint64(len(m.ite) - 1)
		for _, e := range old {
			if e.f == 0 {
				continue
			}
			m.ite[hash3(uint64(e.f), uint64(e.g), uint64(e.h))&m.iteMask] = e
		}
	case cacheBinop:
		if m.totalCacheEntries()+len(m.binop) > m.cacheBudget {
			return
		}
		old := m.binop
		m.binop = make([]binopEntry, 2*len(old))
		m.binopMask = uint64(len(m.binop) - 1)
		for _, e := range old {
			if e.f == 0 {
				continue
			}
			m.binop[hash3(uint64(e.op), uint64(e.f), uint64(e.g))&m.binopMask] = e
		}
	case cacheQuant:
		if m.totalCacheEntries()+len(m.quant) > m.cacheBudget {
			return
		}
		old := m.quant
		m.quant = make([]quantEntry, 2*len(old))
		m.quantMask = uint64(len(m.quant) - 1)
		for _, e := range old {
			if e.f == 0 {
				continue
			}
			m.quant[hash3(uint64(e.f), uint64(e.cube), 0x5eed)&m.quantMask] = e
		}
	case cacheAex:
		if m.totalCacheEntries()+len(m.aex) > m.cacheBudget {
			return
		}
		old := m.aex
		m.aex = make([]aexEntry, 2*len(old))
		m.aexMask = uint64(len(m.aex) - 1)
		for _, e := range old {
			if e.f == 0 {
				continue
			}
			m.aex[hash3(uint64(e.f), uint64(e.g), uint64(e.cube))&m.aexMask] = e
		}
	}
	m.statCacheGrowths++
	if sc := m.Telemetry(); sc != nil {
		sc.Emit("bdd.cache_grow",
			telemetry.Str("cache", id.String()),
			telemetry.Int("entries", m.cacheLen(id)),
			telemetry.Int("total_entries", m.totalCacheEntries()))
	}
}

// cacheLen returns the current entry count of one cache.
func (m *Manager) cacheLen(id cacheID) int {
	switch id {
	case cacheITE:
		return len(m.ite)
	case cacheBinop:
		return len(m.binop)
	case cacheQuant:
		return len(m.quant)
	default:
		return len(m.aex)
	}
}

// clearCaches wipes all four operation caches and resizes each toward
// the working set measured by `demand` (max of surviving nodes and
// allocations since the previous collection). GC uses it instead of
// sweepCaches when almost everything died: an entry survives a sweep
// only if every node it mentions is live, so at a low live ratio the
// scan-and-test is all cost and no yield. Shrinking at the same point
// keeps a cache that ballooned during one heavy phase (a transition
// relation build, a pathological preimage) from taxing every later
// collection with a multi-megabyte wipe, while the demand signal keeps
// a steady-state loop that rebuilds a large forest every iteration from
// losing its sizing; if demand resurges anyway, the adaptive growth
// path brings a shrunk cache back within a few windows.
func (m *Manager) clearCaches(demand int) {
	target := pow2AtLeast(demand)
	resize := func(n, init int) int {
		want := target
		if want < init {
			want = init
		}
		// 2× hysteresis: resizing is only worth it when the cache is
		// oversized by at least a factor of two.
		if 2*want > n {
			want = n
		}
		return want
	}
	if n := resize(len(m.ite), minCacheSize); n < len(m.ite) {
		m.ite = make([]iteEntry, n)
		m.iteMask = uint64(n - 1)
	} else {
		clear(m.ite)
	}
	if n := resize(len(m.binop), minCacheSize); n < len(m.binop) {
		m.binop = make([]binopEntry, n)
		m.binopMask = uint64(n - 1)
	} else {
		clear(m.binop)
	}
	if n := resize(len(m.quant), minCacheSize); n < len(m.quant) {
		m.quant = make([]quantEntry, n)
		m.quantMask = uint64(n - 1)
	} else {
		clear(m.quant)
	}
	if n := resize(len(m.aex), minCacheSize); n < len(m.aex) {
		m.aex = make([]aexEntry, n)
		m.aexMask = uint64(n - 1)
	} else {
		clear(m.aex)
	}
	for i := range m.cacheWin {
		m.cacheWin[i].lowStreak = 0
	}
	m.statCacheKept = 0
}

// pow2AtLeast returns the smallest power of two ≥ n (and ≥ 1).
func pow2AtLeast(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// sweepCaches drops every cache entry that references a node reclaimed
// by the current collection, keeping the rest. It must run while the GC
// mark bitmap is valid.
func (m *Manager) sweepCaches() {
	kept := 0
	for i := range m.ite {
		e := &m.ite[i]
		if e.f == 0 {
			continue
		}
		if m.marked(regular(e.f)) && m.marked(regular(e.g)) &&
			m.marked(regular(e.h)) && m.marked(regular(e.res)) {
			kept++
			continue
		}
		*e = iteEntry{}
	}
	for i := range m.binop {
		e := &m.binop[i]
		if e.f == 0 {
			continue
		}
		if m.marked(regular(e.f)) && m.marked(regular(e.g)) && m.marked(regular(e.res)) {
			kept++
			continue
		}
		*e = binopEntry{}
	}
	for i := range m.quant {
		e := &m.quant[i]
		if e.f == 0 {
			continue
		}
		if m.marked(regular(e.f)) && m.marked(regular(e.cube)) && m.marked(regular(e.res)) {
			kept++
			continue
		}
		*e = quantEntry{}
	}
	for i := range m.aex {
		e := &m.aex[i]
		if e.f == 0 {
			continue
		}
		if m.marked(regular(e.f)) && m.marked(regular(e.g)) &&
			m.marked(regular(e.cube)) && m.marked(regular(e.res)) {
			kept++
			continue
		}
		*e = aexEntry{}
	}
	m.statCacheKept = kept
}
