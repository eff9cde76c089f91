package bdd

import (
	"fmt"
	"io"
	"strings"
	"time"

	"hsis/internal/telemetry"
)

// Statistics reports operation and cache-effectiveness counters, the
// numbers the original tool's BDD package printed for tuning.
type Statistics struct {
	ApplyCalls     uint64 // binary-operator recursions with a cache probe
	ApplyHits      uint64
	ITECalls       uint64
	ITEHits        uint64
	QuantCalls     uint64 // Exists/ForAll recursions (cube-keyed cache)
	QuantHits      uint64
	AndExistsCalls uint64 // AndExists recursions (cube-keyed cache)
	AndExistsHits  uint64
	GCs            int
	LiveNodes      int
	AllocatedNodes int
	PeakNodes      int
	Variables      int

	// Complement-edge sharing: mk calls whose result was re-rooted onto
	// the complement of an existing (or newly shared) node, i.e. cases
	// where f and ¬f ended up sharing storage.
	ComplementShared uint64

	// Persistent permutation cache (Permuter): node visits and
	// cross-call memo hits. The isomorphism-exploiting image pipeline
	// instantiates replica cluster plans through Permuters, so a high
	// hit rate here means replica plans were near-free.
	PermCalls uint64
	PermHits  uint64

	// Adaptive cache layer: current per-cache sizes (entries, after any
	// adaptive growth), how many times a cache doubled, and how many
	// entries survived the most recent GC sweep.
	ITECacheEntries       int
	ApplyCacheEntries     int
	QuantCacheEntries     int
	AndExistsCacheEntries int
	CacheGrowths          int
	CacheEntriesKept      int

	// Forks, Steals and SiftZones are always zero. The kernel is
	// sequential: it forks no subproblems, so no worker steals any, and
	// sifting always runs over the whole order, never in zones. The
	// fields stay because the repository benchmark still reads them.
	Forks     uint64
	Steals    uint64
	SiftZones uint64

	// Dynamic variable reordering: number of sifting runs, total
	// adjacent-level swaps, cumulative time spent reordering, the node
	// counts around the most recent run, and the peak live node count
	// (the quantity reordering exists to bound). The acceleration
	// counters break the swap total down: InterSkips counts swaps that
	// degenerated to pure relabels because the two variables never
	// co-occur in a live support, and LBAborts counts sift directions
	// cut short by the lower-bound estimate.
	Reorders           int
	ReorderSwaps       uint64
	ReorderInterSkips  uint64
	ReorderLBAborts    uint64
	ReorderTime        time.Duration
	ReorderNodesBefore int
	ReorderNodesAfter  int
	PeakLive           int

	// Latency histograms, present when the manager's telemetry scope
	// carries a MetricSet (armed by `hsis -stats` and by every daemon
	// job): fixpoint iteration, image, GC pause and reorder-session
	// durations, rendered by WriteTable as count/p50/p99 rows. Empty
	// snapshots (Count == 0) are skipped when rendering.
	Latency []telemetry.HistogramSnapshot
}

func ratio(hits, calls uint64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(hits) / float64(calls)
}

// String renders a two-line summary, plus a reordering line when any
// reorder has run.
func (s Statistics) String() string {
	out := fmt.Sprintf(
		"bdd: %d vars, %d live / %d alloc nodes (peak %d, live-peak %d), %d GCs, %d comp-shared; cache hits: apply %.0f%%, ite %.0f%%, quant %.0f%%, andexists %.0f%%\n"+
			"bdd: cache entries: apply %d, ite %d, quant %d, andexists %d (%d growths, %d kept across last GC)",
		s.Variables, s.LiveNodes, s.AllocatedNodes, s.PeakNodes, s.PeakLive, s.GCs, s.ComplementShared,
		100*ratio(s.ApplyHits, s.ApplyCalls),
		100*ratio(s.ITEHits, s.ITECalls),
		100*ratio(s.QuantHits, s.QuantCalls),
		100*ratio(s.AndExistsHits, s.AndExistsCalls),
		s.ApplyCacheEntries, s.ITECacheEntries, s.QuantCacheEntries, s.AndExistsCacheEntries,
		s.CacheGrowths, s.CacheEntriesKept)
	if s.Reorders > 0 {
		out += fmt.Sprintf(
			"\nbdd: reorders: %d (%d swaps in %v; last %d -> %d nodes; %d fast-swaps, %d lb-aborts)",
			s.Reorders, s.ReorderSwaps, s.ReorderTime.Round(time.Millisecond),
			s.ReorderNodesBefore, s.ReorderNodesAfter,
			s.ReorderInterSkips, s.ReorderLBAborts)
	}
	return out
}

// QuantHitRate returns the combined hit rate of the two cube-keyed
// quantifier caches (Exists/ForAll and AndExists), the number the image
// pipeline benchmarks report.
func (s Statistics) QuantHitRate() float64 {
	return ratio(s.QuantHits+s.AndExistsHits, s.QuantCalls+s.AndExistsCalls)
}

// PermHitRate returns the hit rate of the persistent permutation cache
// (Permuter), the number the iso image pipeline benchmarks report.
func (s Statistics) PermHitRate() float64 {
	return ratio(s.PermHits, s.PermCalls)
}

// WriteTable renders the statistics as an aligned name/value table —
// the one formatter behind the shell's print_stats, the CLIs' -stats
// output and the telemetry summary's statistics block.
func (s Statistics) WriteTable(w io.Writer) {
	row := func(name string, format string, args ...any) {
		fmt.Fprintf(w, "  %-22s %s\n", name, fmt.Sprintf(format, args...))
	}
	row("variables", "%d", s.Variables)
	row("nodes live/alloc", "%d / %d", s.LiveNodes, s.AllocatedNodes)
	row("peak alloc / live", "%d / %d", s.PeakNodes, s.PeakLive)
	row("gcs", "%d", s.GCs)
	row("complement-shared", "%d", s.ComplementShared)
	row("apply cache", "%.1f%% of %d calls (%d entries)",
		100*ratio(s.ApplyHits, s.ApplyCalls), s.ApplyCalls, s.ApplyCacheEntries)
	row("ite cache", "%.1f%% of %d calls (%d entries)",
		100*ratio(s.ITEHits, s.ITECalls), s.ITECalls, s.ITECacheEntries)
	row("quant cache", "%.1f%% of %d calls (%d entries)",
		100*ratio(s.QuantHits, s.QuantCalls), s.QuantCalls, s.QuantCacheEntries)
	row("andexists cache", "%.1f%% of %d calls (%d entries)",
		100*ratio(s.AndExistsHits, s.AndExistsCalls), s.AndExistsCalls, s.AndExistsCacheEntries)
	row("cache growths/kept", "%d / %d", s.CacheGrowths, s.CacheEntriesKept)
	if s.PermCalls > 0 {
		row("perm cache", "%.1f%% of %d calls",
			100*ratio(s.PermHits, s.PermCalls), s.PermCalls)
	}
	if s.Reorders > 0 {
		row("reorders", "%d (%d swaps in %v; last %d -> %d nodes)",
			s.Reorders, s.ReorderSwaps, s.ReorderTime.Round(time.Millisecond),
			s.ReorderNodesBefore, s.ReorderNodesAfter)
		row("reorder accel", "%d interaction-skips, %d lb-aborts",
			s.ReorderInterSkips, s.ReorderLBAborts)
	}
	for _, h := range s.Latency {
		if h.Count == 0 {
			continue
		}
		row(h.Name+" latency", "%d obs, p50 %v, p99 %v",
			h.Count,
			time.Duration(h.P50US())*time.Microsecond,
			time.Duration(h.P99US())*time.Microsecond)
	}
}

// Table returns WriteTable's rendering as a string.
func (s Statistics) Table() string {
	var sb strings.Builder
	s.WriteTable(&sb)
	return sb.String()
}

// BenchMetrics returns the statistics the benchmark harness records
// alongside ns/op, keyed by the metric names benchjson emits into
// BENCH_*.json (peak-live and hit-rate trajectories).
func (s Statistics) BenchMetrics() map[string]float64 {
	return map[string]float64{
		"peak-live-nodes": float64(s.PeakLive),
		"peak-bdd-nodes":  float64(s.PeakNodes),
		"cache-hit-%":     100 * s.QuantHitRate(),
	}
}

// TelemetryFields renders the headline statistics as telemetry fields,
// for the "bdd.stats" event the CLIs emit when a traced run ends.
func (s Statistics) TelemetryFields() []telemetry.Field {
	return []telemetry.Field{
		telemetry.Int("vars", s.Variables),
		telemetry.Int("live", s.LiveNodes),
		telemetry.Int("peak_live", s.PeakLive),
		telemetry.Int("peak_alloc", s.PeakNodes),
		telemetry.Int("gcs", s.GCs),
		telemetry.Int("reorders", s.Reorders),
		telemetry.F64("quant_hit_rate", s.QuantHitRate()),
		telemetry.F64("apply_hit_rate", ratio(s.ApplyHits, s.ApplyCalls)),
		telemetry.F64("ite_hit_rate", ratio(s.ITEHits, s.ITECalls)),
		telemetry.F64("perm_hit_rate", s.PermHitRate()),
	}
}

// Stats snapshots the manager's counters. While a reorder session is
// open the node arena, the unique table and the cache arrays are all
// mid-rewrite, so Stats returns the coherent snapshot taken at the
// session boundary instead of reading half-swapped state — telemetry
// samples and shell commands never observe a partially reordered level.
func (m *Manager) Stats() Statistics {
	var s Statistics
	if m.session != nil {
		s = m.statsSnap
	} else {
		s = m.statsNow()
	}
	// Latency snapshots come from the scope, not the frozen snapshot:
	// the histograms are lock-free and coherent at any time.
	if ms := m.Telemetry().Metrics(); ms != nil {
		s.Latency = ms.Snapshots()
	}
	return s
}

// statsNow collects the counters directly; callers must ensure no
// reorder session is rewriting the arena.
func (m *Manager) statsNow() Statistics {
	return Statistics{
		ApplyCalls:     m.statApplyCalls,
		ApplyHits:      m.statApplyHits,
		ITECalls:       m.statITECalls,
		ITEHits:        m.statITEHits,
		QuantCalls:     m.statQuantCalls,
		QuantHits:      m.statQuantHits,
		AndExistsCalls: m.statAexCalls,
		AndExistsHits:  m.statAexHits,
		GCs:            m.GCCount,
		LiveNodes:      m.Size(),
		AllocatedNodes: m.nodeCap,
		PeakNodes:      m.peakNodes,
		Variables:      m.numVars,

		ComplementShared:      m.statCompShared,
		PermCalls:             m.statPermCalls,
		PermHits:              m.statPermHits,
		ITECacheEntries:       len(m.ite),
		ApplyCacheEntries:     len(m.binop),
		QuantCacheEntries:     len(m.quant),
		AndExistsCacheEntries: len(m.aex),
		CacheGrowths:          m.statCacheGrowths,
		CacheEntriesKept:      m.statCacheKept,

		Reorders:           m.statReorders,
		ReorderSwaps:       m.statReorderSwaps,
		ReorderInterSkips:  m.statInterSkips,
		ReorderLBAborts:    m.statLBAborts,
		ReorderTime:        m.statReorderTime,
		ReorderNodesBefore: m.reorderBefore,
		ReorderNodesAfter:  m.reorderAfter,
		PeakLive:           m.peakLive,
	}
}
