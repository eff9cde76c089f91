package bdd

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// buildForest allocates a few dozen nodes and runs every cached
// operation at least once, so the counters move.
func buildForest(m *Manager) Ref {
	vars := make([]Ref, 8)
	for i := range vars {
		vars[i] = m.NewVar()
	}
	f := False
	for i := 0; i < len(vars)-1; i++ {
		f = m.Or(f, m.And(vars[i], m.Not(vars[i+1])))
	}
	f = m.ITE(vars[0], f, m.Not(f))
	f = m.Or(f, m.Exists(f, m.Cube([]int{1, 3})))
	f = m.Or(f, m.AndExists(f, vars[2], m.Cube([]int{5})))
	return f
}

// TestQuantHitRateZeroCalls pins the division-by-zero edge: a fresh
// manager has made no quantifier calls, and the rate must be 0, not NaN.
func TestQuantHitRateZeroCalls(t *testing.T) {
	st := New().Stats()
	if st.QuantCalls != 0 || st.AndExistsCalls != 0 {
		t.Fatal("fresh manager has quantifier calls")
	}
	r := st.QuantHitRate()
	if r != 0 {
		t.Fatalf("QuantHitRate() = %v, want 0", r)
	}
	if math.IsNaN(r) || math.IsInf(r, 0) {
		t.Fatalf("QuantHitRate() = %v on zero calls", r)
	}
	for k, v := range st.BenchMetrics() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("BenchMetrics[%s] = %v on a fresh manager", k, v)
		}
	}
}

// TestCounterMonotonicityAcrossGC checks the cumulative counters never
// move backwards across garbage collections: GC reclaims nodes, but the
// call/hit tallies and the peaks only grow.
func TestCounterMonotonicityAcrossGC(t *testing.T) {
	m := New()
	prev := m.Stats()
	for round := 0; round < 5; round++ {
		f := buildForest(m)
		m.IncRef(f)
		m.GC()
		m.DecRef(f)
		st := m.Stats()
		assertMonotone(t, prev, st)
		if st.GCs != prev.GCs+1 {
			t.Fatalf("round %d: GCs = %d, want %d", round, st.GCs, prev.GCs+1)
		}
		prev = st
	}
}

// TestCounterMonotonicityAcrossReorder runs full sift passes between
// operation batches and checks the same monotonicity contract; sifting
// rewrites the arena but must not lose counters.
func TestCounterMonotonicityAcrossReorder(t *testing.T) {
	m := New()
	f := m.IncRef(buildForest(m))
	prev := m.Stats()
	for round := 0; round < 3; round++ {
		s := m.StartReorder()
		for lvl := 0; lvl+1 < m.NumVars(); lvl++ {
			s.Swap(lvl)
		}
		s.Close()
		f = m.IncRef(m.Or(f, buildForest(m)))
		st := m.Stats()
		assertMonotone(t, prev, st)
		if st.Reorders != prev.Reorders+1 {
			t.Fatalf("round %d: Reorders = %d, want %d", round, st.Reorders, prev.Reorders+1)
		}
		prev = st
	}
}

func assertMonotone(t *testing.T, prev, cur Statistics) {
	t.Helper()
	type pair struct {
		name      string
		old, this uint64
	}
	for _, p := range []pair{
		{"ApplyCalls", prev.ApplyCalls, cur.ApplyCalls},
		{"ApplyHits", prev.ApplyHits, cur.ApplyHits},
		{"ITECalls", prev.ITECalls, cur.ITECalls},
		{"ITEHits", prev.ITEHits, cur.ITEHits},
		{"QuantCalls", prev.QuantCalls, cur.QuantCalls},
		{"QuantHits", prev.QuantHits, cur.QuantHits},
		{"AndExistsCalls", prev.AndExistsCalls, cur.AndExistsCalls},
		{"AndExistsHits", prev.AndExistsHits, cur.AndExistsHits},
		{"ComplementShared", prev.ComplementShared, cur.ComplementShared},
		{"ReorderSwaps", prev.ReorderSwaps, cur.ReorderSwaps},
		{"GCs", uint64(prev.GCs), uint64(cur.GCs)},
		{"PeakNodes", uint64(prev.PeakNodes), uint64(cur.PeakNodes)},
		{"PeakLive", uint64(prev.PeakLive), uint64(cur.PeakLive)},
		{"Reorders", uint64(prev.Reorders), uint64(cur.Reorders)},
	} {
		if p.this < p.old {
			t.Fatalf("%s went backwards: %d -> %d", p.name, p.old, p.this)
		}
	}
}

// TestStatsSnapshotDuringReorder checks the coherence satellite: while a
// reorder session has the arena mid-rewrite, Stats() serves the frozen
// boundary snapshot instead of reading half-swapped state, and the live
// view resumes after Close.
func TestStatsSnapshotDuringReorder(t *testing.T) {
	m := New()
	f := m.IncRef(buildForest(m))
	_ = f
	// Latency holds slices (histogram snapshots from the scope), so
	// counter comparisons strip it first.
	counters := func(s Statistics) Statistics {
		s.Latency = nil
		return s
	}
	before := m.Stats()
	s := m.StartReorder()
	during := m.Stats()
	if !reflect.DeepEqual(counters(during), counters(before)) {
		t.Fatalf("Stats during session differs from boundary snapshot:\n%v\nvs\n%v", during, before)
	}
	s.Swap(0)
	// Still frozen after a swap mutated the arena.
	if got := m.Stats(); !reflect.DeepEqual(counters(got), counters(before)) {
		t.Fatal("Stats changed mid-session after a swap")
	}
	s.Close()
	after := m.Stats()
	if after.Reorders != before.Reorders+1 {
		t.Fatalf("Reorders after Close = %d, want %d", after.Reorders, before.Reorders+1)
	}
	if after.LiveNodes <= 0 {
		t.Fatal("live view did not resume after Close")
	}
}

// TestWriteTableRendering sanity-checks the unified formatter shared by
// the shell, the CLIs and the telemetry summary.
func TestWriteTableRendering(t *testing.T) {
	m := New()
	f := m.IncRef(buildForest(m))
	_ = f
	m.GC()
	table := m.Stats().Table()
	for _, want := range []string{
		"variables", "nodes live/alloc", "peak alloc / live",
		"apply cache", "ite cache", "quant cache", "andexists cache",
		"gcs", "complement-shared", "cache growths/kept",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	// The reorders row only appears once a reorder has run.
	if strings.Contains(table, "reorders") {
		t.Error("reorders row rendered with zero reorders")
	}
	s := m.StartReorder()
	s.Swap(0)
	s.Close()
	got := m.Stats().Table()
	if !strings.Contains(got, "reorders") {
		t.Errorf("reorders row missing after a reorder:\n%s", got)
	}
	// The kernel is sequential: it renders no worker, fork, L1 or zone
	// rows, and the fields kept for the benchmark read zero.
	for _, row := range []string{"workers", "forks", "l1 cache", "fork grain", "sift zones", "symmetric"} {
		if strings.Contains(got, row) {
			t.Errorf("table renders a parallel-kernel row %q:\n%s", row, got)
		}
	}
	if st := m.Stats(); st.Forks != 0 || st.Steals != 0 || st.SiftZones != 0 {
		t.Errorf("forks/steals/sift zones = %d/%d/%d, want 0/0/0", st.Forks, st.Steals, st.SiftZones)
	}
}
