package core

import (
	"strings"
	"testing"

	"hsis/internal/designs"
	"hsis/internal/quant"
)

func loadDesign(t *testing.T, name string, opts Options) *Workspace {
	t.Helper()
	d, err := designs.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := LoadVerilogString(d.Verilog, name+".v", d.Top, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddPIFString(d.PIF, name+".pif"); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPingpongAllPropertiesPass(t *testing.T) {
	w := loadDesign(t, "pingpong", Options{})
	if got := w.ReachableStates(); got < 3 || got > 6 {
		t.Fatalf("pingpong reached %v states, expected a handful", got)
	}
	if len(w.Automata) != 6 || len(w.CTLProps) != 6 {
		t.Fatalf("pingpong: %d LC, %d CTL props; Table 1 wants 6 and 6",
			len(w.Automata), len(w.CTLProps))
	}
	for _, r := range w.VerifyAll() {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		if !r.Pass {
			t.Errorf("pingpong property %s (%s) failed unexpectedly", r.Name, r.Kind)
		}
	}
}

func TestPhilosMutexPassesLivenessFails(t *testing.T) {
	w := loadDesign(t, "philos", Options{})
	if len(w.Automata) != 2 || len(w.CTLProps) != 2 {
		t.Fatalf("philos: %d LC, %d CTL props; Table 1 wants 2 and 2",
			len(w.Automata), len(w.CTLProps))
	}
	results := w.VerifyAll()
	byName := map[string]*PropertyResult{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		byName[r.Name] = r
	}
	if !byName["eat_mutex"].Pass || !byName["mutex"].Pass {
		t.Error("mutual exclusion must hold")
	}
	if byName["eat_live"].Pass {
		t.Error("liveness must fail: the symmetric protocol deadlocks")
	}
	if byName["progress"].Pass {
		t.Error("CTL progress must fail: the symmetric protocol deadlocks")
	}
	// failing LC property carries a verified error trace and bug report
	r := byName["eat_live"]
	if r.Trace == nil {
		t.Fatal("failing LC property must produce an error trace")
	}
	report := w.BugReport(r)
	if !strings.Contains(report, "FAIL") || !strings.Contains(report, "cycle") {
		t.Fatalf("bug report:\n%s", report)
	}
	// the deadlock shows both philosophers holding their left forks
	if !strings.Contains(report, "HASL") {
		t.Fatalf("expected the deadlock (HASL) in the trace:\n%s", report)
	}
}

func TestOptionsVariants(t *testing.T) {
	// The same verdicts under every engine configuration.
	for _, opts := range []Options{
		{},
		{Heuristic: quant.Linear},
		{NaiveQuantification: true},
		{AppendedOrder: true},
		{EarlySteps: 4},
		{DisableInvariantFastPath: true},
	} {
		w := loadDesign(t, "pingpong", opts)
		for _, r := range w.VerifyAll() {
			if r.Err != nil || !r.Pass {
				t.Fatalf("opts %+v: property %s failed (%v)", opts, r.Name, r.Err)
			}
		}
	}
}

func TestInvariantFastPathFlag(t *testing.T) {
	w := loadDesign(t, "pingpong", Options{})
	var mutex *PropertyResult
	for _, p := range w.CTLProps {
		if p.Name == "mutex" {
			mutex = w.CheckCTL(p)
		}
	}
	if mutex == nil || !mutex.UsedInvariantPath {
		t.Fatal("AG(prop) should use the invariance fast path without fairness")
	}
	w2 := loadDesign(t, "pingpong", Options{DisableInvariantFastPath: true})
	for _, p := range w2.CTLProps {
		if p.Name == "mutex" {
			r := w2.CheckCTL(p)
			if r.UsedInvariantPath {
				t.Fatal("fast path should be disabled")
			}
			if !r.Pass {
				t.Fatal("verdict must not change")
			}
		}
	}
}

func TestLineCounts(t *testing.T) {
	w := loadDesign(t, "pingpong", Options{})
	if w.VerilogLines == 0 || w.BlifmvLines == 0 {
		t.Fatal("source metrics missing")
	}
	if w.BlifmvLines < w.VerilogLines {
		t.Log("note: BLIF-MV smaller than Verilog (unusual but possible)")
	}
}

func TestDesignCatalog(t *testing.T) {
	names := designs.Names()
	if len(names) != 6 {
		t.Fatalf("catalog has %d designs, want 6", len(names))
	}
	if _, err := designs.Get("nope"); err == nil {
		t.Fatal("unknown design should error")
	}
}

func TestConeOfInfluenceOption(t *testing.T) {
	// mdlc2's channel-0 property ignores most of channel 1 — COI must
	// drop latches and preserve every verdict.
	full := loadDesign(t, "mdlc2", Options{})
	coi := loadDesign(t, "mdlc2", Options{ConeOfInfluence: true})
	rf := full.VerifyAll()
	rc := coi.VerifyAll()
	if len(rf) != len(rc) {
		t.Fatal("result count mismatch")
	}
	droppedSomewhere := false
	for i := range rf {
		if rf[i].Err != nil || rc[i].Err != nil {
			t.Fatalf("errors: %v / %v", rf[i].Err, rc[i].Err)
		}
		if rf[i].Pass != rc[i].Pass {
			t.Fatalf("%s: COI changed verdict %v -> %v", rf[i].Name, rf[i].Pass, rc[i].Pass)
		}
		if rc[i].ConeDropped > 0 {
			droppedSomewhere = true
		}
	}
	if !droppedSomewhere {
		t.Fatal("COI never reduced anything on mdlc2")
	}
}

func TestConeOfInfluenceAllDesignsVerdictsStable(t *testing.T) {
	for _, name := range designs.Names() {
		full := loadDesign(t, name, Options{})
		coi := loadDesign(t, name, Options{ConeOfInfluence: true})
		rf := full.VerifyAll()
		rc := coi.VerifyAll()
		for i := range rf {
			if rf[i].Err != nil || rc[i].Err != nil {
				t.Fatalf("%s/%s: %v / %v", name, rf[i].Name, rf[i].Err, rc[i].Err)
			}
			if rf[i].Pass != rc[i].Pass {
				t.Fatalf("%s/%s: COI changed the verdict", name, rf[i].Name)
			}
		}
	}
}

func TestVerificationSurvivesGC(t *testing.T) {
	// The GC contract: the network's protected roots (T, Init) survive a
	// collection, and verification after a GC produces identical
	// verdicts. (Checkers are per-property, so nothing else needs to be
	// protected between properties.)
	w := loadDesign(t, "philos", Options{})
	before := map[string]bool{}
	for _, r := range w.VerifyAll() {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		before[r.Name] = r.Pass
	}
	m := w.Net.Manager()
	sizeBefore := m.Size()
	m.GC()
	if m.GCCount != 1 {
		t.Fatal("GC did not run")
	}
	if m.Size() >= sizeBefore {
		t.Log("GC reclaimed nothing (all nodes reachable from T/Init)")
	}
	for _, r := range w.VerifyAll() {
		if r.Err != nil {
			t.Fatalf("after GC: %v", r.Err)
		}
		if before[r.Name] != r.Pass {
			t.Fatalf("after GC: %s verdict changed", r.Name)
		}
	}
}

// TestAutoBuildsTOnlyWithoutReplication pins the auto engine's rule:
// at default options a replicated design (philos-16) is verified end
// to end — reachability, CTL with fairness, language containment —
// without ever building the monolithic T, while a design with little
// replication (mdlc2) builds it. Verdicts on a smaller ring must match
// the monolithic engine's.
func TestAutoBuildsTOnlyWithoutReplication(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		wantT   bool
	}{
		{"philos-16", 2, false},
		{"mdlc2", 1, true},
	} {
		w := loadDesign(t, tc.name, Options{Workers: tc.workers})
		w.ReachableStatesExact()
		for _, r := range w.VerifyAll() {
			if r.Err != nil {
				t.Fatalf("%s: %s: %v", tc.name, r.Name, r.Err)
			}
		}
		if got := w.Net.TBuilt(); got != tc.wantT {
			t.Errorf("%s at default options: TBuilt() = %v, want %v", tc.name, got, tc.wantT)
		}
	}
	for _, name := range []string{"philos-4", "scheduler-8"} {
		auto := loadDesign(t, name, Options{})
		mono := loadDesign(t, name, Options{Image: "monolithic"})
		if auto.Net.TBuilt() || !mono.Net.TBuilt() {
			t.Fatalf("%s: TBuilt auto=%v monolithic=%v", name, auto.Net.TBuilt(), mono.Net.TBuilt())
		}
		if a, m := auto.ReachableStatesExact(), mono.ReachableStatesExact(); a.Cmp(m) != 0 {
			t.Fatalf("%s: auto reached %v states, monolithic %v", name, a, m)
		}
		ra, rm := auto.VerifyAll(), mono.VerifyAll()
		for i := range ra {
			if ra[i].Err != nil || rm[i].Err != nil || ra[i].Pass != rm[i].Pass {
				t.Fatalf("%s: %s: auto pass=%v (%v), monolithic pass=%v (%v)",
					name, ra[i].Name, ra[i].Pass, ra[i].Err, rm[i].Pass, rm[i].Err)
			}
		}
		if auto.Net.TBuilt() {
			t.Fatalf("%s: verification under auto built T", name)
		}
	}
}

// TestMdlc2AutoSiftMatchesReorderOff pins the former known-bad of the
// repository benchmark: mdlc2 under auto sifting with Workers 2 once
// blew up inside VerifyAll and returned a wrong ch0_terminates. Workers
// is a no-op now, and the run must give reorder-off's exact reachable
// state count and every one of its verdicts.
func TestMdlc2AutoSiftMatchesReorderOff(t *testing.T) {
	if testing.Short() {
		t.Skip("mdlc2 verification is slow")
	}
	matchReorderOff(t, Options{Reorder: "auto", Workers: 2}, "under auto sifting")
}

// TestMdlc2ExplicitIsoMatchesReorderOff: an explicit -image iso on mdlc2
// (three replicated pairs, below the IsoWorthwhile bar) replays the
// per-replica clusters without the cross-replica merge and must give
// reorder-off's exact state count and verdicts.
func TestMdlc2ExplicitIsoMatchesReorderOff(t *testing.T) {
	if testing.Short() {
		t.Skip("mdlc2 verification is slow")
	}
	matchReorderOff(t, Options{Image: "iso"}, "under explicit iso")
}

// verifyMdlc2 returns mdlc2's exact reachable-state count and every
// verdict under opts.
func verifyMdlc2(t *testing.T, opts Options) (string, map[string]bool) {
	t.Helper()
	w := loadDesign(t, "mdlc2", opts)
	states := w.ReachableStatesExact().String()
	verdicts := map[string]bool{}
	for _, r := range w.VerifyAll() {
		if r.Err != nil {
			t.Fatalf("%+v: %s: %v", opts, r.Name, r.Err)
		}
		verdicts[string(r.Kind)+"/"+r.Name] = r.Pass
	}
	st := w.Net.Manager().Stats()
	t.Logf("reorder %q, image %q: %s states, %v, peak %d live nodes, %d sifts",
		opts.Reorder, opts.Image, states, verdicts, st.PeakLive, st.Reorders)
	return states, verdicts
}

// matchReorderOff checks that mdlc2 under opts reaches exactly the
// states, and gives exactly the verdicts, of a run at default options
// (reordering off).
func matchReorderOff(t *testing.T, opts Options, how string) {
	t.Helper()
	wantStates, want := verifyMdlc2(t, Options{})
	if wantStates != "28954" {
		t.Fatalf("reorder off: %s states, want 28954", wantStates)
	}
	gotStates, got := verifyMdlc2(t, opts)
	if gotStates != wantStates {
		t.Errorf("reachable states: %s %s, %s with reordering off", gotStates, how, wantStates)
	}
	if len(got) != len(want) {
		t.Fatalf("verdict count: %d %s, %d with reordering off", len(got), how, len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: pass=%v %s, %v with reordering off", k, got[k], how, w)
		}
	}
}

// TestSiftKeepsFairnessLive pins the fix for wrong verdicts after
// sifting: the design fairness constraints compiled from the PIF (paper
// §5.1) are long-lived Refs, and a sift's opening GC used to free them
// for the session's swaps to reuse, so later fair-EG computations read
// a different function (dcnew's deliver_live FAILed). Every bundled
// design, under auto sifting and under a manual sift right after
// loading, must give reorder-off's exact state count and verdicts, and
// leave a forest that passes the kernel's invariant check.
func TestSiftKeepsFairnessLive(t *testing.T) {
	type run struct {
		states   string
		verdicts map[string]bool
	}
	verify := func(name, how string, opts Options, sift bool) run {
		t.Helper()
		w := loadDesign(t, name, opts)
		if sift {
			w.SiftNow()
		}
		r := run{states: w.ReachableStatesExact().String(), verdicts: map[string]bool{}}
		for _, p := range w.VerifyAll() {
			if p.Err != nil {
				t.Fatalf("%s %s: %s: %v", name, how, p.Name, p.Err)
			}
			r.verdicts[string(p.Kind)+"/"+p.Name] = p.Pass
		}
		if err := w.Net.Manager().CheckInvariants(); err != nil {
			t.Fatalf("%s %s: after VerifyAll: %v", name, how, err)
		}
		return r
	}
	for _, name := range designs.Names() {
		if name == "mdlc2" && testing.Short() {
			continue
		}
		want := verify(name, "off", Options{}, false)
		for _, c := range []struct {
			how  string
			opts Options
			sift bool
		}{
			{"auto", Options{Reorder: "auto"}, false},
			{"manual+sift", Options{Reorder: "manual"}, true},
		} {
			got := verify(name, c.how, c.opts, c.sift)
			if got.states != want.states {
				t.Errorf("%s %s: %s states, %s with reordering off", name, c.how, got.states, want.states)
			}
			for k, v := range want.verdicts {
				if g, ok := got.verdicts[k]; !ok || g != v {
					t.Errorf("%s %s: %s pass=%v, %v with reordering off", name, c.how, k, g, v)
				}
			}
		}
	}
}
