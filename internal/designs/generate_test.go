package designs

import (
	"fmt"
	"testing"

	"hsis/internal/blifmv"
	"hsis/internal/network"
	"hsis/internal/reach"
	"hsis/internal/verilog"
)

func reachableStates(t *testing.T, d *Design) (float64, int) {
	t.Helper()
	dsg, err := verilog.CompileString(d.Verilog, d.Name+".v", d.Top)
	if err != nil {
		t.Fatalf("%s: compile: %v", d.Name, err)
	}
	flat, err := blifmv.Flatten(dsg)
	if err != nil {
		t.Fatalf("%s: flatten: %v", d.Name, err)
	}
	n, err := network.Build(flat, network.Options{})
	if err != nil {
		t.Fatalf("%s: build: %v", d.Name, err)
	}
	res := reach.Forward(n, reach.Options{})
	if !res.Converged {
		t.Fatalf("%s: reachability diverged", d.Name)
	}
	return n.NumStates(res.Reached), len(n.Latches())
}

// TestGeneratedMatchesBundled pins the generator to the hand-written
// originals: scheduler-16 is the bundled scheduler, and philos-2 is the
// bundled philos up to the renaming of fork-owner values (P0/P1 →
// LEFT/RIGHT), so the reachable state counts must agree exactly.
func TestGeneratedMatchesBundled(t *testing.T) {
	for _, tc := range []struct{ scaled, bundled string }{
		{"scheduler-16", "scheduler"},
		{"philos-2", "philos"},
	} {
		gen, err := Get(tc.scaled)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Get(tc.bundled)
		if err != nil {
			t.Fatal(err)
		}
		got, gl := reachableStates(t, gen)
		want, wl := reachableStates(t, ref)
		if gl != wl {
			t.Errorf("%s: %d latches, bundled %s has %d", tc.scaled, gl, tc.bundled, wl)
		}
		if got != want {
			t.Errorf("%s: %v reachable states, bundled %s has %v", tc.scaled, got, tc.bundled, want)
		}
	}
}

// TestGeneratedScaling compiles a spread of scaled instances and sanity
// checks structure: a philos-N ring has 2N latches (N philosophers, N
// forks) and a scheduler-N ring has 2N (token + busy per cell), and the
// reachable space grows with N.
func TestGeneratedScaling(t *testing.T) {
	prevPhil := 0.0
	for _, n := range []int{3, 5, 8} {
		d, err := Get(fmt.Sprintf("philos-%d", n))
		if err != nil {
			t.Fatal(err)
		}
		states, latches := reachableStates(t, d)
		if latches != 2*n {
			t.Errorf("philos-%d: %d latches, want %d", n, latches, 2*n)
		}
		if states <= prevPhil {
			t.Errorf("philos-%d: %v reachable states, not above philos-%v", n, states, prevPhil)
		}
		prevPhil = states
	}
	d, err := Get("scheduler-6")
	if err != nil {
		t.Fatal(err)
	}
	states, latches := reachableStates(t, d)
	if latches != 12 {
		t.Errorf("scheduler-6: %d latches, want 12", latches)
	}
	if states < 64 {
		t.Errorf("scheduler-6: %v reachable states, suspiciously few", states)
	}
}

// TestGeneratedNames covers the name-resolution edge cases.
func TestGeneratedNames(t *testing.T) {
	if _, err := Get("philos-1"); err == nil {
		t.Error("philos-1 resolved; scaled instances need N >= 2")
	}
	if _, err := Get("gigamax-4"); err == nil {
		t.Error("gigamax-4 resolved; only philos and scheduler scale")
	}
	if _, err := Get("philos-x"); err == nil {
		t.Error("philos-x resolved")
	}
	d, err := Get("philos-16")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "philos-16" || d.Top != "philos" {
		t.Errorf("philos-16 metadata: name %q top %q", d.Name, d.Top)
	}
	if d.PIF == "" {
		t.Error("generated design has no properties")
	}
}
