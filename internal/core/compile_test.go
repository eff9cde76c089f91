package core

import (
	"sync"
	"testing"

	"hsis/internal/designs"
)

// TestCompiledDesignSharedAcrossGoroutines instantiates one frontend
// artifact from several goroutines at once — the service daemon's
// hot path — and checks every workspace verifies identically to the
// classic Load path.
func TestCompiledDesignSharedAcrossGoroutines(t *testing.T) {
	d, err := designs.Get("pingpong")
	if err != nil {
		t.Fatal(err)
	}
	art, err := CompileVerilog(d.Verilog, "pingpong.v", d.Top)
	if err != nil {
		t.Fatal(err)
	}
	if err := art.AddPIF(d.PIF, "props.pif"); err != nil {
		t.Fatal(err)
	}
	if !art.Model().Sealed() {
		t.Fatal("compiled artifact's flat model is not sealed")
	}
	if ctl, lc := art.NumProperties(); ctl != 6 || lc != 6 {
		t.Fatalf("artifact carries %d CTL / %d LC props, want 6/6", ctl, lc)
	}

	ref := loadDesign(t, "pingpong", Options{})
	want := map[string]bool{}
	for _, r := range ref.VerifyAll() {
		if r.Err != nil {
			t.Fatalf("reference %s: %v", r.Name, r.Err)
		}
		want[r.Name] = r.Pass
	}
	wantStates := ref.ReachableStatesExact().String()

	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws, err := art.Instantiate(Options{})
			if err != nil {
				errs <- err
				return
			}
			for _, r := range ws.VerifyAll() {
				if r.Err != nil {
					errs <- r.Err
					return
				}
				if pass, ok := want[r.Name]; !ok || pass != r.Pass {
					t.Errorf("shared-artifact verdict %s=%v diverges from Load path %v",
						r.Name, r.Pass, pass)
				}
			}
			if got := ws.ReachableStatesExact().String(); got != wantStates {
				t.Errorf("shared-artifact reached %s states, Load path %s", got, wantStates)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestInstantiateValidatesOptions keeps the Load-path option errors on
// the artifact path.
func TestInstantiateValidatesOptions(t *testing.T) {
	art, err := CompileBlifMV(".model m\n.latch n s\n.reset s\n0\n.table s n\n0 1\n1 0\n.end\n", "m.mv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := art.Instantiate(Options{Image: "bogus"}); err == nil {
		t.Error("bogus image engine accepted")
	}
	if _, err := art.Instantiate(Options{Reorder: "bogus"}); err == nil {
		t.Error("bogus reorder policy accepted")
	}
	if _, err := art.Instantiate(Options{ReorderAccel: "bogus"}); err == nil {
		t.Error("bogus reorder acceleration accepted")
	}
	if _, err := art.Instantiate(Options{ReorderAccel: "interaction,symmetry"}); err == nil {
		t.Error("symmetry accepted as a reorder acceleration")
	}
}
