package lc

import (
	"strings"
	"testing"

	"hsis/internal/bdd"
	"hsis/internal/blifmv"
	"hsis/internal/ctl"
	"hsis/internal/fair"
	"hsis/internal/network"
	"hsis/internal/pif"
)

func compile(t *testing.T, src string) *network.Network {
	t.Helper()
	d, err := blifmv.ParseString(src, "test.mv")
	if err != nil {
		t.Fatal(err)
	}
	flat, err := blifmv.Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.Build(flat, network.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func parseAut(t *testing.T, src, name string) *pif.AutSpec {
	t.Helper()
	f, err := pif.ParseString(src, "props.pif")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range f.Automata {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("automaton %s not found", name)
	return nil
}

// mutexOK: token alternates; g1 = !t, g2 = t — never both granted.
const mutexOK = `
.model mutexOK
.table t g1
0 1
1 0
.table t g2
0 0
1 1
.table t nt
0 1
1 0
.latch nt t
.reset t
0
.end
`

// mutexBad: g2 stuck at 1 — both granted when t=0.
const mutexBad = `
.model mutexBad
.table t g1
0 1
1 0
.table t g2
0 1
1 1
.table t nt
0 1
1 0
.latch nt t
.reset t
0
.end
`

// Figure 2 of the paper: the invariance automaton for "out1 and out2
// are never asserted at the same time".
const mutexAut = `
automaton never_both {
  states A B
  init A
  edge A A !(g1=1 * g2=1)
  edge A B g1=1 * g2=1
  edge B B TRUE
  rabin avoid { B } recur { A }
}
`

func TestInvariancePassAndFail(t *testing.T) {
	for _, tc := range []struct {
		src  string
		pass bool
	}{{mutexOK, true}, {mutexBad, false}} {
		n := compile(t, tc.src)
		a, err := Compile(n, parseAut(t, mutexAut, "never_both"))
		if err != nil {
			t.Fatal(err)
		}
		p := NewProduct(n, a)
		res := Check(p, nil, Options{})
		if res.Pass != tc.pass {
			t.Errorf("%s: pass = %v, want %v", n.Model().Name, res.Pass, tc.pass)
		}
		if !tc.pass && res.FairHull == bdd.False {
			t.Error("failing check must produce a nonempty fair hull for debugging")
		}
	}
}

// pause: may stay at 0 forever; 1 returns to 0.
const pause = `
.model pause
.table s n
0 {0,1}
1 0
.latch n s
.reset s
0
.end
`

// Büchi-style liveness property as an edge-Rabin automaton:
// "s=1 occurs infinitely often".
const liveAut = `
automaton inf_one {
  states A
  init A
  edge A A s=1 : hit
  edge A A s!=1 : miss
  rabin avoid {} recur edges { hit }
}
`

func TestLivenessRequiresFairness(t *testing.T) {
	n := compile(t, pause)
	a, err := Compile(n, parseAut(t, liveAut, "inf_one"))
	if err != nil {
		t.Fatal(err)
	}
	p := NewProduct(n, a)

	// without design fairness: the run 0,0,0,... violates the property
	res := Check(p, nil, Options{})
	if res.Pass {
		t.Fatal("liveness must fail without fairness")
	}

	// with the negative state constraint, stuttering at 0 is excluded
	fc := &fair.Constraints{}
	fc.AddNegativeStateSubset(n.Manager(), "leave0", n.VarByName("s").Eq(0))
	res = Check(p, fc, Options{})
	if !res.Pass {
		t.Fatal("liveness must pass under fairness")
	}
}

func TestEarlyFailureDetection(t *testing.T) {
	n := compile(t, mutexBad)
	a, err := Compile(n, parseAut(t, mutexAut, "never_both"))
	if err != nil {
		t.Fatal(err)
	}
	p := NewProduct(n, a)
	res := Check(p, nil, Options{EarlySteps: 4})
	if res.Pass {
		t.Fatal("must fail")
	}
	if !res.EarlyDetected {
		t.Fatal("violation within 4 steps should be caught early")
	}

	// passing design: early scan must not misfire
	n2 := compile(t, mutexOK)
	a2, err := Compile(n2, parseAut(t, mutexAut, "never_both"))
	if err != nil {
		t.Fatal(err)
	}
	res2 := Check(NewProduct(n2, a2), nil, Options{EarlySteps: 4})
	if !res2.Pass || res2.EarlyDetected {
		t.Fatal("early detection produced a false positive")
	}
}

// TestBoundedReachHonoursInterrupt checks the early-failure scan is a
// cancellation point like every other fixpoint.
func TestBoundedReachHonoursInterrupt(t *testing.T) {
	n := compile(t, mutexBad)
	a, err := Compile(n, parseAut(t, mutexAut, "never_both"))
	if err != nil {
		t.Fatal(err)
	}
	p := NewProduct(n, a)
	p.Manager().Interrupt()
	defer func() {
		if r := recover(); r != bdd.ErrInterrupted {
			t.Fatalf("recovered %v, want bdd.ErrInterrupted", r)
		}
	}()
	boundedReached(p, 4)
	t.Fatal("boundedReached returned on an interrupted manager")
}

func TestNondeterministicAutomatonRejected(t *testing.T) {
	src := `
automaton nd {
  states A B
  init A
  edge A A g1=1
  edge A B g1=1
  rabin avoid { B } recur { A }
}
`
	n := compile(t, mutexOK)
	_, err := Compile(n, parseAut(t, src, "nd"))
	if err == nil || !strings.Contains(err.Error(), "nondeterministic") {
		t.Fatalf("want nondeterminism rejection, got %v", err)
	}
}

func TestTrapCompletion(t *testing.T) {
	// automaton only describes the g1=1 observation: everything else
	// falls into the implicit rejecting trap, so a design that can show
	// g1=0 fails containment.
	src := `
automaton partial {
  states A
  init A
  edge A A g1=1
  rabin avoid {} recur { A }
}
`
	n := compile(t, mutexOK) // g1 alternates 1,0,1,0...
	a, err := Compile(n, parseAut(t, src, "partial"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.States) != 2 || a.States[1] != "_trap" {
		t.Fatalf("trap not added: %v", a.States)
	}
	res := Check(NewProduct(n, a), nil, Options{})
	if res.Pass {
		t.Fatal("behavior outside the automaton's language must fail containment")
	}
}

func TestInvarianceAutomatonMatchesCTL(t *testing.T) {
	for _, tc := range []struct {
		src  string
		pass bool
	}{{mutexOK, true}, {mutexBad, false}} {
		n := compile(t, tc.src)
		cond := ctl.MustParse("!(g1=1 * g2=1)")
		a, err := InvarianceAutomaton(n, "fig2", cond)
		if err != nil {
			t.Fatal(err)
		}
		res := Check(NewProduct(n, a), nil, Options{})
		if res.Pass != tc.pass {
			t.Errorf("%s: LC verdict %v", n.Model().Name, res.Pass)
		}
		// cross-check against the CTL model checker
		c := ctl.NewForNetwork(n, nil)
		v, err := c.Check(ctl.AG{F: cond})
		if err != nil {
			t.Fatal(err)
		}
		if v.Pass != res.Pass {
			t.Errorf("%s: LC (%v) and MC (%v) disagree", n.Model().Name, res.Pass, v.Pass)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	n := compile(t, mutexOK)
	cases := []struct{ src, name, want string }{
		{"automaton a {\nstates A\ninit Z\nedge A A TRUE\nrabin recur { A }\n}\n", "a", "unknown init"},
		{"automaton a {\nstates A\ninit A\nedge A Z TRUE\nrabin recur { A }\n}\n", "a", "unknown state"},
		{"automaton a {\nstates A\ninit A\nedge A A zz=1\nrabin recur { A }\n}\n", "a", "unknown variable"},
		{"automaton a {\nstates A\ninit A\nedge A A TRUE\n}\n", "a", "no acceptance"},
		{"automaton a {\nstates A\ninit A\nedge A A TRUE\nrabin recur { Z }\n}\n", "a", "unknown state"},
		{"automaton a {\nstates A\ninit A\nedge A A TRUE\nrabin recur edges { zz }\n}\n", "a", "unknown edge label"},
		{"automaton a {\nstates A A\ninit A\nedge A A TRUE\nrabin recur { A }\n}\n", "a", "duplicate state"},
		{"automaton a {\nstates A\ninit A\nedge A A TRUE : x\nedge A A FALSE : x\nrabin recur { A }\n}\n", "a", "duplicate edge label"},
	}
	for _, c := range cases {
		_, err := Compile(n, parseAut(t, c.src, c.name))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("want %q, got %v", c.want, err)
		}
	}
}

func TestCompileFairness(t *testing.T) {
	n := compile(t, pause)
	f, err := pif.ParseString(`
fairness {
  negative state s=0
  positive state s=1
  positive edge s=0 => s=1
}
`, "f.pif")
	if err != nil {
		t.Fatal(err)
	}
	fc, err := CompileFairness(n, f.Fairness)
	if err != nil {
		t.Fatal(err)
	}
	if len(fc.Buchi) != 3 {
		t.Fatalf("constraints = %+v", fc)
	}
	if !fc.Buchi[2].IsEdge {
		t.Fatal("positive edge constraint should be an edge predicate")
	}
	// unknown variable
	f2, _ := pif.ParseString("fairness {\nnegative state zz=1\n}\n", "f2.pif")
	if _, err := CompileFairness(n, f2.Fairness); err == nil {
		t.Fatal("unknown variable should error")
	}
}

func TestDoomedStates(t *testing.T) {
	n := compile(t, mutexOK)
	a, err := Compile(n, parseAut(t, mutexAut, "never_both"))
	if err != nil {
		t.Fatal(err)
	}
	doomed := a.DoomedStates(n.Manager())
	if len(doomed) != 1 || a.States[doomed[0]] != "B" {
		t.Fatalf("doomed = %v, want exactly B", doomed)
	}
}

func TestDoomedStatesEdgePairsConservative(t *testing.T) {
	n := compile(t, pause)
	a, err := Compile(n, parseAut(t, liveAut, "inf_one"))
	if err != nil {
		t.Fatal(err)
	}
	if doomed := a.DoomedStates(n.Manager()); len(doomed) != 0 {
		t.Fatalf("edge-pair automaton should have no doomed states, got %v", doomed)
	}
}

func TestDoomedStatesPathThroughAvoid(t *testing.T) {
	// The run may traverse an Avoid state finitely often before settling
	// into an Avoid-free cycle: q0 -> bad -> q1 (loop), pair avoid{bad}
	// recur{q1}. q0 must NOT be doomed.
	src := `
automaton detour {
  states q0 bad q1
  init q0
  edge q0 bad TRUE
  edge bad q1 TRUE
  edge q1 q1 TRUE
  rabin avoid { bad } recur { q1 }
}
`
	n := compile(t, mutexOK)
	a, err := Compile(n, parseAut(t, src, "detour"))
	if err != nil {
		t.Fatal(err)
	}
	if doomed := a.DoomedStates(n.Manager()); len(doomed) != 0 {
		t.Fatalf("no state is doomed here, got %v", doomed)
	}
}

func TestEarlyDoomedDetection(t *testing.T) {
	// mutexBad violates the invariance immediately; with EarlySteps the
	// doomed-state scan must fire without the full fair computation.
	n := compile(t, mutexBad)
	a, err := Compile(n, parseAut(t, mutexAut, "never_both"))
	if err != nil {
		t.Fatal(err)
	}
	res := Check(NewProduct(n, a), nil, Options{EarlySteps: 3})
	if res.Pass || !res.EarlyDetected {
		t.Fatalf("want early doom detection, got pass=%v early=%v", res.Pass, res.EarlyDetected)
	}
}
