package ctl

import (
	"testing"

	"hsis/internal/bdd"
	"hsis/internal/blifmv"
	"hsis/internal/fair"
	"hsis/internal/network"
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

const counter4 = `
.model counter4
.mv s,n 4
.table s n
0 1
1 2
2 3
3 0
.latch n s
.reset s
0
.end
`

const gated5 = `
.model gated5
.mv s,n 5
.table s n
0 1
1 2
2 3
3 0
4 0
.latch n s
.reset s
0
.end
`

// pause: 0 →{0,1}, 1→0; may stutter at 0 forever
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

func TestBasicOperators(t *testing.T) {
	n := compile(t, counter4)
	c := NewForNetwork(n, nil)
	s := n.VarByName("s")

	sat := func(src string) bdd.Ref {
		t.Helper()
		r, err := c.Sat(MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if got := sat("EX s=1"); got != s.Eq(0) {
		t.Error("EX s=1 should be exactly {0}")
	}
	if got := sat("EF s=3"); n.Manager().Diff(s.Domain(), got) != bdd.False {
		t.Error("every state reaches 3 on the cycle")
	}
	if got := sat("EG TRUE"); n.Manager().Diff(s.Domain(), got) != bdd.False {
		t.Error("every state has an infinite path")
	}
	// A(s=0 U s=1): holds at exactly {0, 1}
	got := sat("A(s=0 U s=1)")
	want := n.Manager().Or(s.Eq(0), s.Eq(1))
	if n.Manager().And(got, s.Domain()) != want {
		t.Error("AU set wrong")
	}
	// E(s=0 U s=1) equals here (deterministic)
	got = sat("E(s=0 U s=1)")
	if n.Manager().And(got, s.Domain()) != want {
		t.Error("EU set wrong")
	}
	// AX/EX agree on a deterministic system (on reachable states)
	ax := sat("AX s=2")
	ex := sat("EX s=2")
	if n.Manager().And(ax, s.Domain()) != n.Manager().And(ex, s.Domain()) {
		t.Error("AX != EX on deterministic machine")
	}
}

func TestCheckVerdicts(t *testing.T) {
	n := compile(t, counter4)
	c := NewForNetwork(n, nil)
	// passes: always eventually wraps to 0
	v, err := c.Check(MustParse("AG(AF s=0)"))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass {
		t.Error("AG AF s=0 should pass on the cycle")
	}
	// fails: s=1 is reached
	v, err = c.Check(MustParse("AG s!=1"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass {
		t.Error("AG s!=1 should fail")
	}
	if v.FailingInit == bdd.False {
		t.Error("failing verdict must expose failing initial states")
	}
}

func TestInvariancePath(t *testing.T) {
	n := compile(t, gated5)
	c := NewForNetwork(n, nil)
	// state 4 unreachable: invariant passes through the fast path
	v, err := c.Check(MustParse("AG s!=4"))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass || !v.UsedInvariantPath {
		t.Fatalf("want pass via invariant path, got %+v", v)
	}
	// violated at depth 2
	v, err = c.Check(MustParse("AG s!=2"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass || !v.UsedInvariantPath {
		t.Fatalf("want fail via invariant path, got %+v", v)
	}
	if v.FailStep != 2 {
		t.Fatalf("FailStep = %d, want 2 (early failure depth)", v.FailStep)
	}
}

// TestEarlyFailure pins the bounded-depth check of paper §5.4 that the
// invariance path runs: FailStep is the reachability step at which a bad
// state first appears, or -1 when none is reachable.
func TestEarlyFailure(t *testing.T) {
	for _, tc := range []struct {
		src, formula string
		want         int
	}{
		{counter4, "AG s!=2", 2}, // state 2 first appears after 2 steps
		{counter4, "AG s!=0", 0}, // the initial state is bad
		{gated5, "AG s!=4", -1},  // the bad state is unreachable
	} {
		v, err := NewForNetwork(compile(t, tc.src), nil).Check(MustParse(tc.formula))
		if err != nil {
			t.Fatal(err)
		}
		if !v.UsedInvariantPath || v.FailStep != tc.want || v.Pass != (tc.want < 0) {
			t.Fatalf("%s: invariant path %v, FailStep %d, pass %v; want FailStep %d",
				tc.formula, v.UsedInvariantPath, v.FailStep, v.Pass, tc.want)
		}
	}
}

func TestInvariancePathSkippedUnderFairness(t *testing.T) {
	n := compile(t, gated5)
	fc := &fair.Constraints{}
	fc.AddPositiveStateSubset("gf0", n.VarByName("s").Eq(0))
	c := NewForNetwork(n, fc)
	v, err := c.Check(MustParse("AG s!=4"))
	if err != nil {
		t.Fatal(err)
	}
	if v.UsedInvariantPath {
		t.Fatal("fast path must be disabled under fairness constraints")
	}
	if !v.Pass {
		t.Fatal("property should still pass")
	}
}

func TestLivenessNeedsFairness(t *testing.T) {
	n := compile(t, pause)
	s := n.VarByName("s")

	// Without fairness the machine may stutter at 0 forever.
	c := NewForNetwork(n, nil)
	v, err := c.Check(MustParse("AG(s=0 -> AF s=1)"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass {
		t.Fatal("liveness should fail without fairness")
	}

	// The paper's canonical use of a negative fairness constraint:
	// exclude runs that stay at the pause state forever.
	fc := &fair.Constraints{}
	fc.AddNegativeStateSubset(n.Manager(), "leave0", s.Eq(0))
	cf := NewForNetwork(n, fc)
	v, err = cf.Check(MustParse("AG(s=0 -> AF s=1)"))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass {
		t.Fatal("liveness should pass under the negative fairness constraint")
	}
}

func TestPositiveFairEdgesLiveness(t *testing.T) {
	n := compile(t, pause)
	m := n.Manager()
	s := n.VarByName("s")
	// the paper's alternative: mark the exit edge 0→1 as a positive
	// fair edge; only runs taking it infinitely often are legal.
	fc := &fair.Constraints{}
	fc.AddPositiveFairEdges("exit", m.And(s.Eq(0), n.SwapRails(s.Eq(1))))
	c := NewForNetwork(n, fc)
	v, err := c.Check(MustParse("AG(s=0 -> AF s=1)"))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass {
		t.Fatal("liveness should pass with positive fair edges")
	}
}

func TestUnknownAtomErrors(t *testing.T) {
	n := compile(t, counter4)
	c := NewForNetwork(n, nil)
	if _, err := c.Check(MustParse("AG zz=1")); err == nil {
		t.Fatal("unknown variable should error")
	}
	if _, err := c.Check(MustParse("AG s=seven")); err == nil {
		t.Fatal("unknown value should error")
	}
}

func TestNeqAtom(t *testing.T) {
	n := compile(t, counter4)
	c := NewForNetwork(n, nil)
	s := n.VarByName("s")
	got, err := c.Sat(MustParse("s != 2"))
	if err != nil {
		t.Fatal(err)
	}
	if n.Manager().And(got, s.Domain()) != n.Manager().Diff(s.Domain(), s.Eq(2)) {
		t.Fatal("!= semantics wrong")
	}
}

func TestBooleanConnectives(t *testing.T) {
	n := compile(t, counter4)
	c := NewForNetwork(n, nil)
	m := n.Manager()
	s := n.VarByName("s")
	cases := []struct {
		src  string
		want bdd.Ref
	}{
		{"s=0 + s=1", m.Or(s.Eq(0), s.Eq(1))},
		{"s!=0 * s!=1", m.Diff(m.Not(s.Eq(0)), s.Eq(1))},
		{"s=0 -> s=1", m.Or(m.Not(s.Eq(0)), s.Eq(1))},
		{"TRUE", bdd.True},
		{"FALSE", bdd.False},
	}
	for _, cse := range cases {
		got, err := c.Sat(MustParse(cse.src))
		if err != nil {
			t.Fatal(err)
		}
		if got != cse.want {
			t.Errorf("Sat(%q) wrong", cse.src)
		}
	}
}
