package network

import (
	"strings"
	"testing"

	"hsis/internal/bdd"
	"hsis/internal/blifmv"
	"hsis/internal/quant"
)

func compile(t *testing.T, src string, opts Options) *Network {
	t.Helper()
	d, err := blifmv.ParseString(src, "test.mv")
	if err != nil {
		t.Fatal(err)
	}
	flat, err := blifmv.Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(flat, opts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

const grayCounter = `
.model gray
.table b0 n0
0 1
1 0
.table b0 b1 n1
0 0 0
0 1 1
1 0 1
1 1 0
.latch n0 b0
.reset b0
0
.latch n1 b1
.reset b1
0
.end
`

func TestBuildGrayCounter(t *testing.T) {
	n := compile(t, grayCounter, Options{})
	if len(n.Latches()) != 2 {
		t.Fatalf("latches = %d", len(n.Latches()))
	}
	for _, l := range n.Latches() {
		if l.Aux {
			t.Errorf("latch %s should reuse its input as NS", l.Src.Output)
		}
	}
	if n.T == bdd.False {
		t.Fatal("transition relation empty")
	}
	// Deterministic machine: from each state exactly one successor.
	if got := n.Manager().SatCount(n.T, len(n.PSBits())+len(n.NSBits())); got != 4 {
		t.Fatalf("T has %v transitions, want 4", got)
	}
	if got := n.NumStates(n.Init); got != 1 {
		t.Fatalf("Init has %v states, want 1", got)
	}
}

func TestTransitionFunction(t *testing.T) {
	n := compile(t, grayCounter, Options{})
	m := n.Manager()
	b0, b1 := n.VarByName("b0"), n.VarByName("b1")
	n0, n1 := n.VarByName("n0"), n.VarByName("n1")
	// state (0,0) -> (1,0): check T ∧ b0=0 ∧ b1=0 implies n0=1 ∧ n1=0
	now := m.And(b0.Eq(0), b1.Eq(0))
	tr := m.And(n.T, now)
	if m.Diff(tr, m.And(n0.Eq(1), n1.Eq(0))) != bdd.False {
		t.Fatal("successor of 00 is not 10")
	}
	if tr == bdd.False {
		t.Fatal("no transition from initial state")
	}
}

const mod3 = `
.model mod3
.mv s,ns 3 zero one two
.table s ns
zero one
one two
two zero
.latch ns s
.reset s
zero
.end
`

func TestMultiValuedDomainConstraint(t *testing.T) {
	n := compile(t, mod3, Options{})
	m := n.Manager()
	// exactly 3 transitions despite the 2-bit encoding having 4 codes
	if got := m.SatCount(n.T, 4); got != 3 {
		t.Fatalf("T has %v transitions, want 3", got)
	}
	s := n.VarByName("s")
	// no transition leads to the invalid code 3
	inv := m.Diff(bdd.True, s.Domain())
	if m.And(n.SwapRails(inv), n.T) != bdd.False {
		t.Fatal("transition into invalid code")
	}
}

const sharedInput = `
.model shared
.table a b n
0 0 0
0 1 1
1 0 1
1 1 0
.latch n a
.reset a
0
.latch n b
.reset b
1
.end
`

func TestSharedLatchInputUsesAux(t *testing.T) {
	n := compile(t, sharedInput, Options{})
	auxCount := 0
	for _, l := range n.Latches() {
		if l.Aux {
			auxCount++
		}
	}
	if auxCount != 1 {
		t.Fatalf("aux latches = %d, want exactly 1 (second claim of n)", auxCount)
	}
	// Both latches load the same value: after any step a==b.
	m := n.Manager()
	a, b := n.VarByName("a"), n.VarByName("b")
	nextEq := n.SwapRails(a.EqVar(b))
	if m.Diff(n.T, nextEq) != bdd.False {
		t.Fatal("shared input did not force equal next states")
	}
}

const selfLoop = `
.model self
.table q nq
0 1
1 0
.latch q q2
.reset q2
0
.latch nq q
.reset q
0
.end
`

func TestLatchOutputAsLatchInput(t *testing.T) {
	// q is both a latch output and the input of another latch; the
	// second latch must get an auxiliary NS variable.
	n := compile(t, selfLoop, Options{})
	var q2 *Latch
	for _, l := range n.Latches() {
		if l.Src.Output == "q2" {
			q2 = l
		}
	}
	if q2 == nil || !q2.Aux {
		t.Fatal("latch fed by a latch output must use an aux NS variable")
	}
	m := n.Manager()
	// Semantics: q2' = q, so T ∧ (q=1) implies q2'=1.
	qv, q2v := n.VarByName("q"), n.VarByName("q2")
	tr := m.And(n.T, qv.Eq(1))
	if m.Diff(tr, n.SwapRails(q2v.Eq(1))) != bdd.False {
		t.Fatal("aux NS semantics wrong")
	}
}

const nondetSrc = `
.model nd
.mv c 2 stay go
.table c        # free choice
-
.table c s n
stay - =s
go 0 1
go 1 0
.latch n s
.reset s
0
.end
`

func TestNondeterministicTransitions(t *testing.T) {
	n := compile(t, nondetSrc, Options{})
	m := n.Manager()
	// from each state two successors (stay or flip) -> 4 transitions
	if got := m.SatCount(n.T, 2); got != 4 {
		t.Fatalf("T has %v transitions, want 4", got)
	}
}

func TestLabelEqStateVar(t *testing.T) {
	n := compile(t, mod3, Options{})
	lbl, err := n.LabelEq("s", "two")
	if err != nil {
		t.Fatal(err)
	}
	if lbl != n.VarByName("s").Eq(2) {
		t.Fatal("state-variable label should be plain equality")
	}
	if _, err := n.LabelEq("s", "bogus"); err == nil {
		t.Fatal("unknown value should error")
	}
	if _, err := n.LabelEq("zz", "0"); err == nil {
		t.Fatal("unknown variable should error")
	}
}

func TestLabelEqCombinational(t *testing.T) {
	// n = !s, so label(n=1) = states with s=0
	n := compile(t, mod3, Options{})
	lbl, err := n.LabelEq("ns", "one")
	if err != nil {
		t.Fatal(err)
	}
	if lbl != n.VarByName("s").Eq(0) {
		t.Fatal("combinational label wrong: ns==one exactly when s==zero")
	}
}

// TestQuantHeuristicsAgree checks T, built by the early-quantification
// schedule, is exactly the naive conjoin-then-quantify relation.
func TestQuantHeuristicsAgree(t *testing.T) {
	for _, src := range []string{grayCounter, mod3, sharedInput, nondetSrc} {
		n := compile(t, src, Options{})
		if naive := quant.Naive(n.Manager(), n.Conjuncts(), n.NonStateBits()); n.T != naive {
			t.Fatal("T differs from the naive conjoin-then-quantify relation")
		}
	}
}

func TestSkipMonolithic(t *testing.T) {
	n := compile(t, grayCounter, Options{SkipMonolithic: true})
	if n.T != bdd.False {
		t.Fatal("SkipMonolithic should leave T unbuilt")
	}
	if len(n.Conjuncts()) == 0 {
		t.Fatal("partitioned conjuncts missing")
	}
}

func TestDecodeAndPickState(t *testing.T) {
	n := compile(t, mod3, Options{})
	asg, ok := n.PickState(n.VarByName("s").Eq(2))
	if !ok {
		t.Fatal("PickState failed on nonempty set")
	}
	st := n.DecodeState(asg)
	if st["s"] != "two" {
		t.Fatalf("decoded %v, want s=two", st)
	}
	eq := n.StateEq(asg)
	if eq != n.VarByName("s").Eq(2) {
		t.Fatal("StateEq should rebuild the same singleton set")
	}
}

func TestNoLatchesRejected(t *testing.T) {
	src := ".model comb\n.table a b\n0 1\n1 0\n.end\n"
	d, err := blifmv.ParseString(src, "c.mv")
	if err != nil {
		t.Fatal(err)
	}
	flat, err := blifmv.Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(flat, Options{}); err == nil || !strings.Contains(err.Error(), "no latches") {
		t.Fatalf("want no-latches error, got %v", err)
	}
}

func TestPrimaryInputIsFree(t *testing.T) {
	src := `
.model pi
.inputs go
.table go s n
0 - =s
1 0 1
1 1 0
.latch n s
.reset s
0
.end
`
	n := compile(t, src, Options{})
	m := n.Manager()
	// input quantified: from each state both stay and flip possible
	if got := m.SatCount(n.T, 2); got != 4 {
		t.Fatalf("T has %v transitions, want 4", got)
	}
	if len(n.Inputs()) != 1 || n.Inputs()[0].Name() != "go" {
		t.Fatal("primary input not recorded")
	}
}

// two independent toggles
const toggles = `
.model toggles
.table a na
0 1
1 0
.table b nb
0 1
1 0
.latch na a
.reset a
0
.latch nb b
.reset b
0
.end
`

func TestEnsureT(t *testing.T) {
	n := compile(t, toggles, Options{SkipMonolithic: true})
	if n.T != bdd.False {
		t.Fatal("T should be unbuilt")
	}
	n.EnsureT()
	if n.T == bdd.False {
		t.Fatal("EnsureT did not build T")
	}
	tFirst := n.T
	n.EnsureT() // idempotent
	if n.T != tFirst {
		t.Fatal("EnsureT not idempotent")
	}
	// matches an eagerly-built network
	n2 := compile(t, toggles, Options{})
	c1 := n.Manager().SatCount(n.T, len(n.PSBits())+len(n.NSBits()))
	c2 := n2.Manager().SatCount(n2.T, len(n2.PSBits())+len(n2.NSBits()))
	if c1 != c2 {
		t.Fatalf("lazy T differs: %v vs %v transitions", c1, c2)
	}
}
