package reach

import (
	"testing"

	"hsis/internal/bdd"
	"hsis/internal/blifmv"
	"hsis/internal/network"
)

func compile(t *testing.T, src string, opts network.Options) *network.Network {
	t.Helper()
	d, err := blifmv.ParseString(src, "test.mv")
	if err != nil {
		t.Fatal(err)
	}
	flat, err := blifmv.Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.Build(flat, opts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// counter4 counts 0..3 and wraps; all 4 states reachable in 3 steps.
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

// gated5 has 5 values but value 4 is unreachable.
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

func TestForwardFixedPoint(t *testing.T) {
	n := compile(t, counter4, network.Options{})
	res := Forward(n, Options{})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if got := n.NumStates(res.Reached); got != 4 {
		t.Fatalf("reached %v states, want 4", got)
	}
	if res.Steps != 3 {
		t.Fatalf("steps = %d, want 3", res.Steps)
	}
}

func TestUnreachableStateExcluded(t *testing.T) {
	n := compile(t, gated5, network.Options{})
	res := Forward(n, Options{})
	if got := n.NumStates(res.Reached); got != 4 {
		t.Fatalf("reached %v states, want 4 (state 4 unreachable)", got)
	}
	s := n.VarByName("s")
	if n.Manager().And(res.Reached, s.Eq(4)) != bdd.False {
		t.Fatal("unreachable state 4 included")
	}
}

func TestImagePreimageDuality(t *testing.T) {
	n := compile(t, counter4, network.Options{})
	m := n.Manager()
	s := n.VarByName("s")
	// Image({1}) = {2}; Preimage({2}) = {1}
	if Image(n, s.Eq(1)) != s.Eq(2) {
		t.Fatal("Image wrong")
	}
	if Preimage(n, s.Eq(2)) != s.Eq(1) {
		t.Fatal("Preimage wrong")
	}
	// general duality on sets: y ∈ Img(X) iff Pre({y}) ∩ X ≠ ∅
	x := m.Or(s.Eq(0), s.Eq(2))
	img := Image(n, x)
	for v := 0; v < 4; v++ {
		inImg := m.And(img, s.Eq(v)) != bdd.False
		pre := Preimage(n, s.Eq(v))
		meets := m.And(pre, x) != bdd.False
		if inImg != meets {
			t.Fatalf("duality broken at state %d", v)
		}
	}
}

func TestPartitionedMatchesMonolithic(t *testing.T) {
	for _, src := range []string{counter4, gated5} {
		n := compile(t, src, network.Options{})
		s := n.VarByName("s")
		part := Engine(n, EnginePartitioned)
		for v := 0; v < s.Card(); v++ {
			if Image(n, s.Eq(v)) != part.Image(s.Eq(v)) {
				t.Fatalf("partitioned image differs at state %d", v)
			}
			if Preimage(n, s.Eq(v)) != part.Preimage(s.Eq(v)) {
				t.Fatalf("partitioned preimage differs at state %d", v)
			}
		}
		// full reachability with SkipMonolithic
		np := compile(t, src, network.Options{SkipMonolithic: true})
		rp := Forward(np, Options{Partitioned: true})
		rm := Forward(n, Options{})
		if np.NumStates(rp.Reached) != n.NumStates(rm.Reached) {
			t.Fatal("partitioned reachability differs")
		}
	}
}

func TestMaxStepsBounds(t *testing.T) {
	n := compile(t, counter4, network.Options{})
	res := Forward(n, Options{MaxSteps: 1})
	if res.Converged {
		t.Fatal("should not converge in one step")
	}
	if got := n.NumStates(res.Reached); got != 2 {
		t.Fatalf("after 1 step reached %v states, want 2", got)
	}
}

func TestRings(t *testing.T) {
	n := compile(t, counter4, network.Options{})
	res := Forward(n, Options{KeepRings: true})
	if len(res.Rings) != 4 {
		t.Fatalf("rings = %d, want 4", len(res.Rings))
	}
	s := n.VarByName("s")
	for i := 0; i < 4; i++ {
		if res.Rings[i] != s.Eq(i) {
			t.Fatalf("ring %d wrong", i)
		}
	}
	// rings are disjoint and union to Reached
	m := n.Manager()
	union := bdd.False
	for i, r := range res.Rings {
		if m.And(union, r) != bdd.False {
			t.Fatalf("ring %d overlaps earlier rings", i)
		}
		union = m.Or(union, r)
	}
	if union != res.Reached {
		t.Fatal("rings do not partition Reached")
	}
}

func TestStopCallback(t *testing.T) {
	n := compile(t, counter4, network.Options{})
	s := n.VarByName("s")
	m := n.Manager()
	res := Forward(n, Options{
		Stop: func(reached bdd.Ref) bool { return m.And(reached, s.Eq(2)) != bdd.False },
	})
	if !res.Stopped {
		t.Fatal("Stop did not fire")
	}
	if got := n.NumStates(res.Reached); got != 3 {
		t.Fatalf("stopped after %v states, want 3", got)
	}
}

func TestBackward(t *testing.T) {
	n := compile(t, gated5, network.Options{})
	m := n.Manager()
	s := n.VarByName("s")
	// Everything (including 4) can reach state 0.
	back := Backward(n, s.Eq(0), bdd.True, EngineMonolithic)
	if got := m.SatCount(m.And(back, s.Domain()), 3); got != 5 {
		t.Fatalf("backward reach = %v states, want 5", got)
	}
	// With care set excluding state 3, the cycle is cut: 0,4 reach 0
	// without passing through 3... (0->1->2->3->0 requires 3) so only
	// {0,4} remain (plus nothing else).
	care := m.Diff(bdd.True, s.Eq(3))
	back = Backward(n, s.Eq(0), care, EngineMonolithic)
	want := m.Or(s.Eq(0), s.Eq(4))
	if m.And(back, s.Domain()) != want {
		t.Fatal("care-restricted backward reach wrong")
	}
}

func TestEarlyFailure(t *testing.T) {
	n := compile(t, counter4, network.Options{})
	s := n.VarByName("s")
	// state 2 first appears after 2 steps
	if got := EarlyFailure(n, s.Eq(2), 10); got != 2 {
		t.Fatalf("EarlyFailure depth = %d, want 2", got)
	}
	// initial state is bad: detected at step 0
	if got := EarlyFailure(n, s.Eq(0), 10); got != 0 {
		t.Fatalf("EarlyFailure depth = %d, want 0", got)
	}
	// unreachable bad state: -1
	n5 := compile(t, gated5, network.Options{})
	s5 := n5.VarByName("s")
	if got := EarlyFailure(n5, s5.Eq(4), 50); got != -1 {
		t.Fatalf("EarlyFailure on unreachable = %d, want -1", got)
	}
}
