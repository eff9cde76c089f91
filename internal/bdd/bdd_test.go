package bdd

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTerminals(t *testing.T) {
	m := New()
	if m.Not(True) != False || m.Not(False) != True {
		t.Fatal("terminal complement wrong")
	}
	if m.And(True, False) != False || m.Or(True, False) != True {
		t.Fatal("terminal connectives wrong")
	}
	if !m.IsTerminal(True) || !m.IsTerminal(False) {
		t.Fatal("IsTerminal wrong")
	}
	// With complement edges there is a single stored terminal: True is
	// the complement edge onto the False node.
	if m.Size() != 1 {
		t.Fatalf("fresh manager size = %d, want 1", m.Size())
	}
	if True != m.Not(False) || regular(True) != False {
		t.Fatal("True is not the complement edge onto the terminal")
	}
}

func TestVarBasics(t *testing.T) {
	m := New()
	a := m.NewVar()
	b := m.NewVar()
	if a == b {
		t.Fatal("distinct variables share a node")
	}
	if m.VarOf(a) != 0 || m.VarOf(b) != 1 {
		t.Fatal("VarOf mismatch")
	}
	if m.Var(0) != a || m.Var(1) != b {
		t.Fatal("Var projection not canonical")
	}
	if m.NVar(0) != m.Not(a) {
		t.Fatal("NVar disagrees with Not")
	}
	if m.Low(a) != False || m.High(a) != True {
		t.Fatal("projection cofactors wrong")
	}
}

func TestCanonicity(t *testing.T) {
	m := New()
	vs := m.NewVars(4)
	// (a&b)|(c&d) built two different ways must be the same node.
	f1 := m.Or(m.And(vs[0], vs[1]), m.And(vs[2], vs[3]))
	f2 := m.Not(m.And(m.Not(m.And(vs[0], vs[1])), m.Not(m.And(vs[2], vs[3]))))
	if f1 != f2 {
		t.Fatalf("canonicity violated: %d vs %d", f1, f2)
	}
}

func TestDeMorganAndAbsorption(t *testing.T) {
	m := New()
	a, b := m.NewVar(), m.NewVar()
	if m.Not(m.And(a, b)) != m.Or(m.Not(a), m.Not(b)) {
		t.Error("De Morgan AND failed")
	}
	if m.Not(m.Or(a, b)) != m.And(m.Not(a), m.Not(b)) {
		t.Error("De Morgan OR failed")
	}
	if m.Or(a, m.And(a, b)) != a {
		t.Error("absorption failed")
	}
	if m.Xor(a, b) != m.Or(m.Diff(a, b), m.Diff(b, a)) {
		t.Error("xor decomposition failed")
	}
}

func TestITE(t *testing.T) {
	m := New()
	a, b, c := m.NewVar(), m.NewVar(), m.NewVar()
	f := m.ITE(a, b, c)
	want := m.Or(m.And(a, b), m.And(m.Not(a), c))
	if f != want {
		t.Fatal("ITE expansion mismatch")
	}
	if m.ITE(a, True, False) != a {
		t.Fatal("ITE(a,1,0) != a")
	}
	if m.ITE(a, False, True) != m.Not(a) {
		t.Fatal("ITE(a,0,1) != !a")
	}
}

func TestEvalAgainstTruthTable(t *testing.T) {
	m := New()
	vs := m.NewVars(3)
	f := m.Xor(m.And(vs[0], vs[1]), vs[2])
	for i := 0; i < 8; i++ {
		asg := []bool{i&1 != 0, i&2 != 0, i&4 != 0}
		want := (asg[0] && asg[1]) != asg[2]
		if got := m.Eval(f, asg); got != want {
			t.Errorf("Eval(%v) = %v, want %v", asg, got, want)
		}
	}
}

func TestQuantification(t *testing.T) {
	m := New()
	a, b, c := m.NewVar(), m.NewVar(), m.NewVar()
	f := m.And(m.Or(a, b), c)
	// ∃a. (a|b)&c = c
	if got := m.Exists(f, m.Cube([]int{0})); got != c {
		t.Errorf("Exists over a: got node %d, want c", got)
	}
	// ∀a. (a|b)&c = b&c
	if got := m.ForAll(f, m.Cube([]int{0})); got != m.And(b, c) {
		t.Error("ForAll over a wrong")
	}
	// ∃{a,b,c}. f = True (f is satisfiable)
	if got := m.Exists(f, m.Cube([]int{0, 1, 2})); got != True {
		t.Error("Exists over all vars of satisfiable f should be True")
	}
	if got := m.ForAll(f, m.Cube([]int{0, 1, 2})); got != False {
		t.Error("ForAll over all vars of non-tautology should be False")
	}
}

func TestAndExistsEqualsComposed(t *testing.T) {
	m := New()
	vs := m.NewVars(6)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		f := randomBDD(m, vs, rng, 4)
		g := randomBDD(m, vs, rng, 4)
		cubeVars := []int{}
		for v := 0; v < 6; v++ {
			if rng.Intn(2) == 0 {
				cubeVars = append(cubeVars, v)
			}
		}
		cube := m.Cube(cubeVars)
		got := m.AndExists(f, g, cube)
		want := m.Exists(m.And(f, g), cube)
		if got != want {
			t.Fatalf("trial %d: AndExists != Exists∘And", trial)
		}
	}
}

func TestCubeRoundTrip(t *testing.T) {
	m := New()
	m.NewVars(8)
	vars := []int{1, 3, 7}
	cube := m.Cube(vars)
	got := m.CubeVars(cube)
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 7 {
		t.Fatalf("CubeVars = %v, want [1 3 7]", got)
	}
	if m.Cube(nil) != True {
		t.Fatal("empty cube must be True")
	}
	// duplicates collapse
	if m.Cube([]int{2, 2, 2}) != m.Cube([]int{2}) {
		t.Fatal("duplicate cube vars not collapsed")
	}
}

func TestPermute(t *testing.T) {
	m := New()
	vs := m.NewVars(4)
	f := m.Or(m.And(vs[0], vs[1]), vs[2])
	perm := []int{3, 2, 1, 0}
	g := m.Permute(f, perm)
	want := m.Or(m.And(vs[3], vs[2]), vs[1])
	if g != want {
		t.Fatal("Permute mismatch")
	}
	// permuting twice with an involution is the identity
	if m.Permute(g, perm) != f {
		t.Fatal("Permute involution failed")
	}
}

func TestConstrainProperty(t *testing.T) {
	m := New()
	vs := m.NewVars(5)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		f := randomBDD(m, vs, rng, 4)
		c := randomBDD(m, vs, rng, 4)
		if c == False {
			continue
		}
		fc := m.Constrain(f, c)
		// Fundamental identity: f·c = constrain(f,c)·c
		if m.And(f, c) != m.And(fc, c) {
			t.Fatalf("trial %d: constrain identity violated", trial)
		}
	}
}

func TestRestrictProperties(t *testing.T) {
	m := New()
	vs := m.NewVars(5)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		f := randomBDD(m, vs, rng, 4)
		c := randomBDD(m, vs, rng, 4)
		if c == False {
			continue
		}
		fr := m.Restrict(f, c)
		// agreement on the care set
		if m.And(f, c) != m.And(fr, c) {
			t.Fatalf("trial %d: restrict does not agree on care set", trial)
		}
		// support containment
		sup := map[int]bool{}
		for _, v := range m.Support(f) {
			sup[v] = true
		}
		for _, v := range m.Support(fr) {
			if !sup[v] {
				t.Fatalf("trial %d: restrict grew support with var %d", trial, v)
			}
		}
		// size never larger than f on care set... (restrict heuristic: usually
		// smaller; we check it is never catastrophically larger than f)
		if m.NodeCount(fr) > m.NodeCount(f) {
			t.Fatalf("trial %d: restrict grew the BDD", trial)
		}
	}
}

func TestSqueeze(t *testing.T) {
	m := New()
	vs := m.NewVars(4)
	lower := m.And(vs[0], vs[1])
	upper := m.Or(vs[0], vs[2])
	g := m.Squeeze(lower, upper)
	if !m.Leq(lower, g) || !m.Leq(g, upper) {
		t.Fatal("Squeeze result outside interval")
	}
}

func TestSatCount(t *testing.T) {
	m := New()
	vs := m.NewVars(4)
	if got := m.SatCount(True, 4); got != 16 {
		t.Fatalf("SatCount(True) = %v, want 16", got)
	}
	if got := m.SatCount(False, 4); got != 0 {
		t.Fatalf("SatCount(False) = %v, want 0", got)
	}
	if got := m.SatCount(vs[0], 4); got != 8 {
		t.Fatalf("SatCount(a) = %v, want 8", got)
	}
	f := m.Xor(vs[0], vs[1]) // half the space
	if got := m.SatCount(f, 4); got != 8 {
		t.Fatalf("SatCount(a^b) = %v, want 8", got)
	}
	if got := m.SatCount(m.AndN(vs...), 4); got != 1 {
		t.Fatalf("SatCount(a&b&c&d) = %v, want 1", got)
	}
}

func TestSatCountExact(t *testing.T) {
	m := New()
	vs := m.NewVars(60)
	if got := m.SatCountExact(False, 60).Sign(); got != 0 {
		t.Fatalf("SatCountExact(False) sign = %d, want 0", got)
	}
	if got := m.SatCountExact(m.AndN(vs[:4]...), 4); got.Int64() != 1 {
		t.Fatalf("SatCountExact(a&b&c&d) = %v, want 1", got)
	}
	// Small counts agree with the float path exactly.
	f := m.Xor(vs[0], vs[1])
	if got, want := m.SatCountExact(f, 4), m.SatCount(f, 4); float64(got.Int64()) != want {
		t.Fatalf("SatCountExact(a^b) = %v, float path %v", got, want)
	}
	// All assignments but one over 60 variables: 2^60 − 1 has 60
	// significant bits, beyond float64's 53-bit mantissa — the float
	// path rounds to 2^60, the exact path must not.
	g := m.Not(m.AndN(vs...))
	want := new(big.Int).Lsh(big.NewInt(1), 60)
	want.Sub(want, big.NewInt(1))
	if got := m.SatCountExact(g, 60); got.Cmp(want) != 0 {
		t.Fatalf("SatCountExact(¬(v0..v59)) = %v, want %v", got, want)
	}
	if rounded := m.SatCount(g, 60); rounded != float64(1)*(1<<60) {
		t.Fatalf("float SatCount(¬(v0..v59)) = %v, want it rounded to 2^60", rounded)
	}
}

func TestAnySatIsWitness(t *testing.T) {
	m := New()
	vs := m.NewVars(5)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		f := randomBDD(m, vs, rng, 4)
		lits, ok := m.AnySat(f)
		if f == False {
			if ok {
				t.Fatal("AnySat on False returned a witness")
			}
			continue
		}
		if !ok {
			t.Fatal("AnySat failed on satisfiable f")
		}
		asg := make([]bool, 5)
		for _, l := range lits {
			asg[l.Var] = l.Val
		}
		if !m.Eval(f, asg) {
			t.Fatalf("trial %d: AnySat witness does not satisfy f", trial)
		}
	}
}

func TestAllSatEnumeratesExactly(t *testing.T) {
	m := New()
	vs := m.NewVars(3)
	f := m.Or(m.And(vs[0], vs[1]), m.Not(vs[2]))
	count := 0
	m.AllSat(f, func(cube []int8) bool {
		weight := 1
		for _, c := range cube {
			if c == -1 {
				weight *= 2
			}
		}
		count += weight
		return true
	})
	if want := int(m.SatCount(f, 3)); count != want {
		t.Fatalf("AllSat enumerated %d minterms, want %d", count, want)
	}
}

func TestSupport(t *testing.T) {
	m := New()
	vs := m.NewVars(5)
	f := m.Or(m.And(vs[1], vs[3]), vs[4])
	got := m.Support(f)
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("Support = %v, want [1 3 4]", got)
	}
	if len(m.Support(True)) != 0 {
		t.Fatal("Support of a constant must be empty")
	}
}

func TestGCPreservesProtectedNodes(t *testing.T) {
	m := New()
	vs := m.NewVars(6)
	f := m.IncRef(m.Or(m.And(vs[0], vs[1]), m.And(vs[2], vs[3])))
	// create garbage
	for i := 0; i < 1000; i++ {
		g := m.Xor(vs[i%6], m.And(vs[(i+1)%6], vs[(i+2)%6]))
		_ = g
	}
	before := m.Eval(f, []bool{true, true, false, false, false, false})
	m.GC()
	after := m.Eval(f, []bool{true, true, false, false, false, false})
	if before != after || !after {
		t.Fatal("GC corrupted a protected node")
	}
	// rebuilding the same function must give the same ref back
	f2 := m.Or(m.And(vs[0], vs[1]), m.And(vs[2], vs[3]))
	if f2 != f {
		t.Fatal("unique table broken after GC")
	}
	m.DecRef(f)
}

func TestGCReclaimsGarbage(t *testing.T) {
	m := New()
	vs := m.NewVars(8)
	for i := 0; i < 200; i++ {
		_ = m.And(m.Xor(vs[i%8], vs[(i+3)%8]), m.Or(vs[(i+1)%8], vs[(i+5)%8]))
	}
	big := m.Size()
	m.GC()
	if m.Size() >= big {
		t.Fatalf("GC reclaimed nothing: before %d, after %d", big, m.Size())
	}
	// Projections are rebuildable after GC and operations still canonical.
	a, b := m.Var(0), m.Var(1)
	if m.And(a, b) != m.And(b, a) {
		t.Fatal("canonicity broken after GC")
	}
}

func TestMaybeGCThreshold(t *testing.T) {
	m := New()
	m.SetGCThreshold(12)
	vs := m.NewVars(8)
	ran := false
	for i := 0; i < 500 && !ran; i++ {
		_ = m.Xor(vs[i%8], m.And(vs[(i+1)%8], vs[(i+2)%8]))
		ran = m.MaybeGC()
	}
	if !ran {
		t.Fatal("MaybeGC never triggered past threshold")
	}
	if m.GCCount == 0 {
		t.Fatal("GCCount not incremented")
	}
}

func TestLeq(t *testing.T) {
	m := New()
	a, b := m.NewVar(), m.NewVar()
	if !m.Leq(m.And(a, b), a) {
		t.Fatal("a&b ≤ a should hold")
	}
	if m.Leq(a, m.And(a, b)) {
		t.Fatal("a ≤ a&b should not hold")
	}
	if !m.Leq(False, a) || !m.Leq(a, True) {
		t.Fatal("bounds of the lattice wrong")
	}
}

func TestWriteDot(t *testing.T) {
	m := New()
	a, b := m.NewVar(), m.NewVar()
	f := m.And(a, m.Not(b))
	var sb strings.Builder
	if err := m.WriteDot(&sb, []string{"req", "ack"}, map[string]Ref{"prop": f}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "req", "ack", "root_prop"} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
}

// quick-based property: BDD operations agree with Boolean semantics on
// random 5-variable functions represented as truth tables.
func TestQuickSemantics(t *testing.T) {
	m := New()
	vs := m.NewVars(5)
	fromTable := func(tbl uint32) Ref {
		f := False
		for i := 0; i < 32; i++ {
			if tbl&(1<<i) == 0 {
				continue
			}
			minterm := True
			for v := 0; v < 5; v++ {
				if i&(1<<v) != 0 {
					minterm = m.And(minterm, vs[v])
				} else {
					minterm = m.And(minterm, m.Not(vs[v]))
				}
			}
			f = m.Or(f, minterm)
		}
		return f
	}
	prop := func(ta, tb uint32) bool {
		fa, fb := fromTable(ta), fromTable(tb)
		if m.And(fa, fb) != fromTable(ta&tb) {
			return false
		}
		if m.Or(fa, fb) != fromTable(ta|tb) {
			return false
		}
		if m.Xor(fa, fb) != fromTable(ta^tb) {
			return false
		}
		if m.Not(fa) != fromTable(^ta) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomBDD builds a random function over the given variables.
func randomBDD(m *Manager, vs []Ref, rng *rand.Rand, depth int) Ref {
	if depth == 0 {
		switch rng.Intn(4) {
		case 0:
			return True
		case 1:
			return False
		default:
			v := vs[rng.Intn(len(vs))]
			if rng.Intn(2) == 0 {
				return m.Not(v)
			}
			return v
		}
	}
	a := randomBDD(m, vs, rng, depth-1)
	b := randomBDD(m, vs, rng, depth-1)
	switch rng.Intn(4) {
	case 0:
		return m.And(a, b)
	case 1:
		return m.Or(a, b)
	case 2:
		return m.Xor(a, b)
	default:
		return m.ITE(a, b, randomBDD(m, vs, rng, depth-1))
	}
}

func TestStatsCounters(t *testing.T) {
	m := New()
	vs := m.NewVars(6)
	f := m.AndN(vs...)
	g := m.OrN(vs...)
	_ = m.Exists(m.And(f, g), m.Cube([]int{0, 1}))
	// repeat the same work: the caches must hit
	_ = m.AndN(vs...)
	_ = m.Exists(m.And(f, g), m.Cube([]int{0, 1}))
	s := m.Stats()
	if s.ApplyCalls == 0 || s.QuantCalls == 0 {
		t.Fatalf("counters not advancing: %+v", s)
	}
	if s.ApplyHits == 0 {
		t.Fatal("repeated work should hit the apply cache")
	}
	if s.Variables != 6 || s.LiveNodes < 6 {
		t.Fatalf("structural stats wrong: %+v", s)
	}
	if s.PeakNodes < s.LiveNodes {
		t.Fatal("peak below live")
	}
	out := s.String()
	if !strings.Contains(out, "vars") || !strings.Contains(out, "cache hits") {
		t.Fatalf("stats string: %s", out)
	}
}

func TestStatsAfterGC(t *testing.T) {
	m := New()
	vs := m.NewVars(6)
	for i := 0; i < 100; i++ {
		_ = m.Xor(vs[i%6], m.And(vs[(i+1)%6], vs[(i+2)%6]))
	}
	m.GC()
	s := m.Stats()
	if s.GCs != 1 {
		t.Fatalf("GCs = %d", s.GCs)
	}
	if s.LiveNodes > s.AllocatedNodes {
		t.Fatal("live nodes exceed allocation")
	}
}

// TestNodeCountMatchesTraversal checks the bitmap node count against a
// map-based traversal, across GCs and arena growth, and that repeated
// and multi-root counts see a clean bitmap.
func TestNodeCountMatchesTraversal(t *testing.T) {
	m := New()
	vs := m.NewVars(10)
	rng := rand.New(rand.NewSource(3))
	var kept []Ref
	for trial := 0; trial < 300; trial++ {
		f := randomBDD(m, vs, rng, 6)
		seen := map[Ref]bool{}
		m.countRec(f, seen)
		if got := m.NodeCount(f); got != len(seen) {
			t.Fatalf("trial %d: NodeCount %d, traversal %d", trial, got, len(seen))
		}
		if m.NodeCount(m.Not(f)) != len(seen) {
			t.Fatalf("trial %d: f and ¬f counts differ", trial)
		}
		if len(kept) > 0 {
			g := kept[len(kept)-1]
			m.countRec(g, seen)
			if got := m.NodeCountMulti([]Ref{f, g, f}); got != len(seen) {
				t.Fatalf("trial %d: NodeCountMulti %d, traversal %d", trial, got, len(seen))
			}
		}
		if trial%50 == 49 {
			m.GC()
			kept = kept[:0]
		} else {
			kept = append(kept, m.IncRef(f))
		}
	}
}
