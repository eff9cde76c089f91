package bdd

// Differential fuzzing of the complement-edge kernel against a naive
// truth-table evaluator. A fuzz input is a byte program for a small
// stack machine whose operations mirror the Manager API — push a
// variable or constant, negate, combine with and/or/xor/ite, quantify a
// single variable, run a garbage collection with the stack as roots, or
// run a reordering session of adjacent-level swaps with the stack as
// roots. Every operation is applied in parallel to a Ref and to a
// 1024-bit truth table over nVars = 10 variables; after the program
// runs, every surviving stack entry must agree with its table on all
// 2^10 assignments. This exercises exactly the invariants complement
// edges make delicate: sign propagation through cofactors, the
// canonical low-edge rule in mk (and its swapMk twin during reorders),
// ITE complement normalization, derived ForAll, and cache survival
// across GC and reordering.

import "testing"

const fuzzVars = 10

// table is a truth table over fuzzVars variables: bit i of word i/64
// holds the function value under assignment i, where bit v of i is the
// value of variable v.
type table [1 << fuzzVars / 64]uint64

func ttVar(v int) table {
	var t table
	for i := 0; i < 1<<fuzzVars; i++ {
		if i>>v&1 == 1 {
			t[i/64] |= 1 << (i % 64)
		}
	}
	return t
}

func ttNot(a table) table {
	for i := range a {
		a[i] = ^a[i]
	}
	return a
}

func ttAnd(a, b table) table {
	for i := range a {
		a[i] &= b[i]
	}
	return a
}

func ttOr(a, b table) table {
	for i := range a {
		a[i] |= b[i]
	}
	return a
}

func ttXor(a, b table) table {
	for i := range a {
		a[i] ^= b[i]
	}
	return a
}

// ttExists existentially quantifies variable v: or of both cofactors.
func ttExists(a table, v int) table {
	var t table
	for i := 0; i < 1<<fuzzVars; i++ {
		lo := i &^ (1 << v)
		hi := i | 1<<v
		if a[lo/64]>>(lo%64)&1 == 1 || a[hi/64]>>(hi%64)&1 == 1 {
			t[i/64] |= 1 << (i % 64)
		}
	}
	return t
}

type fuzzEntry struct {
	f  Ref
	tt table
}

// runFuzzProgram interprets prog, returning the final stack. The Ref
// and truth-table sides only share the program bytes, never
// intermediate results.
func runFuzzProgram(m *Manager, prog []byte) []fuzzEntry {
	var trueTT table
	for i := range trueTT {
		trueTT[i] = ^uint64(0)
	}
	stack := []fuzzEntry{}
	pop := func() fuzzEntry {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return e
	}
	for pc := 0; pc < len(prog); pc++ {
		op := prog[pc] % 14
		arg := 0
		if pc+1 < len(prog) {
			arg = int(prog[pc+1]) % fuzzVars
		}
		switch {
		case op == 0: // push variable
			stack = append(stack, fuzzEntry{m.Var(arg), ttVar(arg)})
			pc++
		case op == 1: // push constant
			if arg%2 == 0 {
				stack = append(stack, fuzzEntry{True, trueTT})
			} else {
				stack = append(stack, fuzzEntry{False, table{}})
			}
			pc++
		case len(stack) == 0:
			// every remaining op needs at least one operand
		case op == 2:
			e := pop()
			stack = append(stack, fuzzEntry{m.Not(e.f), ttNot(e.tt)})
		case op == 3 && len(stack) >= 2:
			a, b := pop(), pop()
			stack = append(stack, fuzzEntry{m.And(a.f, b.f), ttAnd(a.tt, b.tt)})
		case op == 4 && len(stack) >= 2:
			a, b := pop(), pop()
			stack = append(stack, fuzzEntry{m.Or(a.f, b.f), ttOr(a.tt, b.tt)})
		case op == 5 && len(stack) >= 2:
			a, b := pop(), pop()
			stack = append(stack, fuzzEntry{m.Xor(a.f, b.f), ttXor(a.tt, b.tt)})
		case op == 6 && len(stack) >= 2:
			a, b := pop(), pop()
			stack = append(stack, fuzzEntry{m.Diff(a.f, b.f), ttAnd(a.tt, ttNot(b.tt))})
		case op == 7 && len(stack) >= 3:
			f, g, h := pop(), pop(), pop()
			tt := ttOr(ttAnd(f.tt, g.tt), ttAnd(ttNot(f.tt), h.tt))
			stack = append(stack, fuzzEntry{m.ITE(f.f, g.f, h.f), tt})
		case op == 8: // exists over one variable
			e := pop()
			cube := m.Cube([]int{arg})
			stack = append(stack, fuzzEntry{m.Exists(e.f, cube), ttExists(e.tt, arg)})
			pc++
		case op == 9: // forall over one variable: ¬∃v.¬f
			e := pop()
			cube := m.Cube([]int{arg})
			tt := ttNot(ttExists(ttNot(e.tt), arg))
			stack = append(stack, fuzzEntry{m.ForAll(e.f, cube), tt})
			pc++
		case op == 10: // equiv
			if len(stack) >= 2 {
				a, b := pop(), pop()
				stack = append(stack, fuzzEntry{m.Equiv(a.f, b.f), ttNot(ttXor(a.tt, b.tt))})
			}
		case op == 11: // GC with the stack as the only roots
			for _, e := range stack {
				m.IncRef(e.f)
			}
			m.GC()
			for _, e := range stack {
				m.DecRef(e.f)
			}
		case op == 12: // reorder: adjacent swaps with the stack as roots
			for _, e := range stack {
				m.IncRef(e.f)
			}
			s := m.StartReorder()
			for k := 0; k < 4; k++ {
				s.Swap((arg + k) % (fuzzVars - 1))
			}
			// Take one O(span) jump across the first non-interacting
			// adjacent pair, if any.
			for l := 0; l+1 < fuzzVars; l++ {
				if !s.Interacts(m.VarAtLevel(l), m.VarAtLevel(l+1)) {
					s.MoveBlock(l, 1, 1)
					break
				}
			}
			s.Close()
			for _, e := range stack {
				m.DecRef(e.f)
			}
			pc++
		case op == 13: // register the adjacent pair at a level as a group
			l := arg % (fuzzVars - 1)
			m.GroupVars([]int{m.VarAtLevel(l), m.VarAtLevel(l + 1)})
			pc++
		}
	}
	return stack
}

func checkFuzzStack(t *testing.T, m *Manager, stack []fuzzEntry) {
	t.Helper()
	assignment := make([]bool, fuzzVars)
	for _, e := range stack {
		for i := 0; i < 1<<fuzzVars; i++ {
			for v := range assignment {
				assignment[v] = i>>v&1 == 1
			}
			want := e.tt[i/64]>>(i%64)&1 == 1
			if got := m.Eval(e.f, assignment); got != want {
				t.Fatalf("assignment %010b: kernel says %v, truth table says %v", i, got, want)
			}
		}
	}
}

func FuzzComplementKernel(f *testing.F) {
	// Seeds: plain connective chains, quantification, GC in the middle
	// of a computation, deep ITE nesting.
	f.Add([]byte{0, 1, 0, 2, 3})
	f.Add([]byte{0, 0, 0, 3, 2, 2, 8, 4})
	f.Add([]byte{0, 1, 0, 5, 5, 0, 7, 11, 0, 3, 3})
	f.Add([]byte{0, 9, 0, 3, 0, 7, 9, 2, 11, 5, 0, 0, 7, 7})
	f.Add([]byte{1, 0, 1, 1, 2, 10, 0, 4, 9, 1, 11, 0, 6, 6, 3})
	// Reordering interleaved with construction, quantification and GC.
	f.Add([]byte{0, 3, 0, 5, 3, 12, 0, 0, 4, 3, 12, 4, 8, 2})
	f.Add([]byte{0, 1, 0, 2, 12, 8, 3, 11, 0, 6, 12, 0, 7, 7, 12, 1})
	// Group registration interleaved with ops, swaps and GC.
	f.Add([]byte{0, 2, 0, 3, 3, 13, 2, 12, 2, 0, 4, 5, 13, 5, 11, 12, 0})
	f.Add([]byte{13, 0, 0, 0, 1, 5, 3, 12, 4, 13, 8, 11, 0, 6, 7, 12, 9})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			t.Skip("long programs add time, not coverage")
		}
		m := New()
		m.NewVars(fuzzVars)
		stack := runFuzzProgram(m, prog)
		checkFuzzStack(t, m, stack)
		checkKernelInvariants(t, m)
		// The stack survived arbitrary GCs and reorders; a final
		// collection with the stack as roots must not change any
		// function either.
		for _, e := range stack {
			m.IncRef(e.f)
		}
		m.GC()
		checkFuzzStack(t, m, stack)
	})
}

// TestFuzzCorpus runs the seed programs as a plain test so `go test`
// exercises the differential harness without -fuzz.
func TestFuzzCorpus(t *testing.T) {
	progs := [][]byte{
		{0, 1, 0, 2, 3},
		{0, 0, 0, 3, 2, 2, 8, 4},
		{0, 1, 0, 5, 5, 0, 7, 11, 0, 3, 3},
		{0, 9, 0, 3, 0, 7, 9, 2, 11, 5, 0, 0, 7, 7},
		{1, 0, 1, 1, 2, 10, 0, 4, 9, 1, 11, 0, 6, 6, 3},
		{11, 11, 0, 0, 0, 0, 2, 7, 9, 3, 11, 8, 1, 10, 5},
		{0, 3, 0, 5, 3, 12, 0, 0, 4, 3, 12, 4, 8, 2},
		{0, 1, 0, 2, 12, 8, 3, 11, 0, 6, 12, 0, 7, 7, 12, 1},
		{12, 0, 0, 0, 5, 12, 9, 3, 7, 12, 2, 11, 12, 5, 10},
		{0, 2, 0, 3, 3, 13, 2, 12, 2, 0, 4, 5, 13, 5, 11, 12, 0},
		{13, 0, 0, 0, 1, 5, 3, 12, 4, 13, 8, 11, 0, 6, 7, 12, 9},
	}
	for _, prog := range progs {
		m := New()
		m.NewVars(fuzzVars)
		checkFuzzStack(t, m, runFuzzProgram(m, prog))
		checkKernelInvariants(t, m)
	}
}

// TestCacheSurvival pins the GC-surviving cache policy: at a high live
// ratio the collector sweeps the operation caches instead of clearing
// them, and entries whose operands and result are all live are kept.
func TestCacheSurvival(t *testing.T) {
	m := New()
	vars := m.NewVars(16)
	var roots []Ref
	f := True
	for i := 0; i+1 < len(vars); i++ {
		f = m.And(f, m.Or(vars[i], m.Not(vars[i+1])))
		roots = append(roots, m.IncRef(f))
	}
	m.GC() // nearly everything is rooted: this must take the sweep path
	st := m.Stats()
	if st.CacheEntriesKept == 0 {
		t.Fatal("no operation-cache entries survived a high-live-ratio GC")
	}
	for _, r := range roots {
		m.DecRef(r)
	}
}
