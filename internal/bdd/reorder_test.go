package bdd

import "testing"

// checkKernelInvariants verifies the structural invariants a reorder
// session must restore: canonical-low edges, strictly increasing levels,
// no child pointing at a freed slot, exact unique-table membership, no
// duplicate triples, and no operation-cache entry naming a freed slot.
func checkKernelInvariants(t *testing.T, m *Manager) {
	t.Helper()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// evalAll snapshots f's truth table over nVars variables.
func evalAll(m *Manager, f Ref, nVars int) []bool {
	out := make([]bool, 1<<nVars)
	assignment := make([]bool, nVars)
	for i := range out {
		for v := range assignment {
			assignment[v] = i>>v&1 == 1
		}
		out[i] = m.Eval(f, assignment)
	}
	return out
}

// buildRandomRoots grows a pool of functions by combining projections
// with random connectives (deterministic LCG).
func buildRandomRoots(m *Manager, vars []Ref, count int, seed uint64) []Ref {
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	pool := append([]Ref(nil), vars...)
	for len(pool) < count+len(vars) {
		a := pool[next()%uint64(len(pool))]
		b := pool[next()%uint64(len(pool))]
		var f Ref
		switch next() % 4 {
		case 0:
			f = m.And(a, b)
		case 1:
			f = m.Or(a, m.Not(b))
		case 2:
			f = m.Xor(a, b)
		default:
			f = m.ITE(a, b, m.Not(a))
		}
		pool = append(pool, f)
	}
	return pool[len(vars):]
}

func TestSwapAdjacentLevels(t *testing.T) {
	m := New()
	vars := m.NewVars(4)
	roots := []Ref{
		m.ITE(vars[0], vars[1], vars[2]),
		m.And(vars[1], m.Not(vars[2])),
		m.Xor(m.Xor(vars[0], vars[1]), m.Xor(vars[2], vars[3])),
		m.Or(m.And(vars[0], vars[2]), m.And(m.Not(vars[1]), vars[3])),
	}
	want := make([][]bool, len(roots))
	for i, f := range roots {
		want[i] = evalAll(m, f, 4)
		m.IncRef(f)
	}
	s := m.StartReorder()
	s.Swap(1)
	s.Close()
	if m.Level(1) != 2 || m.Level(2) != 1 || m.VarAtLevel(1) != 2 || m.VarAtLevel(2) != 1 {
		t.Fatalf("order maps not swapped: var2level %v", m.var2level)
	}
	checkKernelInvariants(t, m)
	for i, f := range roots {
		got := evalAll(m, f, 4)
		for a := range got {
			if got[a] != want[i][a] {
				t.Fatalf("root %d changed function at assignment %04b after swap", i, a)
			}
		}
	}
	// The manager must be fully operational after Close.
	if g := m.And(roots[0], roots[2]); evalAll(m, g, 4)[0b1111] != (want[0][15] && want[2][15]) {
		t.Fatal("post-reorder operation computed a wrong result")
	}
}

// TestSwapFullReversal bubbles the order into its exact reverse with
// adjacent swaps and checks every protected root keeps its function and
// that rebuilding a function in the reversed order reuses the same
// canonical Ref.
func TestSwapFullReversal(t *testing.T) {
	const n = 8
	m := New()
	vars := m.NewVars(n)
	roots := buildRandomRoots(m, vars, 40, 0x5eed)
	want := make([][]bool, len(roots))
	for i, f := range roots {
		want[i] = evalAll(m, f, n)
		m.IncRef(f)
	}
	s := m.StartReorder()
	for i := 0; i < n; i++ { // bubble-sort into full reversal
		for l := 0; l < n-1-i; l++ {
			s.Swap(l)
		}
	}
	if s.Swaps() != n*(n-1)/2 {
		t.Fatalf("expected %d swaps, did %d", n*(n-1)/2, s.Swaps())
	}
	s.Close()
	for v := 0; v < n; v++ {
		if m.Level(v) != n-1-v {
			t.Fatalf("variable %d at level %d, want %d", v, m.Level(v), n-1-v)
		}
	}
	checkKernelInvariants(t, m)
	for i, f := range roots {
		got := evalAll(m, f, n)
		for a := range got {
			if got[a] != want[i][a] {
				t.Fatalf("root %d changed function at assignment %08b", i, a)
			}
		}
	}
	// Canonicity: rebuilding an existing function from scratch in the
	// new order must return the identical Ref.
	if rebuilt := m.And(m.Var(0), m.Var(1)); rebuilt != m.And(m.Var(0), m.Var(1)) {
		t.Fatal("canonical rebuild disagreed with itself")
	}
	for i, f := range roots {
		if g := m.Or(f, False); g != f {
			t.Fatalf("root %d no longer canonical: Or(f, False) = %d != %d", i, g, f)
		}
	}
	// A GC with the roots protected must keep them all intact.
	m.GC()
	checkKernelInvariants(t, m)
	for i, f := range roots {
		got := evalAll(m, f, n)
		for a := range got {
			if got[a] != want[i][a] {
				t.Fatalf("root %d changed function after post-reorder GC", i)
			}
		}
	}
}

// TestReorderReclaimsUnprotected pins the GC-equivalent contract: nodes
// not reachable from an IncRef'd root melt away as their levels are
// swapped, without disturbing protected functions.
func TestSwapReclaimsUnprotected(t *testing.T) {
	const n = 8
	m := New()
	vars := m.NewVars(n)
	kept := m.IncRef(m.And(vars[0], vars[7]))
	garbage := True
	for _, v := range vars {
		garbage = m.And(garbage, v)
	}
	_ = garbage // deliberately unprotected
	before := m.Size()
	s := m.StartReorder()
	for i := 0; i < n; i++ {
		for l := 0; l < n-1-i; l++ {
			s.Swap(l)
		}
	}
	s.Close()
	if m.Size() >= before {
		t.Fatalf("unprotected chain not reclaimed: size %d -> %d", before, m.Size())
	}
	checkKernelInvariants(t, m)
	if got := evalAll(m, kept, n); !got[1<<0|1<<7] || got[1<<0] {
		t.Fatal("protected root corrupted by reclamation")
	}
}

// TestInteractionMatrix pins the matrix built at StartReorder: variables
// co-occurring in the support of any root — protected or garbage — are
// marked interacting, disjoint pairs are not. Garbage counts because
// swaps must preserve every allocated node until it melts.
func TestInteractionMatrix(t *testing.T) {
	m := New()
	vars := m.NewVars(6)
	m.IncRef(m.And(vars[0], vars[1]))
	m.IncRef(m.Xor(vars[2], vars[3]))
	_ = m.And(vars[4], vars[5]) // deliberately unprotected
	s := m.StartReorder()
	defer s.Close()
	for _, p := range [][2]int{{0, 1}, {1, 0}, {2, 3}, {4, 5}} {
		if !s.Interacts(p[0], p[1]) {
			t.Fatalf("co-occurring pair %v not marked interacting", p)
		}
	}
	for _, p := range [][2]int{{0, 2}, {0, 3}, {1, 2}, {0, 4}, {3, 5}, {2, 5}} {
		if s.Interacts(p[0], p[1]) {
			t.Fatalf("disjoint pair %v marked interacting", p)
		}
	}
	for v := 0; v < 6; v++ {
		if s.Interacts(v, v) != true {
			// A variable trivially co-occurs with itself wherever it
			// appears in a support of size >= 2.
			t.Fatalf("variable %d not marked self-interacting", v)
		}
	}
}

// TestSwapNonInteractingFastPath checks the O(1) relabel: swapping two
// levels whose variables never co-occur must leave every node untouched
// (same count, same functions) while still counting as a swap and as an
// interaction skip.
func TestSwapNonInteractingFastPath(t *testing.T) {
	m := New()
	vars := m.NewVars(4)
	f := m.IncRef(m.And(vars[0], vars[1]))
	g := m.IncRef(m.Or(vars[2], vars[3]))
	wf, wg := evalAll(m, f, 4), evalAll(m, g, 4)
	before := m.Size()
	s := m.StartReorder()
	// Levels 1 and 2 hold variables 1 and 2, which never co-occur.
	s.Swap(1)
	if s.InteractionSkips() != 1 || s.Swaps() != 1 {
		t.Fatalf("fast path not taken: skips=%d swaps=%d", s.InteractionSkips(), s.Swaps())
	}
	s.Close()
	if m.Size() != before {
		t.Fatalf("pure relabel changed the node count %d -> %d", before, m.Size())
	}
	if m.VarAtLevel(1) != 2 || m.VarAtLevel(2) != 1 {
		t.Fatal("order maps not updated by the fast path")
	}
	checkKernelInvariants(t, m)
	for a := range wf {
		if got := evalAll(m, f, 4); got[a] != wf[a] {
			t.Fatalf("f changed function at assignment %04b", a)
		}
		if got := evalAll(m, g, 4); got[a] != wg[a] {
			t.Fatalf("g changed function at assignment %04b", a)
		}
	}
}

// TestMoveBlockSpanJump crosses a span of non-interacting variables in
// one rotation and checks the order maps, the counter split (skips, not
// swaps), function preservation, and the interacting-crossing panic.
func TestMoveBlockSpanJump(t *testing.T) {
	m := New()
	vars := m.NewVars(6)
	f := m.IncRef(m.And(vars[0], vars[5]))
	parity := vars[1]
	for _, v := range vars[2:5] {
		parity = m.Xor(parity, v)
	}
	m.IncRef(parity)
	wf, wp := evalAll(m, f, 6), evalAll(m, parity, 6)
	s := m.StartReorder()
	// Variable 0 interacts with 5 only; jump it past variables 1..4.
	s.MoveBlock(0, 1, 4)
	if s.Swaps() != 0 || s.InteractionSkips() != 4 {
		t.Fatalf("jump counted wrong: swaps=%d skips=%d", s.Swaps(), s.InteractionSkips())
	}
	if m.Level(0) != 4 {
		t.Fatalf("variable 0 at level %d after jump, want 4", m.Level(0))
	}
	for v := 1; v <= 4; v++ {
		if m.Level(v) != v-1 {
			t.Fatalf("variable %d at level %d after jump, want %d", v, m.Level(v), v-1)
		}
	}
	// Crossing the interacting variable 5 must panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MoveBlock across an interacting variable did not panic")
			}
		}()
		s.MoveBlock(4, 1, 1)
	}()
	// Jump back up (negative span) and close.
	s.MoveBlock(4, 1, -4)
	if s.InteractionSkips() != 8 {
		t.Fatalf("negative-span jump not counted: skips=%d", s.InteractionSkips())
	}
	s.Close()
	if m.Level(0) != 0 {
		t.Fatalf("variable 0 at level %d after round trip, want 0", m.Level(0))
	}
	checkKernelInvariants(t, m)
	for a := range wf {
		if got := evalAll(m, f, 6); got[a] != wf[a] {
			t.Fatalf("f changed function at assignment %06b", a)
		}
		if got := evalAll(m, parity, 6); got[a] != wp[a] {
			t.Fatalf("parity changed function at assignment %06b", a)
		}
	}
}

func TestGroupVarsMerge(t *testing.T) {
	m := New()
	m.NewVars(6)
	m.GroupVars([]int{0, 1})
	m.GroupVars([]int{4, 5})
	m.GroupVars([]int{1, 2})
	groups := m.VarGroups()
	if len(groups) != 2 {
		t.Fatalf("expected 2 groups after merge, got %v", groups)
	}
	var merged []int
	for _, g := range groups {
		if len(g) == 3 {
			merged = g
		}
	}
	if merged == nil || merged[0] != 0 || merged[1] != 1 || merged[2] != 2 {
		t.Fatalf("overlapping registrations did not merge: %v", groups)
	}
}

func TestAutoReorderTrigger(t *testing.T) {
	m := New()
	vars := m.NewVars(10)
	runs := 0
	m.SetAutoReorder(1.5, 64, func(m *Manager) {
		runs++
		s := m.StartReorder()
		s.Swap(0)
		s.Close()
	})
	if m.GetReorderPolicy() != ReorderAuto {
		t.Fatal("SetAutoReorder did not set the auto policy")
	}
	f := True
	for i := 0; i+1 < len(vars); i++ {
		f = m.And(f, m.Xor(vars[i], vars[i+1]))
		m.IncRef(f)
	}
	if !m.ReorderPending() {
		t.Fatalf("trigger never armed at %d nodes", m.Size())
	}
	if !m.MaybeReorder() || runs != 1 {
		t.Fatal("MaybeReorder did not run the hook")
	}
	if m.ReorderPending() {
		t.Fatal("trigger still pending right after a reorder")
	}
	if m.Stats().Reorders != 1 {
		t.Fatalf("stats report %d reorders, want 1", m.Stats().Reorders)
	}
	m.SetReorderPolicy(ReorderOff)
	if m.ReorderPending() || m.MaybeReorder() {
		t.Fatal("ReorderOff did not disarm the trigger")
	}
}

// TestSessionKeepsTableExact drives random Swap/MoveBlock sequences over
// a random forest (protected roots plus garbage) on a deliberately small
// unique table, so probe runs wrap around the table's end and the
// session's own allocations resize it. CheckInvariants, which covers
// exact table membership and the entry count, runs after every batch.
// After Close the table must need no rebuild: tableCount equals the
// allocated non-terminal slots and mk finds every stored triple.
func TestSessionKeepsTableExact(t *testing.T) {
	const n = 10
	resized, wrapped := false, false
	for seed := uint64(1); seed <= 8; seed++ {
		m := New()
		m.resizeTable(16)
		vars := m.NewVars(n)
		// Two variable pools, so some adjacent pairs do not interact
		// and MoveBlock gets exercised alongside full swaps.
		pool := append(buildRandomRoots(m, vars[:6], 40, seed), buildRandomRoots(m, vars[6:], 25, seed+100)...)
		var roots []Ref
		var want [][]bool
		for i, f := range pool {
			if i%3 == 0 {
				roots = append(roots, m.IncRef(f))
				want = append(want, evalAll(m, f, n))
			}
		}
		// Open the session just under the growth threshold.
		size := 16
		for 10*m.tableCount > 7*size {
			size *= 2
		}
		m.resizeTable(size)

		rng := seed
		next := func(k int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int(rng>>33) % k
		}
		s := m.StartReorder()
		for batch := 0; batch < 40; batch++ {
			for k := 0; k < 4; k++ {
				l := next(n - 1)
				if next(3) == 0 && !s.Interacts(m.VarAtLevel(l), m.VarAtLevel(l+1)) {
					s.MoveBlock(l, 1, 1)
				} else {
					s.Swap(l)
				}
			}
			checkKernelInvariants(t, m)
			resized = resized || len(m.table) > size
			for i, idx := range m.table {
				if idx != 0 && m.homeSlot(m.node(Ref(idx-1))) > uint64(i) {
					wrapped = true
				}
			}
		}
		s.Close()
		checkKernelInvariants(t, m)
		free := map[Ref]bool{}
		for _, f := range m.free {
			free[f] = true
		}
		if nodes := m.nodeCap - 1 - len(m.free); m.tableCount != nodes {
			t.Fatalf("seed %d: tableCount %d after Close, %d allocated nodes", seed, m.tableCount, nodes)
		}
		for i := 1; i < m.nodeCap; i++ {
			if free[Ref(i)] {
				continue
			}
			nd := *m.node(Ref(i))
			if got := m.mk(m.var2level[nd.varID], nd.low, nd.high); got != Ref(i) {
				t.Fatalf("seed %d: mk on node %d's triple returned %d", seed, i, got)
			}
		}
		for i, f := range roots {
			got := evalAll(m, f, n)
			for a := range got {
				if got[a] != want[i][a] {
					t.Fatalf("seed %d: root %d changed at assignment %d", seed, i, a)
				}
			}
		}
	}
	if !resized || !wrapped {
		t.Fatalf("coverage lost: mid-session resize %v, wrapped probe run %v", resized, wrapped)
	}
}
