package reorder

import (
	"testing"

	"hsis/internal/bdd"
)

// evalAll snapshots f's truth table over nVars variables.
func evalAll(m *bdd.Manager, f bdd.Ref, nVars int) []bool {
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

// achilles builds the classic order-sensitive function
// x0·x_k ∨ x1·x_{k+1} ∨ … over 2k variables: exponential under the
// creation order (partners k levels apart), linear once sifting pairs
// the partners up.
func achilles(m *bdd.Manager, vars []bdd.Ref) bdd.Ref {
	k := len(vars) / 2
	f := bdd.False
	for i := 0; i < k; i++ {
		f = m.Or(f, m.And(vars[i], vars[i+k]))
	}
	return f
}

func TestSiftShrinksAndPreservesFunctions(t *testing.T) {
	const n = 12
	m := bdd.New()
	vars := m.NewVars(n)
	f := m.IncRef(achilles(m, vars))
	g := m.IncRef(m.Xor(vars[0], m.And(vars[5], vars[11])))
	wantF, wantG := evalAll(m, f, n), evalAll(m, g, n)

	before := m.NodeCount(f)
	res := Sift(m)
	if res.After >= res.Before {
		t.Fatalf("sifting did not shrink the manager: %d -> %d", res.Before, res.After)
	}
	if after := m.NodeCount(f); after*2 > before {
		t.Fatalf("achilles function not untangled: %d -> %d nodes", before, after)
	}
	if res.Swaps == 0 || res.Passes == 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	gotF, gotG := evalAll(m, f, n), evalAll(m, g, n)
	for i, want := range wantF {
		if gotF[i] != want {
			t.Fatalf("f changed at assignment %d", i)
		}
	}
	for i, want := range wantG {
		if gotG[i] != want {
			t.Fatalf("g changed at assignment %d", i)
		}
	}
	if st := m.Stats(); st.Reorders != 1 || st.ReorderSwaps == 0 {
		t.Fatalf("reorder statistics not recorded: %+v", st)
	}
}

func TestGroupBlocksStayContiguous(t *testing.T) {
	const n = 10
	m := bdd.New()
	vars := m.NewVars(n)
	m.GroupVars([]int{0, 1, 2})
	m.GroupVars([]int{3, 4})
	f := m.IncRef(achilles(m, vars))
	want := evalAll(m, f, n)

	Sift(m)
	for _, g := range [][]int{{0, 1, 2}, {3, 4}} {
		base := m.Level(g[0])
		for off, v := range g {
			if m.Level(v) != base+off {
				t.Fatalf("group %v torn apart: levels %d %d %d", g,
					m.Level(g[0]), m.Level(g[1]), m.Level(g[len(g)-1]))
			}
		}
	}
	got := evalAll(m, f, n)
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("function changed at assignment %d", i)
		}
	}
}

// TestAutoSiftAtSafePoints drives the full automatic path: EnableAuto
// arms the kernel trigger, allocation pressure fires it, and a
// MaybeReorder safe point (with the caller's Refs protected, per the GC
// contract) runs the sift.
func TestAutoSiftAtSafePoints(t *testing.T) {
	const n = 14
	m := bdd.New()
	vars := m.NewVars(n)
	// A small manager: arm at 1.2x above 64 nodes instead of the
	// production 2x above 4096, so the test's few roots fire the trigger.
	cfg := defaults
	cfg.trigger, cfg.minNodes = 1.2, 64
	enableAuto(m, cfg)

	var roots []bdd.Ref
	want := make(map[bdd.Ref][]bool)
	for i := 0; i < n/2; i++ {
		f := m.IncRef(achilles(m, vars[:2*(i+1)]))
		roots = append(roots, f)
		want[f] = evalAll(m, f, n)
		m.MaybeReorder() // fixpoint-loop safe point
	}
	if m.Stats().Reorders == 0 {
		t.Fatalf("auto trigger never fired (%d live nodes)", m.Size())
	}
	for i, f := range roots {
		got := evalAll(m, f, n)
		for a, w := range want[f] {
			if got[a] != w {
				t.Fatalf("root %d changed at assignment %d after auto-sift", i, a)
			}
		}
	}
	DisableAuto(m)
	if m.GetReorderPolicy() != bdd.ReorderOff {
		t.Fatal("DisableAuto left the policy armed")
	}
}

// TestLowerBoundIsQualityNeutral pins the soundness of the pruning: the
// lower bound may only abort directions that provably cannot beat the
// best position, so enabling it must reach exactly the final size of the
// unpruned search on the same input.
func TestLowerBoundIsQualityNeutral(t *testing.T) {
	const n = 12
	build := func() *bdd.Manager {
		m := bdd.New()
		vars := m.NewVars(n)
		m.IncRef(achilles(m, vars))
		m.IncRef(m.And(vars[1], m.Xor(vars[4], vars[9])))
		return m
	}
	unpruned := defaults
	unpruned.noLowerBound = true
	a := Sift(build())
	b := sift(build(), unpruned)
	if a.After != b.After {
		t.Fatalf("lower bound changed the result: %d with, %d without", a.After, b.After)
	}
	if a.LowerBoundAborts == 0 {
		t.Fatalf("lower bound never fired on an order-sensitive input: %+v", a)
	}
}

// TestSiftSpanJumpsDisjointSupports sifts two groups of functions over
// disjoint variable sets: a block crosses the other group only by
// O(span) relabels, which never change a level population, so no block
// ever settles across the group boundary — each group stays within its
// own band.
func TestSiftSpanJumpsDisjointSupports(t *testing.T) {
	const n = 12
	m := bdd.New()
	vars := m.NewVars(n)
	f := m.IncRef(achilles(m, vars[:6]))
	g := m.IncRef(achilles(m, vars[6:]))
	wantF, wantG := evalAll(m, f, n), evalAll(m, g, n)

	res := Sift(m)
	if res.InteractionSkips == 0 {
		t.Fatalf("no span jump across the disjoint group: %+v", res)
	}
	for l := 0; l < 6; l++ {
		if m.VarAtLevel(l) >= 6 {
			t.Fatalf("variable %d crossed the disjoint-support boundary to level %d", m.VarAtLevel(l), l)
		}
	}
	gotF, gotG := evalAll(m, f, n), evalAll(m, g, n)
	for a := range wantF {
		if gotF[a] != wantF[a] || gotG[a] != wantG[a] {
			t.Fatalf("function changed at assignment %d", a)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSiftRandomized cross-checks sifting against evaluation snapshots
// over randomized DAGs and configurations: growth bounds, single and
// converging passes, and the unpruned and full-cost reference searches.
func TestSiftRandomized(t *testing.T) {
	const n = 9
	for seed := uint64(1); seed <= 8; seed++ {
		m := bdd.New()
		vars := m.NewVars(n)
		s := seed
		next := func() uint64 {
			s = s*6364136223846793005 + 1442695040888963407
			return s >> 33
		}
		pool := append([]bdd.Ref(nil), vars...)
		var roots []bdd.Ref
		for len(pool) < 40 {
			a, b := pool[next()%uint64(len(pool))], pool[next()%uint64(len(pool))]
			var f bdd.Ref
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
			if next()%3 == 0 {
				roots = append(roots, m.IncRef(f))
			}
		}
		if next()%2 == 0 {
			m.GroupVars([]int{int(next() % (n - 1)), int(next()%(n-1)) + 1})
		}
		want := make([][]bool, len(roots))
		for i, f := range roots {
			want[i] = evalAll(m, f, n)
		}
		cfg := config{
			maxGrowth:     1.1 + float64(seed%3)/10,
			passes:        1,
			noInteraction: seed%3 == 0,
			noLowerBound:  seed%5 == 0,
		}
		if seed%2 == 0 {
			cfg.passes = defaults.passes
		}
		res := sift(m, cfg)
		if res.After > res.Before {
			t.Fatalf("seed %d: sifting grew the manager %d -> %d", seed, res.Before, res.After)
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
}

// siftForest builds BenchmarkSiftSession's fixed forest: count achilles
// functions x_a1·y_b1 ∨ … ∨ x_ak·y_bk, each over 2k variables drawn
// (seeded) from vars with partners k positions apart in the draw. Each
// is exponential under an order that separates its partners, and no
// single order suits them all, so a sift has real work at most levels.
func siftForest(m *bdd.Manager, vars []bdd.Ref, k, count int) []bdd.Ref {
	s := uint64(7)
	next := func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s >> 33
	}
	perm := make([]int, len(vars))
	for i := range perm {
		perm[i] = i
	}
	roots := make([]bdd.Ref, count)
	for r := range roots {
		for i := len(perm) - 1; i > 0; i-- {
			j := int(next() % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		f := bdd.False
		for i := 0; i < k; i++ {
			f = m.Or(f, m.And(vars[perm[i]], vars[perm[i+k]]))
		}
		roots[r] = m.IncRef(f)
	}
	return roots
}

// BenchmarkSiftSession times one converging Sift over siftForest and
// reports the session layer's cost per adjacent-level swap, the number
// the kernel's swap, unique-table and release paths decide.
func BenchmarkSiftSession(b *testing.B) {
	var swaps int
	var ns int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := bdd.New()
		siftForest(m, m.NewVars(64), 9, 40)
		b.StartTimer()
		res := Sift(m)
		swaps += res.Swaps
		ns += m.Stats().ReorderTime.Nanoseconds()
	}
	b.ReportMetric(float64(ns)/float64(swaps), "ns/swap")
	b.ReportMetric(float64(swaps)/float64(b.N), "swaps/op")
}
