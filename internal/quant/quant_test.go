package quant

import (
	"math/rand"
	"strings"
	"testing"

	"hsis/internal/bdd"
)

// randomInstance builds a random conjunction-and-quantify instance that
// resembles transition-relation construction: many small relations over
// overlapping variable sets.
func randomInstance(m *bdd.Manager, rng *rand.Rand, nvars, nconj int) ([]Conjunct, []int) {
	vs := make([]bdd.Ref, nvars)
	for i := range vs {
		if m.NumVars() > i {
			vs[i] = m.Var(i)
		} else {
			vs[i] = m.NewVar()
		}
	}
	conjuncts := make([]Conjunct, nconj)
	for i := range conjuncts {
		k := 2 + rng.Intn(3)
		seen := map[int]bool{}
		f := bdd.False
		var sup []int
		for j := 0; j < k; j++ {
			v := rng.Intn(nvars)
			if seen[v] {
				continue
			}
			seen[v] = true
			sup = append(sup, v)
			lit := vs[v]
			if rng.Intn(2) == 0 {
				lit = m.Not(lit)
			}
			f = m.Or(f, lit)
		}
		if f == bdd.False {
			f = bdd.True
			sup = nil
		}
		conjuncts[i] = Conjunct{F: f, Support: sup}
	}
	var quantify []int
	for v := 0; v < nvars; v++ {
		if rng.Intn(2) == 0 {
			quantify = append(quantify, v)
		}
	}
	return conjuncts, quantify
}

// TestHeuristicsMatchNaive checks the early-quantification schedule
// against the naive reference on random instances.
func TestHeuristicsMatchNaive(t *testing.T) {
	m := bdd.New()
	rng := rand.New(rand.NewSource(314))
	for trial := 0; trial < 60; trial++ {
		conjuncts, quantify := randomInstance(m, rng, 10, 12)
		if got, want := AndExists(m, conjuncts, quantify), Naive(m, conjuncts, quantify); got != want {
			t.Fatalf("trial %d: AndExists disagrees with naive", trial)
		}
	}
}

func TestEmptyInstance(t *testing.T) {
	m := bdd.New()
	if got := AndExists(m, nil, nil); got != bdd.True {
		t.Fatal("empty conjunction should be True")
	}
}

func TestQuantifyAbsentVariable(t *testing.T) {
	m := bdd.New()
	a, b := m.NewVar(), m.NewVar()
	cs := []Conjunct{{F: m.And(a, b), Support: []int{0, 1}}}
	// variable 5 does not exist in any support (create it so Cube works)
	m.NewVars(4)
	got := AndExists(m, cs, []int{5})
	if got != m.And(a, b) {
		t.Fatal("quantifying an absent variable must be a no-op")
	}
}

func TestContradictionCollapses(t *testing.T) {
	m := bdd.New()
	a := m.NewVar()
	cs := []Conjunct{
		{F: a, Support: []int{0}},
		{F: m.Not(a), Support: []int{0}},
	}
	if got := AndExists(m, cs, nil); got != bdd.False {
		t.Fatal("contradiction should be False")
	}
}

// The paper's motivating scenario: a chain x0 -x1- x2 -x3- ... where all
// intermediate variables are quantified. Early quantification keeps the
// peak BDD linear in the chain length; the naive approach builds the
// full conjunction first.
func TestChainEliminationKeepsProductsSmall(t *testing.T) {
	m := bdd.New()
	const n = 24
	vs := m.NewVars(n)
	var cs []Conjunct
	for i := 0; i+1 < n; i++ {
		cs = append(cs, Conjunct{F: m.Equiv(vs[i], vs[i+1]), Support: []int{i, i + 1}})
	}
	var quantify []int
	for i := 1; i < n-1; i++ {
		quantify = append(quantify, i)
	}
	if got := AndExists(m, cs, quantify); got != m.Equiv(vs[0], vs[n-1]) {
		t.Fatal("chain elimination wrong result")
	}
}

func TestDeterminism(t *testing.T) {
	m := bdd.New()
	rng := rand.New(rand.NewSource(1))
	conjuncts, quantify := randomInstance(m, rng, 12, 15)
	a := AndExists(m, conjuncts, quantify)
	b := AndExists(m, conjuncts, quantify)
	if a != b {
		t.Fatal("schedule not deterministic")
	}
}

func TestPlanChainWidthLinearInLength(t *testing.T) {
	// the chain instance from TestChainElimination: the schedule must
	// keep every intermediate width at 2 (one live variable pair).
	const n = 24
	conjuncts := make([]Conjunct, 0, n-1)
	for i := 0; i+1 < n; i++ {
		conjuncts = append(conjuncts, Conjunct{F: bdd.True, Support: []int{i, i + 1}})
	}
	var quantify []int
	for i := 1; i < n-1; i++ {
		quantify = append(quantify, i)
	}
	sched := Plan(conjuncts, quantify)
	if sched.MaxWidth > 3 {
		t.Fatalf("chain elimination width = %d, want ≤ 3", sched.MaxWidth)
	}
	// the plan consumes every conjunct exactly once
	used := map[int]int{}
	for _, st := range sched.Steps {
		for _, i := range st.Inputs {
			used[i]++
		}
	}
	for _, i := range sched.Final.Inputs {
		used[i]++
	}
	for i := range conjuncts {
		if used[i] != 1 {
			t.Fatalf("conjunct %d used %d times", i, used[i])
		}
	}
}

func TestPlanStringAndWidths(t *testing.T) {
	conjuncts := []Conjunct{
		{F: bdd.True, Support: []int{0, 1}},
		{F: bdd.True, Support: []int{1, 2}},
	}
	sched := Plan(conjuncts, []int{1})
	s := sched.String()
	if !strings.Contains(s, "schedule: 1 steps, max width 3") {
		t.Fatalf("schedule: %s", s)
	}
	if st := sched.Steps[0]; st.Width != 2 || len(st.Quantify) != 1 || st.Quantify[0] != 1 {
		t.Fatalf("step 0 = %+v, want width 2 quantifying [1]", st)
	}
}
