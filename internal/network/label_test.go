package network

import (
	"sort"
	"testing"

	"hsis/internal/bdd"
	"hsis/internal/blifmv"
	"hsis/internal/designs"
	"hsis/internal/quant"
	"hsis/internal/reorder"
	"hsis/internal/verilog"
)

// sweepAndExists is a reference conjoin-and-quantify independent of the
// quant schedule: one running product over the conjuncts in order, each
// variable quantified at its last occurrence. Over every conjunct of a
// design, quant.Naive's unquantified product blows up (mdlc2, philos-4)
// and the schedule's per-step bookkeeping costs more than the BDD work.
func sweepAndExists(m *bdd.Manager, conjuncts []quant.Conjunct, quantify []int) bdd.Ref {
	last := map[int]int{}
	for _, v := range quantify {
		last[v] = -1
	}
	for i, c := range conjuncts {
		for _, v := range c.Support {
			if _, ok := last[v]; ok {
				last[v] = i
			}
		}
	}
	prod := bdd.True
	for i, c := range conjuncts {
		var dying []int
		for _, v := range c.Support {
			if l, ok := last[v]; ok && l == i {
				dying = append(dying, v)
			}
		}
		sort.Ints(dying)
		prod = m.AndExists(prod, c.F, m.Cube(dying))
	}
	return prod
}

// allConjunctLabels returns the reference labels of every value of a
// combinational variable: every relation conjoined, every variable off
// the present-state rail quantified. The relation is projected onto the
// PS rail and the variable once; each value's label is a cofactor of
// that projection.
func allConjunctLabels(n *Network, name string) []bdd.Ref {
	v := n.space.ByName(name)
	keep := map[int]bool{}
	for _, b := range append(append([]int(nil), n.psBits...), v.Bits()...) {
		keep[b] = true
	}
	var qvars []int
	for b := 0; b < n.mgr.NumVars(); b++ {
		if !keep[b] {
			qvars = append(qvars, b)
		}
	}
	proj := sweepAndExists(n.mgr, n.conjuncts, qvars)
	labels := make([]bdd.Ref, v.Card())
	for idx := range labels {
		labels[idx] = n.mgr.AndExists(proj, v.Eq(idx), v.Cube())
	}
	return labels
}

// TestConeLabelsMatchAllConjuncts checks that the cone-local label of
// every variable and value equals the label over all relations, on
// every bundled design plus two scaled rings.
func TestConeLabelsMatchAllConjuncts(t *testing.T) {
	names := append(designs.Names(), "philos-4", "scheduler-8")
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			d, err := designs.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			dsg, err := verilog.CompileString(d.Verilog, d.Name+".v", d.Top)
			if err != nil {
				t.Fatal(err)
			}
			flat, err := blifmv.Flatten(dsg)
			if err != nil {
				t.Fatal(err)
			}
			n, err := Build(flat, Options{SkipMonolithic: true})
			if err != nil {
				t.Fatal(err)
			}
			vars := make([]string, 0, len(flat.Vars))
			for v := range flat.Vars {
				vars = append(vars, v)
			}
			sort.Strings(vars)
			narrower := 0
			for _, v := range vars {
				if n.isPSVar(n.space.ByName(v)) {
					continue
				}
				mv := flat.Var(v)
				want := allConjunctLabels(n, v)
				for idx := 0; idx < mv.Card; idx++ {
					got, err := n.LabelEq(v, mv.ValueName(idx))
					if err != nil {
						t.Fatal(err)
					}
					if got != want[idx] {
						t.Fatalf("label %s=%s: cone result differs from all-conjunct result", v, mv.ValueName(idx))
					}
				}
				if c, ok := n.labels.cones[v]; ok && len(c) < len(n.conjuncts) {
					narrower++
				}
			}
			if !n.labels.sound || narrower == 0 {
				t.Fatalf("no label took the cone path (sound=%v)", n.labels.sound)
			}
		})
	}
}

// partialTable has a table (c) that is partial — no row for s=1 — and
// lies outside the fan-in cone of a. The label of a=1 must still see
// it: conjoining every relation leaves no state where a=1.
const partialTable = `
.model partial
.table s a
0 0
1 1
.table s c
0 1
.table s ns
0 1
1 0
.latch ns s
.reset s
0
.end
`

func TestConeLabelFallsBackOnPartialTable(t *testing.T) {
	n := compile(t, partialTable, Options{})
	got, err := n.LabelEq("a", "1")
	if err != nil {
		t.Fatal(err)
	}
	if want := allConjunctLabels(n, "a")[1]; got != want || got != bdd.False {
		t.Fatalf("label a=1: got %v, want the all-conjunct result %v (False)", got, want)
	}
	if c := n.labels.cones["a"]; len(c) != len(n.conjuncts) {
		t.Fatalf("label a=1 used %d of %d conjuncts; the partial table forces all", len(c), len(n.conjuncts))
	}
	// The cone of c holds the partial table itself: no fallback there.
	if _, err := n.LabelEq("c", "1"); err != nil {
		t.Fatal(err)
	}
	if c := n.labels.cones["c"]; len(c) != 1 {
		t.Fatalf("label c=1 used %d conjuncts, want its 1-table cone", len(c))
	}
}

// TestConeLabelsAcrossGCAndReorder evaluates labels in reverse order on
// a second network, collecting garbage between labels and sifting the
// order halfway: the lazily built cone cache must serve every label the
// function a fresh network computes.
func TestConeLabelsAcrossGCAndReorder(t *testing.T) {
	d, err := designs.Get("scheduler-8")
	if err != nil {
		t.Fatal(err)
	}
	dsg, err := verilog.CompileString(d.Verilog, d.Name+".v", d.Top)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := blifmv.Flatten(dsg)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Network {
		n, err := Build(flat, Options{SkipMonolithic: true})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	var vars []string
	for v := range flat.Vars {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	label := func(n *Network, v string) bdd.Ref {
		r, err := n.LabelEq(v, flat.Var(v).ValueName(0))
		if err != nil {
			t.Error(err)
		}
		return r
	}
	// The two networks own different managers (and, after the sift,
	// different orders), so compare exact state counts.
	ref := build()
	want := make([]string, len(vars))
	for i, v := range vars {
		want[i] = ref.NumStatesExact(label(ref, v)).String()
	}
	n := build()
	for i := len(vars) - 1; i >= 0; i-- {
		if i == len(vars)/2 {
			reorder.Sift(n.mgr)
		}
		got := n.NumStatesExact(label(n, vars[i])).String()
		if got != want[i] {
			t.Fatalf("label %s=0: %s states, want %s", vars[i], got, want[i])
		}
		n.mgr.GC()
	}
}
