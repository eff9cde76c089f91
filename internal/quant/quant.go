// Package quant solves the early quantification problem (paper §4): given
// a set of BDD conjuncts and a set of variables to existentially
// quantify, find a schedule of pairwise multiplications and
// quantifications that keeps intermediate products small. A variable can
// be quantified out of a partial product as soon as no *other* remaining
// conjunct depends on it.
//
// There is one schedule, computed by Plan from the conjuncts' supports
// alone (bucket-elimination style): repeatedly eliminate the
// quantifiable variable whose conjunct cluster has the smallest combined
// support, conjoin that cluster, and quantify every variable local to
// it. AndExists executes that plan. Naive, which builds the full
// conjunction before quantifying, is the reference it is tested and
// benchmarked against (Ablation A).
package quant

import (
	"sort"

	"hsis/internal/bdd"
)

// Conjunct pairs a BDD with its support (BDD variable IDs). Support may
// be computed by bdd.Manager.Support or supplied structurally (cheaper
// and the common case for relation BDDs whose columns are known).
type Conjunct struct {
	F       bdd.Ref
	Support []int
}

// AndExists conjoins all conjuncts and existentially quantifies the
// variables in quantify, following the early-quantification schedule
// Plan computes. It is semantically equivalent to (but usually far
// cheaper than) building the monolithic conjunction and quantifying at
// the end.
//
// Each step multiplies its operands smallest predicted support first
// (ties broken by operand index: conjunct i is i, step s is
// len(conjuncts)+s) and fuses the last multiplication with the step's
// quantification; the surviving operands are then conjoined in index
// order.
func AndExists(m *bdd.Manager, conjuncts []Conjunct, quantify []int) bdd.Ref {
	sched := Plan(conjuncts, quantify)
	n := len(conjuncts)
	results := make([]bdd.Ref, len(sched.Steps))
	type operand struct {
		f            bdd.Ref
		width, index int
	}
	var ops []operand
	for s, st := range sched.Steps {
		cube := m.Cube(st.Quantify)
		ops = ops[:0]
		for _, i := range st.Inputs {
			ops = append(ops, operand{conjuncts[i].F, distinct(conjuncts[i].Support), i})
		}
		for _, p := range st.PrevSteps {
			ops = append(ops, operand{results[p], sched.Steps[p].Width, n + p})
		}
		sort.Slice(ops, func(a, b int) bool {
			if ops[a].width != ops[b].width {
				return ops[a].width < ops[b].width
			}
			return ops[a].index < ops[b].index
		})
		prod := bdd.True
		for k, op := range ops {
			if k == len(ops)-1 {
				prod = m.AndExists(prod, op.f, cube)
			} else {
				prod = m.And(prod, op.f)
			}
		}
		results[s] = prod
	}
	res := bdd.True
	for _, i := range sched.Final.Inputs {
		res = m.And(res, conjuncts[i].F)
	}
	for _, p := range sched.Final.PrevSteps {
		res = m.And(res, results[p])
	}
	return res
}

// distinct counts the distinct variables of a support list.
func distinct(support []int) int {
	seen := make(map[int]bool, len(support))
	for _, v := range support {
		seen[v] = true
	}
	return len(seen)
}

// Naive builds the full conjunction first and quantifies afterwards. It
// is the reference AndExists is tested against and the baseline of
// Ablation A.
func Naive(m *bdd.Manager, conjuncts []Conjunct, quantify []int) bdd.Ref {
	prod := bdd.True
	for _, c := range conjuncts {
		prod = m.And(prod, c.F)
	}
	return m.Exists(prod, m.Cube(quantify))
}
