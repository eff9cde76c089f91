package quant

import (
	"fmt"
	"sort"
	"strings"

	"hsis/internal/bdd"
)

// Step is one entry of an early-quantification schedule: conjoin the
// given operands (indices into the original conjunct list for inputs,
// or earlier step results), then existentially quantify the listed
// variables out of the partial product.
type Step struct {
	// Inputs are original conjunct indices consumed by this step.
	Inputs []int
	// PrevSteps are earlier step indices whose results are consumed.
	PrevSteps []int
	// Quantify lists the BDD variables eliminated after the product.
	Quantify []int
	// Width is the predicted support size of the step's result.
	Width int
}

// Schedule is a complete multiply-and-quantify plan, computed purely
// from the conjuncts' supports — the artifact the paper's heuristic
// procedures produce ("an automatic procedure that gives a schedule of
// how to multiply and quantify out variables").
type Schedule struct {
	Heuristic Heuristic
	Steps     []Step
	// MaxWidth is the largest predicted intermediate support.
	MaxWidth int
	// Final lists the operands of the final conjunction: original
	// conjunct indices (Inputs) and step indices (PrevSteps) that
	// survive with no quantifiable variables.
	Final Step
}

// String renders a compact description of the plan.
func (s *Schedule) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "schedule(%s): %d steps, max width %d\n", s.Heuristic, len(s.Steps), s.MaxWidth)
	for i, st := range s.Steps {
		fmt.Fprintf(&sb, "  step %d: conjuncts %v + steps %v, quantify %v (width %d)\n",
			i, st.Inputs, st.PrevSteps, st.Quantify, st.Width)
	}
	fmt.Fprintf(&sb, "  final: conjuncts %v + steps %v\n", s.Final.Inputs, s.Final.PrevSteps)
	return sb.String()
}

// planItem tracks one live operand during planning.
type planItem struct {
	conjunct int // original index, or -1
	step     int // producing step index, or -1
	support  map[int]bool
	dead     bool
}

// Plan computes an early-quantification schedule from supports alone.
func Plan(conjuncts []Conjunct, quantify []int, h Heuristic) *Schedule {
	switch h {
	case Linear:
		return planLinear(conjuncts, quantify)
	default:
		return planMinWidth(conjuncts, quantify)
	}
}

func planMinWidth(conjuncts []Conjunct, quantify []int) *Schedule {
	sched := &Schedule{Heuristic: MinWidth}
	items := make([]*planItem, 0, len(conjuncts))
	for i, c := range conjuncts {
		sup := make(map[int]bool, len(c.Support))
		for _, v := range c.Support {
			sup[v] = true
		}
		items = append(items, &planItem{conjunct: i, step: -1, support: sup})
	}
	qset := make(map[int]bool, len(quantify))
	for _, v := range quantify {
		qset[v] = true
	}
	for {
		v, members := pickMinWidthItem(items, qset)
		if v < 0 {
			break
		}
		// merge members, quantify locals
		support := map[int]bool{}
		var st Step
		for _, i := range members {
			it := items[i]
			it.dead = true
			if it.conjunct >= 0 {
				st.Inputs = append(st.Inputs, it.conjunct)
			} else {
				st.PrevSteps = append(st.PrevSteps, it.step)
			}
			for w := range it.support {
				support[w] = true
			}
		}
		for w := range support {
			if !qset[w] {
				continue
			}
			external := false
			for j, it := range items {
				if it.dead || isMember(members, j) {
					continue
				}
				if it.support[w] {
					external = true
					break
				}
			}
			if !external {
				st.Quantify = append(st.Quantify, w)
			}
		}
		sort.Ints(st.Quantify)
		sort.Ints(st.Inputs)
		sort.Ints(st.PrevSteps)
		if w := len(support); w > sched.MaxWidth {
			sched.MaxWidth = w
		}
		for _, w := range st.Quantify {
			delete(support, w)
		}
		st.Width = len(support)
		items = append(items, &planItem{conjunct: -1, step: len(sched.Steps), support: support})
		sched.Steps = append(sched.Steps, st)
	}
	for _, it := range items {
		if it.dead {
			continue
		}
		if it.conjunct >= 0 {
			sched.Final.Inputs = append(sched.Final.Inputs, it.conjunct)
		} else {
			sched.Final.PrevSteps = append(sched.Final.PrevSteps, it.step)
		}
	}
	sort.Ints(sched.Final.Inputs)
	sort.Ints(sched.Final.PrevSteps)
	return sched
}

// pickMinWidthItem mirrors pickMinWidthVar over plan items.
func pickMinWidthItem(items []*planItem, qset map[int]bool) (int, []int) {
	occ := map[int][]int{}
	for i, it := range items {
		if it.dead {
			continue
		}
		for v := range it.support {
			if qset[v] {
				occ[v] = append(occ[v], i)
			}
		}
	}
	bestVar, bestWidth := -1, int(^uint(0)>>1)
	var bestMembers []int
	vars := make([]int, 0, len(occ))
	for v := range occ {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	union := map[int]bool{}
	for _, v := range vars {
		// A variable only one item mentions (the common case) needs no
		// union: the width is that item's support.
		members := occ[v]
		width := len(items[members[0]].support)
		if len(members) > 1 {
			clear(union)
			for _, i := range members {
				for w := range items[i].support {
					union[w] = true
				}
			}
			width = len(union)
		}
		if width < bestWidth {
			bestVar, bestWidth, bestMembers = v, width, members
		}
	}
	return bestVar, bestMembers
}

func planLinear(conjuncts []Conjunct, quantify []int) *Schedule {
	sched := &Schedule{Heuristic: Linear}
	qset := make(map[int]bool, len(quantify))
	for _, v := range quantify {
		qset[v] = true
	}
	last := map[int]int{}
	for i, c := range conjuncts {
		for _, v := range c.Support {
			if qset[v] {
				last[v] = i
			}
		}
	}
	running := map[int]bool{}
	for i, c := range conjuncts {
		st := Step{Inputs: []int{i}}
		if i > 0 {
			st.PrevSteps = []int{i - 1}
		}
		for _, v := range c.Support {
			running[v] = true
		}
		if w := len(running); w > sched.MaxWidth {
			sched.MaxWidth = w
		}
		for _, v := range c.Support {
			if qset[v] && last[v] == i {
				st.Quantify = append(st.Quantify, v)
			}
		}
		sort.Ints(st.Quantify)
		for _, v := range st.Quantify {
			delete(running, v)
		}
		st.Width = len(running)
		sched.Steps = append(sched.Steps, st)
	}
	if n := len(conjuncts); n > 0 {
		sched.Final.PrevSteps = []int{n - 1}
	}
	return sched
}

// Execute runs a schedule against the actual BDDs. For schedules from
// Plan over the same conjunct list, Execute(Plan(...)) computes the
// same function as AndExists.
func Execute(m *bdd.Manager, conjuncts []Conjunct, sched *Schedule) bdd.Ref {
	results := make([]bdd.Ref, len(sched.Steps))
	runStep := func(st Step) bdd.Ref {
		// multiply smallest-first to keep intermediates small
		var ops []bdd.Ref
		for _, i := range st.Inputs {
			ops = append(ops, conjuncts[i].F)
		}
		for _, s := range st.PrevSteps {
			ops = append(ops, results[s])
		}
		sort.Slice(ops, func(a, b int) bool { return ops[a] < ops[b] })
		cube := m.Cube(st.Quantify)
		prod := bdd.True
		for k, f := range ops {
			if k == len(ops)-1 {
				prod = m.AndExists(prod, f, cube)
			} else {
				prod = m.And(prod, f)
			}
		}
		if len(ops) == 0 {
			prod = m.Exists(prod, cube)
		}
		return prod
	}
	for i, st := range sched.Steps {
		results[i] = runStep(st)
	}
	return runStep(sched.Final)
}
