// Package abstract implements automatic abstraction (paper §8 item 2:
// "Very large designs have to be abstracted manually for tractability of
// the verification algorithms. Research is in progress on how to achieve
// automatic abstractions.") via cone-of-influence reduction: latches and
// logic that cannot influence the observed variables are removed before
// the symbolic network is built.
//
// Cone-of-influence is an exact abstraction — the reduced model is
// bisimilar to the original over the observed variables — so every
// verdict (CTL and language containment alike) is preserved, while the
// state space shrinks by the removed latches.
package abstract

import (
	"fmt"

	"hsis/internal/blifmv"
)

// Result reports one reduction.
type Result struct {
	Model          *blifmv.Model
	KeptLatches    int
	DroppedLatches int
	KeptTables     int
	DroppedTables  int
}

// ConeOfInfluence reduces a flat model to the logic that can influence
// the given observed variables (property support). Observed names must
// exist in the model.
func ConeOfInfluence(flat *blifmv.Model, observed []string) (*Result, error) {
	if len(flat.Subckts) > 0 {
		return nil, fmt.Errorf("abstract: model must be flattened first")
	}
	// driver index: variable -> the table/latch driving it
	tableOf := map[string]*blifmv.Table{}
	for _, t := range flat.Tables {
		for _, o := range t.Outputs {
			tableOf[o] = t
		}
	}
	latchOf := map[string]*blifmv.Latch{}
	for _, l := range flat.Latches {
		latchOf[l.Output] = l
	}

	// backward closure from the observed variables
	inCone := map[string]bool{}
	var work []string
	add := func(n string) {
		if !inCone[n] {
			inCone[n] = true
			work = append(work, n)
		}
	}
	for _, o := range observed {
		if _, ok := flat.Vars[o]; !ok {
			return nil, fmt.Errorf("abstract: unknown observed variable %q", o)
		}
		add(o)
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if t, ok := tableOf[n]; ok {
			// the whole table is kept: all its columns join the cone
			for _, in := range t.Inputs {
				add(in)
			}
			for _, out := range t.Outputs {
				add(out)
			}
		}
		if l, ok := latchOf[n]; ok {
			add(l.Input)
		}
	}

	out := &blifmv.Model{
		Name: flat.Name + "_coi",
		Vars: map[string]*blifmv.Variable{},
	}
	res := &Result{Model: out}
	for _, n := range flat.VarDecl {
		if !inCone[n] {
			continue
		}
		v := flat.Vars[n]
		out.Vars[n] = &blifmv.Variable{Name: n, Card: v.Card, Values: append([]string(nil), v.Values...)}
		out.VarDecl = append(out.VarDecl, n)
	}
	for _, in := range flat.Inputs {
		if inCone[in] {
			out.Inputs = append(out.Inputs, in)
		}
	}
	seenTable := map[*blifmv.Table]bool{}
	for _, t := range flat.Tables {
		kept := false
		for _, o := range t.Outputs {
			if inCone[o] {
				kept = true
			}
		}
		if !kept || seenTable[t] {
			if !seenTable[t] {
				res.DroppedTables++
				seenTable[t] = true
			}
			continue
		}
		seenTable[t] = true
		out.Tables = append(out.Tables, t)
		res.KeptTables++
	}
	for _, l := range flat.Latches {
		if !inCone[l.Output] {
			res.DroppedLatches++
			continue
		}
		out.Latches = append(out.Latches, l)
		res.KeptLatches++
	}
	for ns, byVar := range flat.Attrs {
		for v, val := range byVar {
			if inCone[v] {
				out.SetAttr(ns, v, val)
			}
		}
	}
	if len(out.Latches) == 0 {
		return nil, fmt.Errorf("abstract: cone of %v contains no latches", observed)
	}
	return res, nil
}
