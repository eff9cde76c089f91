// Package blifmv implements the BLIF-MV intermediate format (paper §4):
// an extension of the Berkeley Logic Interchange Format with
// multi-valued variables and non-deterministic tables, used as the
// common representation between HDL front ends and the verification
// engine.
//
// A model is a set of multi-valued variables, latches (all clocked by
// one implicit global clock), and relations ("tables") over the
// variables. A table maps each input pattern to a *set* of permitted
// output patterns; a singleton set everywhere makes it an ordinary
// multi-valued function, and a description with no non-determinism is
// exactly synchronous hardware.
package blifmv

import (
	"fmt"
)

// Design is a collection of models from one or more BLIF-MV sources;
// Root names the top-level model.
type Design struct {
	Models map[string]*Model
	Order  []string // model declaration order
	Root   string
}

// Model is one .model section.
type Model struct {
	Name    string
	Inputs  []string
	Outputs []string
	Vars    map[string]*Variable
	VarDecl []string // variable name declaration/first-use order
	Tables  []*Table
	Latches []*Latch
	Subckts []*Subckt
	// Attrs holds named per-variable annotations (".attr <ns> <var>
	// <value>"), e.g. the "src" namespace mapping variables back to HDL
	// source locations for source-level debugging (paper §8 item 7).
	Attrs map[string]map[string]string

	// sealed marks the model immutable (see Seal): Var stops creating
	// variables on lookup, making every read path safe for concurrent
	// use. Set once by Seal, never cleared.
	sealed bool
}

// SetAttr records an annotation for a variable.
func (m *Model) SetAttr(namespace, variable, value string) {
	if m.Attrs == nil {
		m.Attrs = make(map[string]map[string]string)
	}
	if m.Attrs[namespace] == nil {
		m.Attrs[namespace] = make(map[string]string)
	}
	m.Attrs[namespace][variable] = value
}

// Attr looks up an annotation; empty when absent.
func (m *Model) Attr(namespace, variable string) string {
	return m.Attrs[namespace][variable]
}

// Variable is a multi-valued variable. Values holds the symbolic value
// names; for undeclared (binary) variables it is ["0","1"].
type Variable struct {
	Name   string
	Card   int
	Values []string
}

// ValueIndex resolves a symbolic or numeric value name to its index, or
// -1 if the name is not in the domain.
func (v *Variable) ValueIndex(name string) int {
	for i, s := range v.Values {
		if s == name {
			return i
		}
	}
	return -1
}

// ValueName returns the symbolic name of value index i.
func (v *Variable) ValueName(i int) string {
	if i >= 0 && i < len(v.Values) {
		return v.Values[i]
	}
	return fmt.Sprintf("<%d>", i)
}

// ValueSet is a set of value indices of one column. All abbreviates the
// full domain ("-" in the source).
type ValueSet struct {
	All  bool
	Vals []int
}

// Contains reports membership of value index i, given the column's
// cardinality (needed for All).
func (s ValueSet) Contains(i int) bool {
	if s.All {
		return true
	}
	for _, v := range s.Vals {
		if v == i {
			return true
		}
	}
	return false
}

// Singleton builds a one-element set.
func Singleton(i int) ValueSet { return ValueSet{Vals: []int{i}} }

// AnyValue is the full-domain set.
func AnyValue() ValueSet { return ValueSet{All: true} }

// OutSpec is an output-column entry of a row: either a ValueSet or an
// equality with a named input column ("=x" in the source).
type OutSpec struct {
	Set     ValueSet
	EqInput int // index into Table.Inputs, or -1
}

// Row is one line of a table.
type Row struct {
	In  []ValueSet
	Out []OutSpec
}

// Table is a (possibly non-deterministic) relation. Inputs and Outputs
// name columns; Rows are the permitted combinations; an input pattern
// matched by no row and with a Default set produces the default,
// otherwise the relation is empty there (no legal output — the pattern
// is unconstrained-inconsistent, which veriﬁcation reports).
type Table struct {
	Inputs  []string
	Outputs []string
	Rows    []Row
	Default []ValueSet // nil, or one set per output
}

// Latch connects a next-state input variable to a present-state output
// variable. Init holds the permitted initial value indices of the
// output (more than one makes the initial state non-deterministic,
// paper §4: "a latch may have more than one initial value").
type Latch struct {
	Input  string
	Output string
	Init   []int
}

// Subckt instantiates another model. Bindings maps the child model's
// formal port names to actual variable names in the parent.
type Subckt struct {
	Model    string
	Instance string
	Bindings map[string]string
}

// Var returns the variable named n, creating it as binary if absent.
// BLIF-MV treats undeclared variables as binary with values 0/1.
// On a sealed model no creation happens: unknown names return nil,
// which is also how a stale saved-order name is told apart from a real
// variable (an unsealed model would silently mint a binary variable
// for it).
func (m *Model) Var(n string) *Variable {
	if v, ok := m.Vars[n]; ok {
		return v
	}
	if m.sealed {
		return nil
	}
	v := &Variable{Name: n, Card: 2, Values: []string{"0", "1"}}
	m.Vars[n] = v
	m.VarDecl = append(m.VarDecl, n)
	return v
}

// Seal materializes every variable the model references (inputs,
// outputs, table columns, latch ports) and then freezes the model:
// subsequent Var lookups never mutate it, so a sealed model is a
// read-only artifact that any number of goroutines may compile
// networks from concurrently. Sealing is idempotent.
func (m *Model) Seal() {
	if m.sealed {
		return
	}
	for _, n := range m.Inputs {
		m.Var(n)
	}
	for _, n := range m.Outputs {
		m.Var(n)
	}
	for _, t := range m.Tables {
		for _, n := range t.Inputs {
			m.Var(n)
		}
		for _, n := range t.Outputs {
			m.Var(n)
		}
	}
	for _, l := range m.Latches {
		m.Var(l.Input)
		m.Var(l.Output)
	}
	m.sealed = true
}

// Sealed reports whether Seal has run.
func (m *Model) Sealed() bool { return m.sealed }

// LatchOutputs returns the set of present-state variable names.
func (m *Model) LatchOutputs() map[string]bool {
	out := make(map[string]bool, len(m.Latches))
	for _, l := range m.Latches {
		out[l.Output] = true
	}
	return out
}

// Validate checks structural consistency: every table output is driven
// once, latch variables exist, subckt bindings reference known models,
// and row widths match column counts.
func (d *Design) Validate() error {
	if _, ok := d.Models[d.Root]; !ok {
		return fmt.Errorf("blifmv: root model %q not defined", d.Root)
	}
	for _, name := range d.Order {
		m := d.Models[name]
		if err := m.validate(d); err != nil {
			return fmt.Errorf("model %s: %w", name, err)
		}
	}
	return nil
}

func (m *Model) validate(d *Design) error {
	driven := make(map[string]string) // var -> driver description
	drive := func(v, by string) error {
		if prev, ok := driven[v]; ok {
			return fmt.Errorf("variable %q driven by both %s and %s", v, prev, by)
		}
		driven[v] = by
		return nil
	}
	for ti, t := range m.Tables {
		if len(t.Inputs)+len(t.Outputs) == 0 {
			return fmt.Errorf("table %d has no columns", ti)
		}
		for _, o := range t.Outputs {
			if err := drive(o, fmt.Sprintf("table %d", ti)); err != nil {
				return err
			}
		}
		if t.Default != nil && len(t.Default) != len(t.Outputs) {
			return fmt.Errorf("table %d: default width %d, want %d", ti, len(t.Default), len(t.Outputs))
		}
		for ri, r := range t.Rows {
			if len(r.In) != len(t.Inputs) || len(r.Out) != len(t.Outputs) {
				return fmt.Errorf("table %d row %d: width mismatch", ti, ri)
			}
			for ci, o := range r.Out {
				if o.EqInput >= 0 {
					if o.EqInput >= len(t.Inputs) {
						return fmt.Errorf("table %d row %d: =input column out of range", ti, ri)
					}
					in := m.Var(t.Inputs[o.EqInput])
					out := m.Var(t.Outputs[ci])
					if in.Card != out.Card {
						return fmt.Errorf("table %d row %d: = between different cardinalities (%s:%d vs %s:%d)",
							ti, ri, in.Name, in.Card, out.Name, out.Card)
					}
				}
			}
		}
	}
	for _, l := range m.Latches {
		if err := drive(l.Output, "latch"); err != nil {
			return err
		}
		if len(l.Init) == 0 {
			return fmt.Errorf("latch %q has no reset value", l.Output)
		}
		card := m.Var(l.Output).Card
		if m.Var(l.Input).Card != card {
			return fmt.Errorf("latch %q: input/output cardinality mismatch", l.Output)
		}
		for _, iv := range l.Init {
			if iv < 0 || iv >= card {
				return fmt.Errorf("latch %q: reset value %d out of domain", l.Output, iv)
			}
		}
	}
	for _, s := range m.Subckts {
		child, ok := d.Models[s.Model]
		if !ok {
			return fmt.Errorf("subckt %q: unknown model %q", s.Instance, s.Model)
		}
		for formal := range s.Bindings {
			if !contains(child.Inputs, formal) && !contains(child.Outputs, formal) {
				return fmt.Errorf("subckt %q: %q is not a port of %s", s.Instance, formal, s.Model)
			}
		}
		for _, out := range child.Outputs {
			if actual, ok := s.Bindings[out]; ok {
				if err := drive(actual, "subckt "+s.Instance); err != nil {
					return err
				}
			}
		}
	}
	for _, in := range m.Inputs {
		if by, ok := driven[in]; ok {
			return fmt.Errorf("primary input %q is driven by %s", in, by)
		}
	}
	return nil
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// String renders a short structural summary.
func (m *Model) String() string {
	return fmt.Sprintf("model %s: %d vars, %d tables, %d latches, %d subckts",
		m.Name, len(m.Vars), len(m.Tables), len(m.Latches), len(m.Subckts))
}

// qualify prefixes a name with an instance path.
func qualify(inst, name string) string {
	if inst == "" {
		return name
	}
	return inst + "." + name
}
