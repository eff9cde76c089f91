package bdd

import (
	"fmt"
	"io"
	"sort"
)

// WriteDot emits a Graphviz rendering of the BDDs rooted at the given
// functions, with variables labelled by the names slice (indexed by
// variable ID; missing names fall back to "v<i>"). It is a debugging
// aid, mirroring the original tool's BDD dump facility. There is a
// single terminal box ("0"); complement edges are drawn with a dot
// arrowhead, so the constant true appears as a complemented edge into
// the 0-terminal. Low (else) edges are dashed and, by the canonical-form
// invariant, never complemented.
func (m *Manager) WriteDot(w io.Writer, names []string, roots map[string]Ref) error {
	nodes := make(map[Ref]bool)
	var keys []string
	for k, f := range roots {
		m.check(f)
		m.countRec(f, nodes)
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if _, err := fmt.Fprintln(w, "digraph bdd {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=TB;")
	fmt.Fprintln(w, `  node0 [label="0", shape=box];`)
	edge := func(from Ref, to Ref, dashed bool) {
		attrs := ""
		switch {
		case dashed && isComp(to):
			attrs = " [style=dashed, arrowhead=odot]"
		case dashed:
			attrs = " [style=dashed]"
		case isComp(to):
			attrs = " [arrowhead=odot]"
		}
		fmt.Fprintf(w, "  node%d -> node%d%s;\n", from, regular(to), attrs)
	}
	ordered := make([]Ref, 0, len(nodes))
	for f := range nodes {
		if !m.IsTerminal(f) {
			ordered = append(ordered, f)
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	for _, f := range ordered {
		n := *m.node(f)
		v := int(n.varID)
		name := fmt.Sprintf("v%d", v)
		if v < len(names) && names[v] != "" {
			name = names[v]
		}
		fmt.Fprintf(w, "  node%d [label=%q];\n", f, name)
		edge(f, n.low, true)
		edge(f, n.high, false)
	}
	for _, k := range keys {
		f := roots[k]
		fmt.Fprintf(w, "  root_%s [label=%q, shape=plaintext];\n", sanitize(k), k)
		attrs := ""
		if isComp(f) {
			attrs = " [arrowhead=odot]"
		}
		fmt.Fprintf(w, "  root_%s -> node%d%s;\n", sanitize(k), regular(f), attrs)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
