package bdd

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteBDDs serializes a set of named functions in a compact text
// format. Nodes are emitted in an order where children precede parents,
// so ReadBDDs can rebuild them with single mk calls. The format records
// variable IDs (not levels): a dump is portable across managers whose
// variables mean the same thing positionally. Complement edges are
// spelled with a "!" prefix on the referenced node id; "F" and "T" name
// the constants, so dumps written before complement edges existed still
// read back.
//
//	bdd 12            # variable count
//	n 2 0 F T         # node 2 = (var 0, low False, high True)
//	n 3 1 F !2        # high edge is the complement of node 2
//	root init 3
func (m *Manager) WriteBDDs(w io.Writer, roots map[string]Ref) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "bdd %d\n", m.numVars)
	// collect stored nodes reachable from all roots
	seen := map[Ref]bool{}
	var order []Ref
	var visit func(f Ref)
	visit = func(f Ref) {
		f = regular(f)
		if f == False || seen[f] {
			return
		}
		seen[f] = true
		n := *m.node(f)
		visit(n.low)
		visit(n.high)
		order = append(order, f) // post-order: children first
	}
	names := make([]string, 0, len(roots))
	for name, f := range roots {
		m.check(f)
		visit(f)
		names = append(names, name)
	}
	sort.Strings(names)
	enc := func(f Ref) string {
		switch f {
		case False:
			return "F"
		case True:
			return "T"
		}
		if isComp(f) {
			return "!" + fmt.Sprint(int(regular(f)))
		}
		return fmt.Sprint(int(f))
	}
	for _, f := range order {
		n := *m.node(f)
		fmt.Fprintf(bw, "n %d %d %s %s\n", int(f), int(n.varID), enc(n.low), enc(n.high))
	}
	for _, name := range names {
		if strings.ContainsAny(name, " \t\n") {
			return fmt.Errorf("bdd: root name %q contains whitespace", name)
		}
		fmt.Fprintf(bw, "root %s %s\n", name, enc(roots[name]))
	}
	return bw.Flush()
}

// ReadBDDs reconstructs functions written by WriteBDDs into this
// manager. The manager must have at least as many variables as the
// writer had; missing variables are created.
func (m *Manager) ReadBDDs(r io.Reader) (map[string]Ref, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	out := map[string]Ref{}
	remap := map[string]Ref{"F": False, "T": True}
	dec := func(tok string) (Ref, bool) {
		comp := strings.HasPrefix(tok, "!")
		if comp {
			tok = tok[1:]
		}
		f, ok := remap[tok]
		if !ok {
			return False, false
		}
		if comp {
			f = neg(f)
		}
		return f, true
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "bdd":
			if len(fields) != 2 {
				return nil, fmt.Errorf("bdd: line %d: malformed header", lineNo)
			}
			var nv int
			if _, err := fmt.Sscan(fields[1], &nv); err != nil {
				return nil, fmt.Errorf("bdd: line %d: %v", lineNo, err)
			}
			for m.numVars < nv {
				m.NewVar()
			}
		case "n":
			if len(fields) != 5 {
				return nil, fmt.Errorf("bdd: line %d: malformed node", lineNo)
			}
			var v int
			if _, err := fmt.Sscan(fields[2], &v); err != nil {
				return nil, fmt.Errorf("bdd: line %d: %v", lineNo, err)
			}
			if v < 0 || v >= m.numVars {
				return nil, fmt.Errorf("bdd: line %d: variable %d out of range", lineNo, v)
			}
			low, ok := dec(fields[3])
			if !ok {
				return nil, fmt.Errorf("bdd: line %d: unknown node id %q", lineNo, fields[3])
			}
			high, ok := dec(fields[4])
			if !ok {
				return nil, fmt.Errorf("bdd: line %d: unknown node id %q", lineNo, fields[4])
			}
			// rebuild with ITE rather than mk so the dump stays valid
			// even if the reading manager uses a different variable
			// order (ITE re-normalizes; mk would not)
			remap[fields[1]] = m.iteRec(m.varRef(v), high, low)
		case "root":
			if len(fields) != 3 {
				return nil, fmt.Errorf("bdd: line %d: malformed root", lineNo)
			}
			f, ok := dec(fields[2])
			if !ok {
				return nil, fmt.Errorf("bdd: line %d: unknown node id %q", lineNo, fields[2])
			}
			out[fields[1]] = f
		default:
			return nil, fmt.Errorf("bdd: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
