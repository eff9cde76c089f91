// Command deadcode fails when a function declared under internal/ is
// linked into no entry point. It builds every main package under cmd/,
// examples/ and internal/tools/, and the hsisbench module from its own
// directory, one build at a time with inlining off (-gcflags=all=-l) so
// that every call keeps its callee's symbol; the linker drops the
// functions no entry point can call. A value-receiver method T.M also
// counts as reached through its (*T).M wrapper, and a generic function
// through any instantiation.
//
// allow.txt, next to this file, lists the unreached functions kept on
// purpose: per line, a path.Match pattern over the name without the
// "hsis/internal/" prefix, then the reason. An entry that matches
// no unreached function also fails the check. Run from the repository
// root:
//
//	go run ./internal/tools/deadcode
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strings"
)

const (
	allowFile = "internal/tools/deadcode/allow.txt"
	prefix    = "hsis/internal/" // stripped from reported names
)

// typeArgs matches an innermost list of type arguments, as in
// p.(*T[go.shape.int]).M.
var typeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(1)
	}
}

func run() error {
	syms, err := linkedSymbols()
	if err != nil {
		return err
	}
	pkgs, err := goOutput("", "list", "-f", "{{.ImportPath}} {{.Dir}} {{join .GoFiles \" \"}}", "./internal/...")
	if err != nil {
		return err
	}
	var unreached []string
	total := 0
	for _, line := range strings.Split(strings.TrimSpace(pkgs), "\n") {
		f := strings.Fields(line)
		for _, file := range f[2:] {
			src, err := parser.ParseFile(token.NewFileSet(), filepath.Join(f[1], file), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, d := range src.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "_" || (fn.Recv == nil && fn.Name.Name == "init") {
					continue // init runs whenever its package links
				}
				total++
				if names := symbols(f[0], fn); !syms[names[0]] && !syms[names[len(names)-1]] {
					unreached = append(unreached, strings.TrimPrefix(names[0], prefix))
				}
			}
		}
	}

	data, err := os.ReadFile(allowFile)
	if err != nil {
		return err
	}
	allowed := map[string]bool{}
	var bad []string
	for i, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) < 2 {
			return fmt.Errorf("%s:%d: %q has no reason", allowFile, i+1, line)
		}
		used := false
		for _, name := range unreached {
			if ok, err := path.Match(f[0], name); err != nil {
				return fmt.Errorf("%s:%d: %v", allowFile, i+1, err)
			} else if ok {
				allowed[name], used = true, true
			}
		}
		if !used {
			bad = append(bad, fmt.Sprintf("%s:%d: stale entry %s matches no unreached function", allowFile, i+1, f[0]))
		}
	}
	for _, name := range unreached {
		if !allowed[name] {
			bad = append(bad, "unreached: "+name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d problems:\n\t%s", len(bad), strings.Join(bad, "\n\t"))
	}
	fmt.Printf("deadcode: %d functions under internal/, %d unreached, all in %s\n", total, len(unreached), allowFile)
	return nil
}

// symbols returns the link symbol of fn in package pkg and, for a
// value-receiver method, the (*T).M wrapper's symbol last.
func symbols(pkg string, fn *ast.FuncDecl) []string {
	if fn.Recv == nil {
		return []string{pkg + "." + fn.Name.Name}
	}
	typ := fn.Recv.List[0].Type
	star, isPtr := typ.(*ast.StarExpr)
	if isPtr {
		typ = star.X
	}
	if g, ok := typ.(*ast.IndexExpr); ok { // T[P]
		typ = g.X
	} else if g, ok := typ.(*ast.IndexListExpr); ok { // T[P, Q]
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	ptr := pkg + ".(*" + recv + ")." + fn.Name.Name
	if isPtr {
		return []string{ptr}
	}
	return []string{pkg + "." + recv + "." + fn.Name.Name, ptr}
}

// linkedSymbols returns the union of the entry points' text symbols,
// with type arguments removed and each main package's "main." prefix
// replaced by its import path.
func linkedSymbols() (map[string]bool, error) {
	tmp, err := os.MkdirTemp("", "deadcode")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	mains, err := goOutput("", "list", "-f", "{{if eq .Name \"main\"}}{{.ImportPath}}{{end}}", "./cmd/...", "./examples/...", "./internal/tools/...")
	if err != nil {
		return nil, err
	}
	syms := map[string]bool{}
	for _, pkg := range append(strings.Fields(mains), "hsis/hsisbench") {
		dir := ""
		if pkg == "hsis/hsisbench" {
			dir = "hsisbench" // a module of its own
		}
		bin := filepath.Join(tmp, "bin")
		if _, err := goOutput(dir, "build", "-gcflags=all=-l", "-o", bin, pkg); err != nil {
			return nil, err
		}
		nm, err := goOutput("", "tool", "nm", bin)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(nm, "\n") {
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			name := f[2]
			for prev := ""; prev != name; {
				prev, name = name, typeArgs.ReplaceAllString(name, "")
			}
			if rest, ok := strings.CutPrefix(name, "main."); ok {
				name = pkg + "." + rest
			}
			syms[name] = true
		}
	}
	return syms, nil
}

// goOutput runs the go command in dir ("" for the current directory)
// and returns its standard output, or an error carrying its stderr.
func goOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); ok {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, ee.Stderr)
	}
	return string(out), err
}
