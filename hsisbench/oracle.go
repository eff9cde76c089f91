package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"hsis/internal/core"
	"hsis/internal/designs"
)

// expected is one design's row of the verdict oracle: the exact decimal
// reachable-state count and every property verdict in declaration order.
type expected struct {
	States   string    `json:"states"`
	Verdicts []verdict `json:"verdicts"`
}

type verdict struct {
	Name string `json:"name"`
	Pass bool   `json:"pass"`
}

// oracleFile is the checked-in expected table. It was produced by
// --gen-oracle, which runs every design with reordering off and the
// sequential kernel (Workers: 1) — the configuration the other modes
// must agree with.
type oracleFile struct {
	Config  string               `json:"config"`
	Designs map[string]*expected `json:"designs"`
}

//go:embed oracle.json
var oracleJSON []byte

func loadOracle() (map[string]*expected, error) {
	var f oracleFile
	if err := json.Unmarshal(oracleJSON, &f); err != nil {
		return nil, fmt.Errorf("oracle.json: %w", err)
	}
	return f.Designs, nil
}

// oracleDesigns lists every design any workload runs; --gen-oracle
// covers exactly these.
func oracleDesigns() []string {
	names := append([]string(nil), designs.Names()...)
	names = append(names, "philos-16", "scheduler-64", "scheduler-8")
	names = append(names, smallScaled...)
	return names
}

// check compares a finished run's exact state count and verdicts with
// the oracle row for key and returns the first difference, or "" when
// they agree.
func check(oracle map[string]*expected, key, states string, got []verdict) string {
	e, ok := oracle[key]
	if !ok {
		return "no oracle row for " + key
	}
	if states != e.States {
		return fmt.Sprintf("reachable states %s, oracle %s", states, e.States)
	}
	if len(got) != len(e.Verdicts) {
		return fmt.Sprintf("%d properties, oracle %d", len(got), len(e.Verdicts))
	}
	for i, v := range got {
		if want := e.Verdicts[i]; v != want {
			return fmt.Sprintf("%s pass=%v, oracle %s pass=%v", v.Name, v.Pass, want.Name, want.Pass)
		}
	}
	return ""
}

// genOracle recomputes the expected table in the reference configuration
// and writes it to path.
func genOracle(path string) error {
	f := oracleFile{Config: "reorder=off workers=1", Designs: map[string]*expected{}}
	for _, name := range oracleDesigns() {
		in, err := design(name, core.Options{Workers: 1, Reorder: "off"})
		if err != nil {
			return err
		}
		states, res, err := verifyDesign(in, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		e := &expected{States: states}
		for _, r := range res {
			if r.Err != nil {
				return fmt.Errorf("%s/%s: %w", name, r.Name, r.Err)
			}
			e.Verdicts = append(e.Verdicts, verdict{Name: r.Name, Pass: r.Pass})
		}
		f.Designs[name] = e
		fmt.Fprintf(os.Stderr, "oracle: %-14s %s states, %s\n", name, states, e.summary())
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func (e *expected) summary() string {
	var fails []string
	for _, v := range e.Verdicts {
		if !v.Pass {
			fails = append(fails, v.Name)
		}
	}
	sort.Strings(fails)
	return fmt.Sprintf("%d properties, failing: [%s]", len(e.Verdicts), strings.Join(fails, " "))
}
