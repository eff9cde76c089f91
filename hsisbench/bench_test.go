package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"hsis/internal/core"
	"hsis/internal/server"
)

// TestOracleFlagsDcnewAutoSift is the oracle's known-bad reproducer:
// under Reorder "auto" dcnew returns FAIL for a property that passes with
// reordering off, so a pass over it must count as failed.
func TestOracleFlagsDcnewAutoSift(t *testing.T) {
	oracle, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	in, err := design("dcnew", core.Options{Workers: 1, Reorder: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	if p := runPass([]input{in}, oracle, false); p.failed == 0 {
		t.Fatal("dcnew under auto sifting agreed with the oracle; expected the known wrong verdict")
	}
}

// TestOracleAcceptsReferenceAnswers checks that runs the oracle must
// agree with — reordering off at both worker counts, traced or not —
// count no failure.
func TestOracleAcceptsReferenceAnswers(t *testing.T) {
	oracle, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	var ins []input
	for _, name := range []string{"pingpong", "dcnew", "philos-4"} {
		for _, w := range []int{1, 2} {
			in, err := design(name, core.Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			ins = append(ins, in)
		}
	}
	for _, traced := range []bool{false, true} {
		if p := runPass(ins, oracle, traced); p.failed != 0 {
			t.Fatalf("traced=%v: %d of %d designs disagreed with the oracle", traced, p.failed, len(ins))
		}
	}
}

// TestJudgeJobChecksServerResults checks the hsisd path of the oracle:
// a job result agreeing with the row passes; a flipped verdict, a wrong
// state count or a property error fails.
func TestJudgeJobChecksServerResults(t *testing.T) {
	oracle, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	row := oracle["philos"]
	result := func() *server.Result {
		res := &server.Result{ReachedStates: row.States}
		for _, v := range row.Verdicts {
			res.Properties = append(res.Properties, server.PropertyVerdict{Name: v.Name, Pass: v.Pass})
		}
		return res
	}
	if why := judgeJob("philos", oracle, result()); why != "" {
		t.Fatalf("agreeing result rejected: %s", why)
	}
	flipped := result()
	flipped.Properties[0].Pass = !flipped.Properties[0].Pass
	wrongCount := result()
	wrongCount.ReachedStates += "0"
	errored := result()
	errored.Properties[1].Error = "boom"
	for name, res := range map[string]*server.Result{"flipped": flipped, "count": wrongCount, "error": errored} {
		if judgeJob("philos", oracle, res) == "" {
			t.Errorf("%s: accepted a result that disagrees with the oracle", name)
		}
	}
}

// TestOracleCoversEveryDesign checks the checked-in table has a row for
// every design a workload can run.
func TestOracleCoversEveryDesign(t *testing.T) {
	oracle, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range oracleDesigns() {
		if oracle[name] == nil {
			t.Errorf("no oracle row for %s", name)
		}
	}
}

// TestQuantile pins the median to Python's statistics.median.
func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
		{nil, 0},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestCompareRefusesDifferentStamps checks records measured on different
// hosts or worker counts are not compared, while a commit change is.
func TestCompareRefusesDifferentStamps(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs ...record) string {
		path := filepath.Join(dir, name)
		for _, r := range recs {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := appendLine(path, line); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	st := stamp{Workload: "table1", GOMAXPROCS: 2, NumCPU: 2, GoVersion: "go1", Commit: "a", Workers: 2}
	rec := func(s stamp, v float64) record {
		return record{Stamp: s, Metrics: map[string]float64{"pass_s": v}}
	}
	base := write("base", rec(st, 1), rec(st, 3))
	other := st
	other.Commit = "b"
	cand := write("cand", rec(other, 2))
	var out bytes.Buffer
	if err := compareRecords(&out, base, cand); err != nil {
		t.Fatalf("compare across commits: %v", err)
	}
	if !strings.Contains(out.String(), "pass_s") {
		t.Errorf("compare output lacks pass_s:\n%s", out.String())
	}
	other.Workers = 1
	bad := write("bad", rec(other, 2))
	if err := compareRecords(&out, base, bad); err == nil {
		t.Error("compare accepted records with different worker counts")
	}
}

// TestRoundsKeepMixAndSlots checks that every seed deals each round with
// roundMix's composition and the heavy and scaled-miss jobs at the same
// evenly spaced slots, so the offered load differs between seeds only in
// the light jobs' order, the tenants and the jitter.
func TestRoundsKeepMixAndSlots(t *testing.T) {
	var want []string
	for _, seed := range []int64{1, 2, 3} {
		g, err := newMixGen(seed)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			round := g.nextRound()
			if len(round) != len(roundMix) {
				t.Fatalf("seed %d round %d: %d jobs, want %d", seed, r, len(round), len(roundMix))
			}
			heavy := 0
			var slots []string
			for i, s := range round {
				heavy += boolInt(s.heavy)
				if s.spaced {
					slots = append(slots, fmt.Sprintf("%d:%s", i, s.key))
				}
			}
			if heavy != 2 || len(slots) != 4 {
				t.Fatalf("seed %d round %d: %d heavy and %d spaced jobs, want 2 and 4", seed, r, heavy, len(slots))
			}
			got := strings.Join(slots, " ")
			if seed == 1 {
				want = append(want, got)
			} else if got != want[r] {
				t.Fatalf("seed %d round %d: spaced slots %q, seed 1 had %q", seed, r, got, want[r])
			}
		}
	}
	if want[0] != "0:mdlc2 5:philos-3 10:scheduler 15:philos-4" {
		t.Fatalf("round 0 spaced slots %q", want[0])
	}
}
