package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newTestShell() (*shell, *bytes.Buffer) {
	var buf bytes.Buffer
	return &shell{out: bufio.NewWriter(&buf)}, &buf
}

func run(t *testing.T, sh *shell, buf *bytes.Buffer, lines ...string) string {
	t.Helper()
	for _, l := range lines {
		if err := sh.exec(l); err != nil {
			t.Fatalf("%s: %v", l, err)
		}
	}
	sh.out.Flush()
	return buf.String()
}

func TestShellBuiltinFlow(t *testing.T) {
	sh, buf := newTestShell()
	out := run(t, sh, buf,
		"read_builtin pingpong",
		"print_stats",
		"compute_reach",
		"check_ctl mutex",
		"lang_contain no_double_hit",
	)
	for _, want := range []string{
		"loaded builtin pingpong",
		"# reached states: 4",
		"PASS",
		"mutex",
		"no_double_hit",
		"apply cache", // the unified statistics table
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestShellTraceCommand(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl")
	sh, buf := newTestShell()
	out := run(t, sh, buf,
		"read_builtin pingpong",
		"trace on "+trace,
		"compute_reach",
		"trace", // status query
		"trace off",
	)
	for _, want := range []string{
		"tracing to " + trace,
		"tracing is on",
		"telemetry summary",
		"reach.iter",
		"node growth",
		"apply cache", // the stats block rides along in the summary
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"ev":"reach.start"`) ||
		!strings.Contains(string(data), `"ev":"bdd.stats"`) {
		t.Fatalf("trace file missing events:\n%s", data)
	}
	// Double arming and double disarming both error.
	run(t, sh, buf, "trace on "+trace)
	if err := sh.exec("trace on " + trace); err == nil {
		t.Error("second trace on should error")
	}
	run(t, sh, buf, "trace off")
	if err := sh.exec("trace off"); err == nil {
		t.Error("trace off when off should error")
	}
}

func TestShellFailingPropertyPrintsTrace(t *testing.T) {
	sh, buf := newTestShell()
	out := run(t, sh, buf, "read_builtin philos", "lang_contain eat_live")
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "cycle") {
		t.Fatalf("expected a failing trace:\n%s", out)
	}
	if !strings.Contains(out, "source locations:") {
		t.Fatalf("expected source-level annotations in the bug report:\n%s", out)
	}
}

func TestShellSimulatorFlow(t *testing.T) {
	sh, buf := newTestShell()
	out := run(t, sh, buf,
		"read_builtin pingpong",
		"sim_init", "sim_step 2", "sim_states 5", "sim_back",
	)
	if !strings.Contains(out, "simulator at initial states") {
		t.Fatalf("output:\n%s", out)
	}
	if !strings.Contains(out, "after step 1") {
		t.Fatalf("sim_back should report step 1:\n%s", out)
	}
}

func TestShellErrors(t *testing.T) {
	sh, _ := newTestShell()
	for _, line := range []string{
		"print_stats",     // no design
		"check_all",       // no design
		"sim_step",        // no sim
		"read_builtin zz", // unknown design
		"read_verilog",    // missing arg
		"frobnicate",      // unknown command
		"read_blif_mv /nonexistent/file.mv",
	} {
		if err := sh.exec(line); err == nil {
			t.Errorf("%q should error", line)
		}
	}
}

func TestShellWriteCommands(t *testing.T) {
	dir := t.TempDir()
	sh, buf := newTestShell()
	mv := filepath.Join(dir, "out.mv")
	dot := filepath.Join(dir, "out.dot")
	out := run(t, sh, buf,
		"read_builtin pingpong",
		"write_blif_mv "+mv,
		"write_dot "+dot,
		"bisim_classes",
	)
	if !strings.Contains(out, "bisimulation:") {
		t.Fatalf("output:\n%s", out)
	}
	data, err := os.ReadFile(mv)
	if err != nil || !strings.Contains(string(data), ".model pingpong") {
		t.Fatalf("written BLIF-MV wrong: %v", err)
	}
	data, err = os.ReadFile(dot)
	if err != nil || !strings.Contains(string(data), "digraph") {
		t.Fatalf("written dot wrong: %v", err)
	}
}

func TestShellReadFiles(t *testing.T) {
	dir := t.TempDir()
	vf := filepath.Join(dir, "toggle.v")
	os.WriteFile(vf, []byte(`
module toggle(clk, q);
  input clk;
  output q;
  reg q;
  initial q = 0;
  always @(posedge clk) q <= !q;
endmodule
`), 0o644)
	pf := filepath.Join(dir, "props.pif")
	os.WriteFile(pf, []byte("ctl alternate AG(q=0 -> AX q=1)\n"), 0o644)

	sh, buf := newTestShell()
	out := run(t, sh, buf,
		"read_verilog "+vf+" toggle",
		"read_pif "+pf,
		"check_all",
	)
	if !strings.Contains(out, "PASS") || !strings.Contains(out, "alternate") {
		t.Fatalf("output:\n%s", out)
	}

	// and via BLIF-MV
	mv := filepath.Join(dir, "toggle.mv")
	run(t, sh, buf, "write_blif_mv "+mv)
	sh2, buf2 := newTestShell()
	out2 := run(t, sh2, buf2, "read_blif_mv "+mv, "compute_reach")
	if !strings.Contains(out2, "# reached states: 2") {
		t.Fatalf("output:\n%s", out2)
	}
}

func TestShellCheckRefine(t *testing.T) {
	dir := t.TempDir()
	impl := filepath.Join(dir, "impl.v")
	os.WriteFile(impl, []byte(`
module rr(clk, g);
  input clk;
  output g;
  reg g;
  initial g = 0;
  always @(posedge clk) g <= !g;
endmodule
`), 0o644)
	spec := filepath.Join(dir, "spec.v")
	os.WriteFile(spec, []byte(`
module any(clk, g);
  input clk;
  output g;
  reg g;
  initial g = 0;
  initial g = 1;
  always @(posedge clk) g <= $ND(0, 1);
endmodule
`), 0o644)
	sh, buf := newTestShell()
	out := run(t, sh, buf,
		"read_verilog "+impl+" rr",
		"check_refine "+spec+" any g=g",
	)
	if !strings.Contains(out, "REFINES") {
		t.Fatalf("output:\n%s", out)
	}
	// reverse direction fails
	sh2, buf2 := newTestShell()
	out2 := run(t, sh2, buf2,
		"read_verilog "+spec+" any",
		"check_refine "+impl+" rr g=g",
	)
	if !strings.Contains(out2, "FAILS") {
		t.Fatalf("output:\n%s", out2)
	}
	// bad pair syntax
	if err := sh.exec("check_refine " + spec + " any gg"); err == nil {
		t.Fatal("bad observation pair should error")
	}
}

func TestShellExplainCTL(t *testing.T) {
	sh, buf := newTestShell()
	out := run(t, sh, buf, "read_builtin philos", "explain_ctl progress", "explain_ctl mutex")
	if !strings.Contains(out, "fails") || !strings.Contains(out, "antecedent holds") {
		t.Fatalf("explain output:\n%s", out)
	}
	if !strings.Contains(out, "passes — nothing to explain") {
		t.Fatalf("passing property should short-circuit:\n%s", out)
	}
	if err := sh.exec("explain_ctl zz"); err == nil {
		t.Fatal("unknown property should error")
	}
}

func TestShellSimStepWith(t *testing.T) {
	sh, buf := newTestShell()
	out := run(t, sh, buf,
		"read_builtin gigamax",
		"sim_init",
		"sim_step_with nr0=WR * nr1=RNONE",
		"sim_states 5",
	)
	if !strings.Contains(out, "after step 1") {
		t.Fatalf("output:\n%s", out)
	}
	// constrained: only cpu0 requested a write
	if !strings.Contains(out, "req0=WR") {
		t.Fatalf("constraint not applied:\n%s", out)
	}
	if strings.Contains(out, "req1=WR") || strings.Contains(out, "req1=RD") {
		t.Fatalf("req1 should stay RNONE:\n%s", out)
	}
	if err := sh.exec("sim_step_with EF x"); err == nil {
		t.Fatal("temporal constraint should be rejected")
	}
	if err := sh.exec("sim_step_with zz=1"); err == nil {
		t.Fatal("unknown variable should error")
	}
}

// TestShellScaledDesignSkipsT drives a replicated design: auto resolves
// to the iso engine, print_stats says so and reports T as not built,
// write_dot leaves the T root out, and checking every property still
// never builds T.
func TestShellScaledDesignSkipsT(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "out.dot")
	sh, buf := newTestShell()
	out := run(t, sh, buf,
		"read_builtin philos-4",
		"print_stats",
		"write_dot "+dot,
		"check_all",
		"print_stats",
	)
	for _, want := range []string{
		"image engine: iso (requested auto)",
		"transition relation: not built",
	} {
		if strings.Count(out, want) != 2 {
			t.Errorf("output should say %q before and after check_all:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "root_Init") || strings.Contains(string(data), "root_T ") {
		t.Fatalf("dot roots should be Init only:\n%s", data)
	}

	sh, buf = newTestShell()
	out = run(t, sh, buf, "read_builtin pingpong", "print_stats")
	if !strings.Contains(out, "image engine: monolithic (requested auto)") ||
		!strings.Contains(out, "transition relation: ") || strings.Contains(out, "not built") {
		t.Fatalf("pingpong should build T under auto:\n%s", out)
	}
}

// TestShellIsoPlanLine: after reachability on scheduler-64, print_stats
// shows the shape of the iso plans — the cross-replica merge leaves one
// cluster, so each direction replays a single step.
func TestShellIsoPlanLine(t *testing.T) {
	sh, buf := newTestShell()
	out := run(t, sh, buf, "read_builtin scheduler-64", "print_stats")
	if strings.Contains(out, "iso plan:") {
		t.Fatalf("print_stats compiled the iso plans before any image:\n%s", out)
	}
	out = run(t, sh, buf, "compute_reach", "print_stats")
	for _, want := range []string{
		"isomorphic cones: 2 classes covering 128/128 latches",
		"iso plan: clusters 1 (largest ",
		" BDD nodes), image steps 1, preimage steps 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestParseFlags checks the command line goes through the binder shared
// with table1, and that -workers is not a flag.
func TestParseFlags(t *testing.T) {
	sh, cf, err := parseFlags([]string{
		"-image", "iso", "-reorder", "auto", "-reorder-accel", "lowerbound",
		"-reorder-max-growth", "1.5", "-reorder-trigger", "3",
		"-trace", "run.jsonl", "-profile", "prof", "-stats", "-order", "x.order",
	})
	if err != nil {
		t.Fatal(err)
	}
	o := sh.opts
	if o.Image != "iso" || o.Reorder != "auto" || o.ReorderAccel != "lowerbound" ||
		o.ReorderMaxGrowth != 1.5 || o.ReorderTrigger != 3 || o.OrderFile != "x.order" {
		t.Fatalf("options not bound: %+v", o)
	}
	if !sh.stats || cf.Trace != "run.jsonl" || cf.Profile != "prof" {
		t.Fatalf("stats/trace/profile not bound: stats=%v %+v", sh.stats, cf)
	}
	sh, _, err = parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sh.opts.Image != "auto" || sh.opts.Reorder != "off" || sh.opts.ReorderAccel != "all" {
		t.Fatalf("defaults: %+v", sh.opts)
	}
	if _, _, err := parseFlags([]string{"-workers", "2"}); err == nil {
		t.Fatal("-workers was accepted")
	}
}

// TestShellReorder sifts a loaded design by hand: the report carries the
// swap and acceleration counters, and the sifted order verifies the same.
func TestShellReorder(t *testing.T) {
	sh, buf := newTestShell()
	out := run(t, sh, buf,
		"read_builtin pingpong",
		"reorder",
		"compute_reach",
	)
	if !strings.Contains(out, "sifted:") || !strings.Contains(out, "lb-aborts)") {
		t.Fatalf("reorder report missing:\n%s", out)
	}
	if strings.Contains(out, "sym-pairs") {
		t.Fatalf("reorder report still mentions symmetric pairs:\n%s", out)
	}
	if !strings.Contains(out, "# reached states: 4") {
		t.Fatalf("sifted order changed the reachable states:\n%s", out)
	}
	if err := sh.exec("workers 2"); err == nil {
		t.Fatal("workers was accepted as a shell command")
	}
}
