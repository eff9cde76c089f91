// hsis is the interactive verification shell — the Go counterpart of
// the HSIS front end (paper Figure 1): it reads a design (Verilog or
// BLIF-MV), reads properties and fairness constraints (PIF), runs the
// CTL model checker and the language containment checker, simulates
// interactively, and prints bug reports with error traces.
//
// Commands (one per line; also usable as a batch script on stdin):
//
//	read_verilog <file.v> [top]     load a Verilog design
//	read_blif_mv <file.mv>          load a BLIF-MV design
//	read_pif <file.pif>             load properties and fairness
//	read_builtin <name>             load a bundled Table-1 design
//	print_stats                     design, engine + BDD statistics
//	compute_reach                   reachable-state count
//	check_ctl [name]                model-check CTL properties
//	lang_contain [name]             language containment checks
//	check_all                       run every property
//	explain_ctl <name>              unfold a failing CTL property (§6.2)
//	check_refine <spec.v> <top> <i=s>...   refinement vs an abstraction
//	quant_schedule                  print the early-quantification plan
//	reorder                         sift the variable order now
//	write_order <file>              save the current variable order
//	write_blif_mv <file> / write_dot <file>
//	bisim_classes                   bisimulation equivalence classes
//	sim_init / sim_step [n] / sim_step_with <expr> / sim_states [max] / sim_back
//	trace on [file.jsonl] / trace off
//	quit
//
// Flags: -image auto|monolithic|partitioned|clustered|iso selects the
// image-computation engine (iso compiles clusters once per class of
// isomorphic latch cones and instantiates replicas by variable
// permutation; auto picks it whenever a design has enough replication,
// and then never builds the monolithic relation); -reorder
// off|manual|auto selects the dynamic-reordering policy for designs
// loaded afterwards; -reorder-accel all|none|<list> toggles the sifting
// accelerations (interaction-matrix fast swaps, lower-bound aborts),
// -reorder-max-growth and -reorder-trigger tune the sift growth bound
// and the auto trigger factor; -order <file> seeds the variable order
// from a saved .order file (written by write_order); -stats prints BDD
// statistics after checking commands; -trace <file.jsonl> arms the
// telemetry layer for the whole session and writes one JSON event per
// line (fixpoint iterations, GCs, reorders, cache growth, node
// samples), printing the telemetry summary at exit; -profile <dir>
// captures cpu.pprof over the run and heap.pprof at exit. The flags
// hsis shares with table1 are bound by core.BindFlags.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hsis/internal/bdd"
	"hsis/internal/bisim"
	"hsis/internal/blifmv"
	"hsis/internal/core"
	"hsis/internal/ctl"
	"hsis/internal/debug"
	"hsis/internal/designs"
	"hsis/internal/network"
	"hsis/internal/quant"
	"hsis/internal/reach"
	"hsis/internal/refine"
	"hsis/internal/sim"
	"hsis/internal/telemetry"
	"hsis/internal/verilog"
)

type shell struct {
	w     *core.Workspace
	sim   *sim.Simulator
	out   *bufio.Writer
	stats bool
	opts  core.Options
}

// parseFlags parses the command line into a shell configuration: the
// shared verification flags (core.BindFlags) plus -stats and -order.
func parseFlags(args []string) (*shell, *core.CLIFlags, error) {
	fs := flag.NewFlagSet("hsis", flag.ContinueOnError)
	sh := &shell{}
	cf := core.BindFlags(fs, &sh.opts)
	fs.BoolVar(&sh.stats, "stats", false,
		"print BDD operation statistics after every checking command")
	fs.StringVar(&sh.opts.OrderFile, "order", "",
		"seed the variable order from a saved .order file (see write_order)")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	return sh, cf, nil
}

func main() {
	sh, cf, err := parseFlags(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	sh.out = bufio.NewWriter(os.Stdout)
	defer sh.out.Flush()
	if sh.stats {
		// -stats arms a metrics-only default scope: the kernel and the
		// fixpoint drivers feed the latency histograms (GC pause,
		// iteration, image, reorder) that WriteTable renders — the same
		// pipeline the daemon uses per job.
		telemetry.SetDefault(telemetry.NewScope(nil).WithMetrics(telemetry.NewMetricSet()))
	}
	if cf.Trace != "" {
		if err := sh.traceOn(cf.Trace); err != nil {
			fmt.Fprintln(os.Stderr, "hsis:", err)
			os.Exit(1)
		}
	}
	// A traced session prints its summary on every exit path (quit, EOF).
	defer func() {
		if telemetry.Enabled() {
			if err := sh.traceOff(); err != nil {
				fmt.Fprintln(sh.out, "error:", err)
			}
		}
	}()
	if cf.Profile != "" {
		stop, err := telemetry.StartProfiling(cf.Profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hsis:", err)
			os.Exit(1)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(sh.out, "error:", err)
			}
		}()
	}
	sc := bufio.NewScanner(os.Stdin)
	interactive := isTerminal()
	if interactive {
		fmt.Fprintln(sh.out, "HSIS — BDD-based formal verification shell (type 'help')")
	}
	for {
		if interactive {
			fmt.Fprint(sh.out, "hsis> ")
		}
		sh.out.Flush()
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if err := sh.exec(line); err != nil {
			fmt.Fprintln(sh.out, "error:", err)
		}
	}
}

func isTerminal() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

func (sh *shell) exec(line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		fmt.Fprintln(sh.out, "commands: read_verilog read_blif_mv read_pif read_builtin print_stats compute_reach check_ctl lang_contain check_all explain_ctl check_refine quant_schedule reorder write_order write_blif_mv write_dot bisim_classes sim_init sim_step sim_step_with sim_states sim_back trace quit")
		return nil
	case "trace":
		// trace on [file.jsonl] arms the telemetry layer mid-session;
		// trace off prints the summary and closes the trace file.
		if len(args) == 0 {
			if t := telemetry.T(); t != nil {
				fmt.Fprintf(sh.out, "tracing is on (%d events)\n", t.Events())
			} else {
				fmt.Fprintln(sh.out, "tracing is off")
			}
			return nil
		}
		switch args[0] {
		case "on":
			path := "trace.jsonl"
			if len(args) > 1 {
				path = args[1]
			}
			return sh.traceOn(path)
		case "off":
			return sh.traceOff()
		default:
			return fmt.Errorf("usage: trace on [file.jsonl] | trace off")
		}
	case "read_verilog":
		if len(args) < 1 {
			return fmt.Errorf("usage: read_verilog <file.v> [top]")
		}
		top := ""
		if len(args) > 1 {
			top = args[1]
		} else {
			top = strings.TrimSuffix(baseName(args[0]), ".v")
		}
		w, err := core.LoadVerilogFile(args[0], top, sh.opts)
		if err != nil {
			return err
		}
		sh.w = w
		sh.sim = nil
		fmt.Fprintf(sh.out, "loaded %s: %d latches, %d lines Verilog, %d lines BLIF-MV (read %v)\n",
			top, len(w.Net.Latches()), w.VerilogLines, w.BlifmvLines, w.ReadTime)
		return nil
	case "read_blif_mv":
		if len(args) != 1 {
			return fmt.Errorf("usage: read_blif_mv <file.mv>")
		}
		w, err := core.LoadBlifMVFile(args[0], sh.opts)
		if err != nil {
			return err
		}
		sh.w = w
		sh.sim = nil
		fmt.Fprintf(sh.out, "loaded %s: %d latches (read %v)\n", w.Name, len(w.Net.Latches()), w.ReadTime)
		return nil
	case "read_builtin":
		if len(args) != 1 {
			return fmt.Errorf("usage: read_builtin <%s>", strings.Join(designs.Names(), "|"))
		}
		d, err := designs.Get(args[0])
		if err != nil {
			return err
		}
		w, err := core.LoadVerilogString(d.Verilog, d.Name+".v", d.Top, sh.opts)
		if err != nil {
			return err
		}
		if err := w.AddPIFString(d.PIF, d.Name+".pif"); err != nil {
			return err
		}
		sh.w = w
		sh.sim = nil
		fmt.Fprintf(sh.out, "loaded builtin %s: %d latches, %d LC + %d CTL properties\n",
			d.Name, len(w.Net.Latches()), len(w.Automata), len(w.CTLProps))
		return nil
	case "read_pif":
		if err := sh.need(); err != nil {
			return err
		}
		if len(args) != 1 {
			return fmt.Errorf("usage: read_pif <file.pif>")
		}
		if err := sh.w.AddPIFFile(args[0]); err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "properties: %d LC, %d CTL; %s\n",
			len(sh.w.Automata), len(sh.w.CTLProps), sh.w.FC)
		return nil
	case "print_stats":
		if err := sh.need(); err != nil {
			return err
		}
		n := sh.w.Net
		fmt.Fprintf(sh.out, "design %s: %d latches, %d state bits, %d tables, %d BDD nodes in manager\n",
			sh.w.Name, len(n.Latches()), len(n.PSBits()), len(n.Conjuncts()), n.Manager().Size())
		fmt.Fprintf(sh.out, "image engine: %s (requested %s)\n",
			reach.Resolve(n, sh.w.Engine()), sh.w.Engine())
		if n.TBuilt() {
			fmt.Fprintf(sh.out, "transition relation: %d BDD nodes\n", n.Manager().NodeCount(n.T))
		} else {
			fmt.Fprintln(sh.out, "transition relation: not built")
		}
		if s := n.IsoSummaryInfo(); s.Classes > 0 {
			fmt.Fprintf(sh.out, "isomorphic cones: %d classes covering %d/%d latches, sizes %v\n",
				s.Classes, s.Replicated, len(n.Latches()), s.Sizes)
		}
		n.Manager().Stats().WriteTable(sh.out)
		if t := telemetry.T(); t != nil {
			fmt.Fprintf(sh.out, "  %-22s %d events\n", "telemetry", t.Events())
		}
		fmt.Fprintln(sh.out, n.Model().FindNondeterminism())
		return nil
	case "compute_reach":
		if err := sh.need(); err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "# reached states: %s\n", sh.w.ReachableStatesExact())
		sh.maybeStats()
		return nil
	case "check_ctl":
		if err := sh.need(); err != nil {
			return err
		}
		for _, p := range sh.w.CTLProps {
			if len(args) > 0 && p.Name != args[0] {
				continue
			}
			sh.report(sh.w.CheckCTL(p))
		}
		sh.maybeStats()
		return nil
	case "lang_contain":
		if err := sh.need(); err != nil {
			return err
		}
		for _, a := range sh.w.Automata {
			if len(args) > 0 && a.Name != args[0] {
				continue
			}
			sh.report(sh.w.CheckLC(a))
		}
		sh.maybeStats()
		return nil
	case "check_all":
		if err := sh.need(); err != nil {
			return err
		}
		for _, r := range sh.w.VerifyAll() {
			sh.report(r)
		}
		sh.maybeStats()
		return nil
	case "explain_ctl":
		// the model checker debugger (paper §6.2): unfold a failing
		// formula step by step
		if err := sh.need(); err != nil {
			return err
		}
		if len(args) != 1 {
			return fmt.Errorf("usage: explain_ctl <property-name>")
		}
		for _, p := range sh.w.CTLProps {
			if p.Name != args[0] {
				continue
			}
			checker := ctl.NewForNetwork(sh.w.Net, sh.w.FC)
			v, err := checker.Check(p.Formula)
			if err != nil {
				return err
			}
			if v.Pass {
				fmt.Fprintf(sh.out, "%s passes — nothing to explain\n", p.Name)
				return nil
			}
			start, ok := sh.w.Net.PickState(v.FailingInit)
			if !ok {
				return fmt.Errorf("no failing initial state")
			}
			stepper := debug.NewStepper(checker, nil)
			stepper.Describe = func(st debug.State) string { return sh.w.DescribeState(st) }
			rep, err := stepper.ExplainFailure(p.Formula, debug.State(start))
			if err != nil {
				return err
			}
			for _, line := range rep.Lines {
				fmt.Fprintln(sh.out, " ", line)
			}
			return nil
		}
		return fmt.Errorf("no CTL property named %q", args[0])
	case "sim_step_with":
		// constrained stepping: pin inputs or intermediate signals with
		// a propositional expression, e.g. sim_step_with go=1
		if sh.sim == nil {
			return fmt.Errorf("run sim_init first")
		}
		if len(args) == 0 {
			return fmt.Errorf("usage: sim_step_with <propositional expression>")
		}
		f, err := ctl.Parse(strings.Join(args, " "))
		if err != nil {
			return err
		}
		if !ctl.IsPropositional(f) {
			return fmt.Errorf("constraint must be propositional")
		}
		// resolve atoms directly against variables (inputs and
		// intermediates included), not state labels
		n := sh.w.Net
		constraint, err := ctl.EvalProp(n.Manager(), f, func(name, value string) (bdd.Ref, error) {
			v := n.VarByName(name)
			if v == nil {
				return bdd.False, fmt.Errorf("unknown variable %q", name)
			}
			mv := n.Model().Var(name)
			if mv == nil {
				return bdd.False, fmt.Errorf("%q is not a model variable", name)
			}
			idx := mv.ValueIndex(value)
			if idx < 0 {
				return bdd.False, fmt.Errorf("%q is not a value of %s", value, name)
			}
			return v.Eq(idx), nil
		})
		if err != nil {
			return err
		}
		sh.sim.StepWith(constraint)
		fmt.Fprintf(sh.out, "after step %d: %.0f states\n", sh.sim.Steps(), sh.sim.Count())
		return nil
	case "check_refine":
		// hierarchical verification: does the loaded design refine the
		// given abstract specification over the observation pairs?
		if err := sh.need(); err != nil {
			return err
		}
		if len(args) < 3 {
			return fmt.Errorf("usage: check_refine <spec.v> <specTop> <implVar=specVar>...")
		}
		data, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		sf, err := verilog.Parse(string(data), args[0])
		if err != nil {
			return err
		}
		specDesign, err := verilog.Compile([]*verilog.SourceFile{sf}, args[1])
		if err != nil {
			return err
		}
		specFlat, err := blifmv.Flatten(specDesign)
		if err != nil {
			return err
		}
		var obs [][2]string
		for _, pair := range args[2:] {
			eq := strings.IndexByte(pair, '=')
			if eq <= 0 {
				return fmt.Errorf("bad observation pair %q (want implVar=specVar)", pair)
			}
			obs = append(obs, [2]string{pair[:eq], pair[eq+1:]})
		}
		res, err := refine.Check(sh.w.Net.Model(), specFlat, obs, network.Options{})
		if err != nil {
			return err
		}
		if res.Holds {
			fmt.Fprintf(sh.out, "REFINES: %s is a refinement of %s (%d iterations)\n",
				sh.w.Name, args[1], res.Iterations)
		} else {
			fmt.Fprintf(sh.out, "FAILS: unmatched implementation initial state: %v\n", res.Unmatched)
		}
		return nil
	case "quant_schedule":
		if err := sh.need(); err != nil {
			return err
		}
		n := sh.w.Net
		sched := quant.Plan(n.Conjuncts(), n.NonStateBits(), n.Heuristic())
		fmt.Fprint(sh.out, sched)
		return nil
	case "reorder":
		if err := sh.need(); err != nil {
			return err
		}
		res := sh.w.SiftNow()
		fmt.Fprintf(sh.out, "sifted: %d -> %d live nodes (%d swaps, %d passes; %d fast-swaps, %d lb-aborts)\n",
			res.Before, res.After, res.Swaps, res.Passes,
			res.InteractionSkips, res.LowerBoundAborts)
		return nil
	case "write_order":
		if err := sh.need(); err != nil {
			return err
		}
		if len(args) != 1 {
			return fmt.Errorf("usage: write_order <file.order>")
		}
		if err := sh.w.SaveOrder(args[0]); err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "wrote variable order to %s\n", args[0])
		return nil
	case "write_blif_mv":
		if err := sh.need(); err != nil {
			return err
		}
		if len(args) != 1 {
			return fmt.Errorf("usage: write_blif_mv <file.mv>")
		}
		f, err := os.Create(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		if err := blifmv.WriteModel(f, sh.w.Net.Model()); err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "wrote flat model to %s\n", args[0])
		return nil
	case "write_dot":
		if err := sh.need(); err != nil {
			return err
		}
		if len(args) != 1 {
			return fmt.Errorf("usage: write_dot <file.dot>")
		}
		f, err := os.Create(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		n := sh.w.Net
		names := make([]string, n.Manager().NumVars())
		for _, v := range n.Space().Vars() {
			for i, b := range v.Bits() {
				names[b] = fmt.Sprintf("%s[%d]", v.Name(), i)
			}
		}
		roots := map[string]bdd.Ref{"Init": n.Init}
		if n.TBuilt() {
			roots["T"] = n.T
		}
		if err := n.Manager().WriteDot(f, names, roots); err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "wrote BDD dump to %s\n", args[0])
		return nil
	case "bisim_classes":
		if err := sh.need(); err != nil {
			return err
		}
		n := sh.w.Net
		// observe every latch value — classical machine equivalence
		var obs []bdd.Ref
		for _, l := range n.Latches() {
			for v := 0; v < l.PS.Card(); v++ {
				obs = append(obs, l.PS.Eq(v))
			}
		}
		rel := bisim.Compute(n, obs)
		domain := bdd.True
		for _, l := range n.Latches() {
			domain = n.Manager().And(domain, l.PS.Domain())
		}
		fmt.Fprintf(sh.out, "bisimulation: %d classes over %d valid states (%d refinement iterations)\n",
			rel.NumClasses(domain), int(n.Manager().SatCount(domain, len(n.PSBits()))), rel.Iterations)
		return nil
	case "sim_init":
		if err := sh.need(); err != nil {
			return err
		}
		sh.sim = sim.New(sh.w.Net)
		fmt.Fprintf(sh.out, "simulator at initial states (%.0f states)\n", sh.sim.Count())
		return nil
	case "sim_step":
		if sh.sim == nil {
			return fmt.Errorf("run sim_init first")
		}
		n := 1
		if len(args) > 0 {
			var err error
			if n, err = strconv.Atoi(args[0]); err != nil {
				return err
			}
		}
		for i := 0; i < n; i++ {
			sh.sim.Step()
		}
		fmt.Fprintf(sh.out, "after step %d: %.0f states\n", sh.sim.Steps(), sh.sim.Count())
		return nil
	case "sim_states":
		if sh.sim == nil {
			return fmt.Errorf("run sim_init first")
		}
		max := 10
		if len(args) > 0 {
			var err error
			if max, err = strconv.Atoi(args[0]); err != nil {
				return err
			}
		}
		for _, st := range sh.sim.States(max) {
			var parts []string
			for _, l := range sh.w.Net.Latches() {
				parts = append(parts, fmt.Sprintf("%s=%s", l.Src.Output, st[l.Src.Output]))
			}
			fmt.Fprintln(sh.out, " ", strings.Join(parts, " "))
		}
		return nil
	case "sim_back":
		if sh.sim == nil {
			return fmt.Errorf("run sim_init first")
		}
		if !sh.sim.Back() {
			return fmt.Errorf("already at the initial states")
		}
		fmt.Fprintf(sh.out, "after step %d: %.0f states\n", sh.sim.Steps(), sh.sim.Count())
		return nil
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

// maybeStats prints the BDD manager's operation counters (unique-table
// size, op-cache hit rates including the quantifier and and-exists
// caches) when the shell was started with -stats. It shares the
// formatter with print_stats and the telemetry summary.
func (sh *shell) maybeStats() {
	if sh.stats && sh.w != nil {
		sh.w.Net.Manager().Stats().WriteTable(sh.out)
	}
}

// traceOn arms the process-default telemetry scope, writing JSONL
// events to path and sampling live-node gauges in the background. A
// MetricSet already armed by -stats carries over, so its histograms
// keep accumulating across trace on/off.
func (sh *shell) traceOn(path string) error {
	if telemetry.Enabled() {
		return fmt.Errorf("tracing is already on (trace off first)")
	}
	tr, err := telemetry.OpenTrace(path)
	if err != nil {
		return err
	}
	sc := telemetry.NewScope(tr)
	if old := telemetry.Default(); old != nil && old.Metrics() != nil {
		sc.WithMetrics(old.Metrics())
	}
	sc.StartSampler(0)
	telemetry.SetDefault(sc)
	fmt.Fprintf(sh.out, "tracing to %s\n", path)
	return nil
}

// traceOff disarms the tracer, stamps the final BDD statistics into the
// trace, prints the end-of-run summary and closes the trace file. When
// -stats armed a MetricSet, a metrics-only scope stays armed so later
// work keeps feeding the histograms.
func (sh *shell) traceOff() error {
	sc := telemetry.SetDefault(nil)
	if sc == nil || sc.Tracer() == nil {
		if sc != nil {
			telemetry.SetDefault(sc)
		}
		return fmt.Errorf("tracing is not on")
	}
	sc.StopSampler()
	if ms := sc.Metrics(); ms != nil {
		telemetry.SetDefault(telemetry.NewScope(nil).WithMetrics(ms))
	}
	tr := sc.Tracer()
	statsBlock := ""
	if sh.w != nil {
		st := sh.w.Net.Manager().Stats()
		// Final timeline point: small runs may never cross a kernel
		// publish checkpoint, and the summary's last sample should be
		// the end-of-session state either way.
		tr.RecordSample(int64(st.LiveNodes), int64(st.PeakLive))
		tr.Emit("bdd.stats", st.TelemetryFields()...)
		statsBlock = st.Table()
	}
	fmt.Fprint(sh.out, tr.Summary(statsBlock))
	return tr.Close()
}

func (sh *shell) need() error {
	if sh.w == nil {
		return fmt.Errorf("no design loaded (read_verilog / read_blif_mv / read_builtin)")
	}
	return nil
}

func (sh *shell) report(r *core.PropertyResult) {
	status := "PASS"
	if r.Err != nil {
		status = "ERROR"
	} else if !r.Pass {
		status = "FAIL"
	}
	extra := ""
	if r.UsedInvariantPath {
		extra = " [invariant fast path]"
	}
	if r.EarlyDetected {
		extra += " [early failure detection]"
	}
	fmt.Fprintf(sh.out, "%-5s %-20s (%s) %v%s\n", status, r.Name, r.Kind, r.Time, extra)
	if r.Err != nil {
		fmt.Fprintln(sh.out, "      ", r.Err)
	}
	if !r.Pass && r.Err == nil {
		fmt.Fprint(sh.out, sh.w.BugReport(r))
	}
}

func baseName(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
