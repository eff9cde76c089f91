// Package core is the top-level façade of the HSIS reproduction: it
// wires the Verilog front end, the BLIF-MV compiler, the CTL model
// checker, the language containment engine, and the debugger into the
// verification flow of the paper's Figure 1 (HDL → BLIF-MV + PIF →
// design verification → bug report → debugger).
package core

import (
	"fmt"
	"math/big"
	"os"
	"strings"
	"sync"
	"time"

	"hsis/internal/abstract"
	"hsis/internal/blifmv"
	"hsis/internal/ctl"
	"hsis/internal/debug"
	"hsis/internal/fair"
	"hsis/internal/lc"
	"hsis/internal/network"
	"hsis/internal/order"
	"hsis/internal/pif"
	"hsis/internal/reach"
	"hsis/internal/reorder"
	"hsis/internal/sys"
	"hsis/internal/telemetry"
)

// Options tunes the verification flow.
type Options struct {
	// AppendedOrder uses the naive declaration-order variable order
	// instead of the interacting-FSM static order (Ablation E).
	AppendedOrder bool
	// EarlySteps enables early failure detection with the given depth
	// for language containment checks.
	EarlySteps int
	// DisableInvariantFastPath forces the general CTL route even for
	// AG(propositional) formulas (Ablation B).
	DisableInvariantFastPath bool
	// ConeOfInfluence abstracts each property to the logic that can
	// influence its atoms (plus the fairness constraints' support)
	// before checking — the automatic abstraction of paper §8 item 2.
	ConeOfInfluence bool
	// Reorder selects the dynamic variable reordering policy: "" or
	// "off" (none), "manual" (only explicit SiftNow calls), "auto"
	// (growth-triggered block sifting at reachability safe points).
	// Every sift runs reorder.Sift's one configuration.
	Reorder string
	// OrderFile, when non-empty, seeds the variable order from a saved
	// .order file if it exists and matches the model; otherwise the
	// static interacting-FSM order is used. SaveOrder writes the file.
	OrderFile string
	// Workers is accepted and ignored. The BDD kernel is sequential and
	// VerifyAll checks properties one after another whatever its value;
	// parallelism comes from running jobs on separate workspaces (the
	// hsisd job pool). The field stays so callers that set it keep
	// compiling.
	Workers int
	// Telemetry, when non-nil, is installed as the observability scope
	// of every manager the workspace builds (including cone-of-influence
	// sub-workspaces), so traces, latency histograms and the flight
	// recorder attach to this workspace instead of the process default.
	// The daemon sets one scope per job; the CLIs leave it nil and arm
	// the process default.
	Telemetry *telemetry.Scope
}

// Workspace is a loaded design together with its properties.
type Workspace struct {
	Name string
	Net  *network.Network
	// FC is the design-level fairness (from PIF fairness blocks).
	FC *fair.Constraints

	CTLProps []pif.CTLProp
	Automata []*pif.AutSpec

	// fairSpecs keeps the syntactic fairness constraints so abstracted
	// (cone-of-influence) networks can recompile them.
	fairSpecs []pif.FairSpec
	// coneCache reuses reduced workspaces across properties with the
	// same observation support. coneMu guards it against Interrupt,
	// which a daemon calls from another goroutine.
	coneCache map[string]*Workspace
	coneMu    sync.Mutex

	// Source metrics for Table 1.
	VerilogLines int
	BlifmvLines  int
	ReadTime     time.Duration // parse BLIF-MV + build transition relation

	opts Options
}

// Validate reports an unknown reorder policy, the one string-typed
// option. Instantiate checks it too; the daemon calls Validate at
// submission so a bad request never reaches a worker.
func (o Options) Validate() error {
	switch o.Reorder {
	case "", "off", "manual", "auto":
		return nil
	}
	return fmt.Errorf("core: unknown reorder policy %q (want off, manual or auto)", o.Reorder)
}

// networkOptions derives the symbolic-compilation options shared by a
// workspace's full network and its cone-of-influence sub-networks.
func (o Options) networkOptions() network.Options {
	return network.Options{
		AutoReorder: o.Reorder == "auto",
		Telemetry:   o.Telemetry,
	}
}

// LoadVerilogString compiles Verilog source text into a workspace.
// It is CompileVerilog + Instantiate in one step, for callers that do
// not need to share the frontend artifact across workspaces.
func LoadVerilogString(src, file, top string, opts Options) (*Workspace, error) {
	d, err := CompileVerilog(src, file, top)
	if err != nil {
		return nil, err
	}
	return d.Instantiate(opts)
}

// LoadVerilogFile compiles a .v file into a workspace.
func LoadVerilogFile(path, top string, opts Options) (*Workspace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadVerilogString(string(data), path, top, opts)
}

// LoadBlifMVString parses BLIF-MV text, flattens it and compiles the
// symbolic network, timing the read+build phase as the paper's
// "time read blif mv" column does. It is CompileBlifMV + Instantiate in
// one step, for callers that do not need to share the frontend artifact
// across workspaces.
func LoadBlifMVString(src, file string, opts Options) (*Workspace, error) {
	d, err := CompileBlifMV(src, file)
	if err != nil {
		return nil, err
	}
	return d.Instantiate(opts)
}

// LoadBlifMVFile loads a .mv file.
func LoadBlifMVFile(path string, opts Options) (*Workspace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadBlifMVString(string(data), path, opts)
}

// AddPIFString parses a PIF property file into the workspace: CTL
// properties, property automata, and design fairness constraints.
func (w *Workspace) AddPIFString(src, file string) error {
	f, err := pif.ParseString(src, file)
	if err != nil {
		return err
	}
	fc, err := lc.CompileFairness(w.Net, f.Fairness)
	if err != nil {
		return err
	}
	w.FC = fair.Merge(w.FC, fc)
	w.fairSpecs = append(w.fairSpecs, f.Fairness...)
	w.CTLProps = append(w.CTLProps, f.CTL...)
	w.Automata = append(w.Automata, f.Automata...)
	return nil
}

// fairSupport lists the variables the fairness constraints observe.
func (w *Workspace) fairSupport() []string {
	var out []string
	seen := map[string]bool{}
	add := func(f ctl.Formula) {
		if f == nil {
			return
		}
		for _, v := range ctl.Atoms(f) {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	for _, s := range w.fairSpecs {
		add(s.Expr)
		add(s.To)
	}
	return out
}

// coneWorkspace builds (or reuses) a reduced workspace observing the
// given variables plus the fairness constraints' support, cached per
// reduced model.
func (w *Workspace) coneWorkspace(observed []string) (*Workspace, *abstract.Result, error) {
	obs := append(append([]string(nil), observed...), w.fairSupport()...)
	res, err := abstract.ConeOfInfluence(w.Net.Model(), obs)
	if err != nil {
		return nil, nil, err
	}
	key := coneKey(res.Model)
	w.coneMu.Lock()
	defer w.coneMu.Unlock()
	if cached, ok := w.coneCache[key]; ok {
		return cached, res, nil
	}
	net, err := buildNetwork(res.Model, w.opts.networkOptions())
	if err != nil {
		return nil, nil, err
	}
	fc, err := lc.CompileFairness(net, w.fairSpecs)
	if err != nil {
		return nil, nil, err
	}
	sub := &Workspace{
		Name:      w.Name + "+coi",
		Net:       net,
		FC:        fc,
		fairSpecs: w.fairSpecs,
		opts:      w.opts,
	}
	sub.opts.ConeOfInfluence = false // no recursive reduction
	if w.coneCache == nil {
		w.coneCache = map[string]*Workspace{}
	}
	w.coneCache[key] = sub
	return sub, res, nil
}

// coneKey identifies a reduced model by its kept latch outputs.
func coneKey(m *blifmv.Model) string {
	var parts []string
	for _, l := range m.Latches {
		parts = append(parts, l.Output)
	}
	return strings.Join(parts, "\x00")
}

// AddPIFFile loads a .pif file.
func (w *Workspace) AddPIFFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return w.AddPIFString(string(data), path)
}

// Kind labels a property's verification paradigm.
type Kind string

// Property kinds.
const (
	KindCTL Kind = "ctl"
	KindLC  Kind = "lc"
)

// PropertyResult is one verified property.
type PropertyResult struct {
	Name string
	Kind Kind
	Pass bool
	Time time.Duration
	// Formula is set for CTL properties.
	Formula ctl.Formula
	// Trace is the error trace for failing LC (and AG-style CTL)
	// properties, when one could be built.
	Trace *debug.Trace
	// TraceSystem is the system the trace lives in (the product for LC).
	TraceSystem sys.System
	// UsedInvariantPath / EarlyDetected mirror the engine diagnostics.
	UsedInvariantPath bool
	EarlyDetected     bool
	// ConeDropped counts latches removed by cone-of-influence
	// abstraction before this check (0 when COI was off or vacuous).
	ConeDropped int
	Err         error
}

// SiftNow runs one converging block sift on the workspace's manager and
// returns its before/after statistics. It follows the GC protection
// contract, which every long-lived Ref in the workspace satisfies.
func (w *Workspace) SiftNow() reorder.Result {
	return reorder.Sift(w.Net.Manager())
}

// SaveOrder writes the current variable order (post-sifting, if any) to
// path, for a later run to seed from via Options.OrderFile.
func (w *Workspace) SaveOrder(path string) error {
	return order.SaveFile(path, order.Snapshot(w.Net.Space()))
}

// ReachableStatesExact computes the exact reachable-state count — the
// paper's "# reached states" column — as a math/big integer: float64
// would silently lose precision once a space exceeds 2^53 states, which
// parameterized designs (philos-64 and up) do comfortably.
func (w *Workspace) ReachableStatesExact() *big.Int {
	res := reach.Forward(w.Net, reach.Options{})
	return w.Net.NumStatesExact(res.Reached)
}

// Interrupt requests cooperative cancellation of whatever verification
// is running on this workspace (and on any cone-of-influence reductions
// derived from it): the running fixpoint unwinds with
// bdd.ErrInterrupted at its next safe point. Safe to call from any
// goroutine; the caller that owns the computation recovers the panic
// (as Server.runVerification does).
func (w *Workspace) Interrupt() {
	w.Net.Manager().Interrupt()
	w.coneMu.Lock()
	for _, sub := range w.coneCache {
		sub.Net.Manager().Interrupt()
	}
	w.coneMu.Unlock()
}

// CheckCTL verifies one CTL property.
func (w *Workspace) CheckCTL(p pif.CTLProp) *PropertyResult {
	start := time.Now()
	if w.opts.ConeOfInfluence {
		sub, res, err := w.coneWorkspace(ctl.Atoms(p.Formula))
		if err == nil && res.DroppedLatches > 0 {
			out := sub.CheckCTL(p)
			out.Time = time.Since(start)
			out.ConeDropped = res.DroppedLatches
			return out
		}
		// reduction unavailable or vacuous: fall through to the full model
	}
	// Every CTL route, the fair edge-restricted operators included, runs
	// on the workspace's image engine; nothing here builds T.
	checker := ctl.NewForNetwork(w.Net, w.FC)
	out := &PropertyResult{Name: p.Name, Kind: KindCTL, Formula: p.Formula}
	f := p.Formula
	if w.opts.DisableInvariantFastPath {
		if inv, ok := ctl.AsInvariance(f); ok {
			// re-associate so the checker misses the AG(prop) pattern
			f = ctl.Not{F: ctl.EF{F: ctl.Not{F: inv}}}
		}
	}
	v, err := checker.Check(f)
	out.Time = time.Since(start)
	if err != nil {
		out.Err = err
		return out
	}
	out.Pass = v.Pass
	out.UsedInvariantPath = v.UsedInvariantPath
	w.emitPropCheck(out)
	return out
}

// emitPropCheck reports one finished property check to the workspace
// manager's telemetry scope.
func (w *Workspace) emitPropCheck(r *PropertyResult) {
	if t := w.Net.Manager().Telemetry(); t != nil {
		t.Emit("prop.check",
			telemetry.Str("name", r.Name),
			telemetry.Str("kind", string(r.Kind)),
			telemetry.Bool("pass", r.Pass),
			telemetry.I64("elapsed_us", r.Time.Microseconds()))
	}
}

// CheckLC verifies one automaton property by language containment.
func (w *Workspace) CheckLC(spec *pif.AutSpec) *PropertyResult {
	start := time.Now()
	if w.opts.ConeOfInfluence {
		var observed []string
		seen := map[string]bool{}
		for _, e := range spec.Edges {
			for _, v := range ctl.Atoms(e.Guard) {
				if !seen[v] {
					seen[v] = true
					observed = append(observed, v)
				}
			}
		}
		sub, res, err := w.coneWorkspace(observed)
		if err == nil && res.DroppedLatches > 0 {
			out := sub.CheckLC(spec)
			out.Time = time.Since(start)
			out.ConeDropped = res.DroppedLatches
			return out
		}
	}
	out := &PropertyResult{Name: spec.Name, Kind: KindLC}
	a, err := lc.Compile(w.Net, spec)
	if err != nil {
		out.Err = err
		out.Time = time.Since(start)
		return out
	}
	p := lc.NewProduct(w.Net, a)
	res := lc.Check(p, w.FC, lc.Options{EarlySteps: w.opts.EarlySteps})
	out.Pass = res.Pass
	out.EarlyDetected = res.EarlyDetected
	if !res.Pass {
		tr, terr := debug.FindErrorTrace(p, res.Constraints, res.FairHull)
		if terr == nil {
			out.Trace = tr
			out.TraceSystem = p
		}
	}
	out.Time = time.Since(start)
	w.emitPropCheck(out)
	return out
}

// VerifyAll checks every property in the workspace: automata by
// language containment, formulas by CTL model checking, one after
// another on the workspace's manager (automata first, then formulas,
// each in declaration order, which is also the order of the results).
func (w *Workspace) VerifyAll() []*PropertyResult {
	out := make([]*PropertyResult, 0, len(w.Automata)+len(w.CTLProps))
	for _, a := range w.Automata {
		out = append(out, w.CheckLC(a))
	}
	for _, p := range w.CTLProps {
		out = append(out, w.CheckCTL(p))
	}
	return out
}

// DescribeProductState renders one product-trace state with design
// latch values and the automaton state name.
func DescribeProductState(p *lc.Product, st debug.State) string {
	asg := p.N.DecodeState(map[int]bool(st))
	var parts []string
	for _, l := range p.N.Latches() {
		parts = append(parts, fmt.Sprintf("%s=%s", l.Src.Output, asg[l.Src.Output]))
	}
	parts = append(parts, fmt.Sprintf("[%s:%s]", p.A.Name, p.A.States[p.APS.ValueFromMap(st)]))
	return strings.Join(parts, " ")
}

// DescribeState renders a design-level state.
func (w *Workspace) DescribeState(st debug.State) string {
	asg := w.Net.DecodeState(map[int]bool(st))
	var parts []string
	for _, l := range w.Net.Latches() {
		parts = append(parts, fmt.Sprintf("%s=%s", l.Src.Output, asg[l.Src.Output]))
	}
	return strings.Join(parts, " ")
}

// SourceOf maps a design variable back to its HDL source location
// ("file:line"), when the front end annotated it (paper §8 item 7:
// source-level debugging). Empty when unknown.
func (w *Workspace) SourceOf(variable string) string {
	return w.Net.Model().Attr("src", variable)
}

// BugReport renders a failing result as the textual bug report the
// debugger consumes (Figure 1's "bug report" artifact). When the design
// came from Verilog, the report maps each latch back to the source line
// that assigns it.
func (w *Workspace) BugReport(r *PropertyResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "property %s (%s): FAIL\n", r.Name, r.Kind)
	if r.Err != nil {
		fmt.Fprintf(&sb, "  error: %v\n", r.Err)
		return sb.String()
	}
	if r.Trace != nil {
		describe := w.DescribeState
		if p, ok := r.TraceSystem.(*lc.Product); ok {
			describe = func(st debug.State) string { return DescribeProductState(p, st) }
		}
		sb.WriteString(debug.FormatTrace(r.Trace, describe))
		srcLines := false
		for _, l := range w.Net.Latches() {
			if loc := w.SourceOf(l.Src.Output); loc != "" {
				if !srcLines {
					sb.WriteString("  source locations:\n")
					srcLines = true
				}
				fmt.Fprintf(&sb, "    %s assigned at %s\n", l.Src.Output, loc)
			}
		}
	}
	return sb.String()
}

func verilogToBlifmv(src, file, top string) (*blifmv.Design, error) {
	return verilogCompile(src, file, top)
}

func countLines(s string) int {
	n := strings.Count(s, "\n")
	if len(s) > 0 && !strings.HasSuffix(s, "\n") {
		n++
	}
	return n
}
