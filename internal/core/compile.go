package core

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"hsis/internal/blifmv"
	"hsis/internal/fair"
	"hsis/internal/lc"
	"hsis/internal/network"
	"hsis/internal/order"
	"hsis/internal/pif"
	"hsis/internal/reach"
)

// CompiledDesign is the read-only frontend artifact of one design: the
// parsed and flattened model (sealed, so lookups never mutate it), the
// precomputed static variable order, and the parsed property files.
// It contains no BDD state — no Manager, no Network — which is exactly
// what makes it shareable: any number of jobs may Instantiate
// workspaces from one artifact concurrently, each with its own Manager,
// while the artifact itself sits in a content-addressed cache and is
// never touched again by the frontend.
//
// Build one with CompileVerilog/CompileBlifMV, attach properties with
// AddPIF *before* publishing it to other goroutines, then Instantiate
// per job.
type CompiledDesign struct {
	// Name is the top module (Verilog) or root model (BLIF-MV) name.
	Name string

	flat        *blifmv.Model
	staticOrder []string // interacting-FSM order, computed once

	// appended is the deliberately poor declaration order (Ablation E),
	// derived lazily since almost no job asks for it.
	appendedOnce sync.Once
	appended     []string

	pifFiles []*pif.File

	// Source metrics, carried into every instantiated workspace.
	VerilogLines int
	BlifmvLines  int
	// FrontendTime is the parse+flatten+order cost paid once per
	// artifact; Workspace.ReadTime adds the per-job compile on top.
	FrontendTime time.Duration
}

// CompileVerilog runs the Verilog frontend down to a shareable artifact:
// compile to BLIF-MV, flatten, seal, order.
func CompileVerilog(src, file, top string) (*CompiledDesign, error) {
	start := time.Now()
	design, err := verilogToBlifmv(src, file, top)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	if err := blifmv.Write(&sb, design); err != nil {
		return nil, err
	}
	d, err := CompileBlifMV(sb.String(), file+".mv")
	if err != nil {
		return nil, err
	}
	d.Name = top
	d.VerilogLines = countLines(src)
	d.FrontendTime = time.Since(start)
	return d, nil
}

// CompileBlifMV runs the BLIF-MV frontend down to a shareable artifact.
func CompileBlifMV(src, file string) (*CompiledDesign, error) {
	start := time.Now()
	design, err := blifmv.ParseString(src, file)
	if err != nil {
		return nil, err
	}
	flat, err := blifmv.Flatten(design)
	if err != nil {
		return nil, err
	}
	// Seal before computing the order: from here on nothing may mutate
	// the model, and the static order is derived from the frozen form.
	flat.Seal()
	return &CompiledDesign{
		Name:         design.Root,
		flat:         flat,
		staticOrder:  order.Compute(flat),
		BlifmvLines:  countLines(src),
		FrontendTime: time.Since(start),
	}, nil
}

// AddPIF parses a PIF property file into the artifact. Must be called
// before the artifact is shared across goroutines (typically right
// after Compile*, before publishing to a cache).
func (d *CompiledDesign) AddPIF(src, file string) error {
	f, err := pif.ParseString(src, file)
	if err != nil {
		return err
	}
	d.pifFiles = append(d.pifFiles, f)
	return nil
}

// Model exposes the sealed flat model (read-only).
func (d *CompiledDesign) Model() *blifmv.Model { return d.flat }

// NumProperties reports how many properties the artifact carries.
func (d *CompiledDesign) NumProperties() (ctlProps, automata int) {
	for _, f := range d.pifFiles {
		ctlProps += len(f.CTL)
		automata += len(f.Automata)
	}
	return
}

func (d *CompiledDesign) appendedOrder() []string {
	d.appendedOnce.Do(func() { d.appended = appendedOrder(d.flat) })
	return d.appended
}

// Instantiate compiles the artifact into a fresh Workspace with its own
// bdd.Manager and mdd.Space. The artifact is only read, so concurrent
// Instantiate calls are safe — this is the per-job isolation boundary:
// jobs share the parsed design, never the BDD state.
func (d *CompiledDesign) Instantiate(opts Options) (*Workspace, error) {
	start := time.Now()
	switch opts.Reorder {
	case "", "off", "manual", "auto":
	default:
		return nil, fmt.Errorf("core: unknown reorder policy %q (want off, manual or auto)", opts.Reorder)
	}
	engine, ok := reach.ParseEngineKind(opts.Image)
	if !ok {
		return nil, fmt.Errorf("core: unknown image engine %q (want auto, monolithic, partitioned, clustered or iso)", opts.Image)
	}
	ropts, err := parseReorderOptions(opts)
	if err != nil {
		return nil, err
	}
	nopts := network.Options{
		Heuristic:           opts.Heuristic,
		NaiveQuantification: opts.NaiveQuantification,
		AutoReorder:         opts.Reorder == "auto",
		ReorderOpts:         ropts,
		ReorderTrigger:      opts.ReorderTrigger,
		Order:               d.staticOrder,
		Telemetry:           opts.Telemetry,
	}
	if opts.AppendedOrder {
		nopts.Order = d.appendedOrder()
	} else if opts.OrderFile != "" {
		if entries, err := order.LoadFile(opts.OrderFile); err == nil {
			// A stale file (renamed variables, changed cardinalities)
			// falls back to the static order; a missing file just means
			// no order has been saved yet.
			if names, err := order.Apply(d.flat, entries); err == nil {
				nopts.Order = names
				nopts.ExactOrder = true
			}
		} else if !os.IsNotExist(err) {
			return nil, err
		}
	}
	net, err := buildNetwork(d.flat, nopts, engine)
	if err != nil {
		return nil, err
	}
	w := &Workspace{
		Name:         d.Name,
		Net:          net,
		FC:           &fair.Constraints{},
		engine:       engine,
		VerilogLines: d.VerilogLines,
		BlifmvLines:  d.BlifmvLines,
		opts:         opts,
		ropts:        ropts,
	}
	// Per-job property compilation: fairness constraints become BDDs in
	// this workspace's manager; the syntactic specs stay shared.
	for _, f := range d.pifFiles {
		fc, err := lc.CompileFairness(net, f.Fairness)
		if err != nil {
			return nil, err
		}
		w.FC = fair.Merge(w.FC, fc)
		w.fairSpecs = append(w.fairSpecs, f.Fairness...)
		w.CTLProps = append(w.CTLProps, f.CTL...)
		w.Automata = append(w.Automata, f.Automata...)
	}
	w.ReadTime = d.FrontendTime + time.Since(start)
	return w, nil
}

// buildNetwork compiles a flat model for a workspace with the given
// image engine. It decides, in one place for full designs and
// cone-of-influence reductions alike, whether to multiply out the
// monolithic T: only for the monolithic engine, and for auto when the
// design has too little replication for the iso pipeline to pay
// (network.IsoWorthwhile). On a replicated design every layer — images,
// the edge-restricted CTL operators, language-containment products —
// replays iso plans instead, and T, by far the largest BDD such a
// design ever builds, is never formed. On the others T is small and its
// single AndExists per image beats any plan replay.
func buildNetwork(flat *blifmv.Model, nopts network.Options, engine reach.EngineKind) (*network.Network, error) {
	nopts.SkipMonolithic = true
	net, err := network.Build(flat, nopts)
	if err != nil {
		return nil, err
	}
	if engine == reach.EngineMonolithic || (engine == reach.EngineAuto && !net.IsoWorthwhile()) {
		net.EnsureT()
	}
	return net, nil
}
