package hsis

// Benchmark harness regenerating the paper's evaluation (Table 1) and
// the ablations listed in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Table 1 has four measured columns per design — BLIF-MV read +
// transition-relation build time, reachable states, language containment
// time, and model checking time — so each design gets four
// sub-benchmarks. Custom metrics report state counts and BDD sizes.

import (
	"testing"

	"hsis/internal/bdd"
	"hsis/internal/bisim"
	"hsis/internal/blifmv"
	"hsis/internal/core"
	"hsis/internal/ctl"
	"hsis/internal/designs"
	"hsis/internal/lc"
	"hsis/internal/network"
	"hsis/internal/quant"
	"hsis/internal/reach"
)

func load(b *testing.B, name string, opts core.Options) *core.Workspace {
	b.Helper()
	d, err := designs.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	w, err := core.LoadVerilogString(d.Verilog, name+".v", d.Top, opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.AddPIFString(d.PIF, name+".pif"); err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkTable1 regenerates every measured column of Table 1.
func BenchmarkTable1(b *testing.B) {
	for _, name := range designs.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			b.Run("read", func(b *testing.B) {
				d, err := designs.Get(name)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
					if _, err := core.LoadVerilogString(d.Verilog, name+".v", d.Top, core.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("reach", func(b *testing.B) {
				w := load(b, name, core.Options{})
				var states float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := reach.Forward(w.Net, reach.Options{})
					states = w.Net.NumStates(res.Reached)
				}
				b.ReportMetric(states, "states")
			})
			b.Run("lc", func(b *testing.B) {
				w := load(b, name, core.Options{})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, a := range w.Automata {
						r := w.CheckLC(a)
						if r.Err != nil {
							b.Fatal(r.Err)
						}
					}
				}
				b.ReportMetric(float64(len(w.Automata)), "props")
			})
			b.Run("mc", func(b *testing.B) {
				w := load(b, name, core.Options{})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, p := range w.CTLProps {
						r := w.CheckCTL(p)
						if r.Err != nil {
							b.Fatal(r.Err)
						}
					}
				}
				b.ReportMetric(float64(len(w.CTLProps)), "props")
			})
		})
	}
}

// Ablation A (paper §1 item 2, §4): early quantification scheduling vs
// the naive monolithic conjunction when building the product transition
// relation.
func BenchmarkEarlyQuant(b *testing.B) {
	for _, design := range []string{"gigamax", "scheduler", "mdlc2"} {
		design := design
		for _, cfg := range []struct {
			label string
			opts  core.Options
		}{
			{"minwidth", core.Options{Heuristic: quant.MinWidth}},
			{"linear", core.Options{Heuristic: quant.Linear}},
			{"naive", core.Options{NaiveQuantification: true}},
		} {
			cfg := cfg
			b.Run(design+"/"+cfg.label, func(b *testing.B) {
				d, err := designs.Get(design)
				if err != nil {
					b.Fatal(err)
				}
				var peak int
				for i := 0; i < b.N; i++ {
					w, err := core.LoadVerilogString(d.Verilog, design+".v", d.Top, cfg.opts)
					if err != nil {
						b.Fatal(err)
					}
					peak = w.Net.Manager().PeakSize()
				}
				b.ReportMetric(float64(peak), "peak-bdd-nodes")
			})
		}
	}
}

// Ablation B (paper §5.2 item 3): the same invariance property checked
// by language containment, by the optimized invariance model-checking
// path, and by the general fair-CTL route. The paper observes "language
// containment is faster in general. However, CTL model checking is more
// efficient for invariance properties".
func BenchmarkLCvsMC(b *testing.B) {
	const design = "gigamax"
	cond := ctl.MustParse("!(c0=COWN * c1=COWN)")

	b.Run("lc", func(b *testing.B) {
		w := load(b, design, core.Options{})
		aut, err := lc.InvarianceAutomaton(w.Net, "inv", cond)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := lc.NewProduct(w.Net, aut)
			if res := lc.Check(p, w.FC, lc.Options{}); !res.Pass {
				b.Fatal("unexpected failure")
			}
		}
	})
	b.Run("mc-invariant-path", func(b *testing.B) {
		w := load(b, design, core.Options{})
		// strip fairness so the fast path activates (safety is
		// fairness-independent)
		checker := ctl.NewForNetwork(w.Net, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := checker.Check(ctl.AG{F: cond})
			if err != nil || !v.Pass {
				b.Fatal(err)
			}
		}
	})
	b.Run("mc-general", func(b *testing.B) {
		w := load(b, design, core.Options{})
		checker := ctl.NewForNetwork(w.Net, w.FC)
		general := ctl.Not{F: ctl.EF{F: ctl.Not{F: cond}}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := checker.Check(general)
			if err != nil || !v.Pass {
				b.Fatal(err)
			}
		}
	})
}

// Ablation C (paper §5.4): early failure detection versus the full
// check. The workload is a property with a shallow violation on the
// largest design (scheduler, ~1M states): "task 1 never runs" fails
// within two steps, so a bounded-depth scan finds it long before full
// reachability converges — "most errors can be detected with only a few
// reachability steps, and since the first few steps are usually fast,
// Early Failure Detection can quickly find errors".
func BenchmarkEarlyFailure(b *testing.B) {
	cond := ctl.MustParse("b1=0") // false once task 1 starts — shallow bug
	for _, cfg := range []struct {
		label string
		steps int
	}{
		{"full", 0},
		{"early4", 4},
	} {
		cfg := cfg
		b.Run(cfg.label, func(b *testing.B) {
			w := load(b, "scheduler", core.Options{})
			aut, err := lc.InvarianceAutomaton(w.Net, "task1_never", cond)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := lc.NewProduct(w.Net, aut)
				res := lc.Check(p, w.FC, lc.Options{EarlySteps: cfg.steps})
				if res.Pass {
					b.Fatal("expected failure")
				}
				if cfg.steps > 0 && !res.EarlyDetected {
					b.Fatal("early detection should fire")
				}
			}
		})
	}
}

// Ablation D (paper §1 items 3 and 6): bisimulation-derived don't cares
// shrink set BDDs. Reports node counts before and after minimization.
func BenchmarkBisimDC(b *testing.B) {
	w := load(b, "gigamax", core.Options{})
	n := w.Net
	m := n.Manager()
	res := reach.Forward(n, reach.Options{})
	// observation: only the coherence-relevant ownership labels
	c0 := n.VarByName("c0")
	c1 := n.VarByName("c1")
	rel := bisim.Compute(n, []bdd.Ref{c0.Eq(2), c1.Eq(2)})
	// an awkward, non-class-closed set: reached minus one arbitrary state
	asg, _ := n.PickState(res.Reached)
	awkward := m.Diff(res.Reached, n.StateEq(asg))
	before := m.NodeCount(awkward)
	var after int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		after = m.NodeCount(rel.MinimizeSet(awkward))
	}
	b.ReportMetric(float64(before), "nodes-before")
	b.ReportMetric(float64(after), "nodes-after")
}

// Ablation E (paper ref [1]): the interacting-FSM static variable order
// versus the naive appended declaration order. Reports the transition
// relation size.
func BenchmarkVarOrder(b *testing.B) {
	for _, cfg := range []struct {
		label string
		opts  core.Options
	}{
		{"interleaved", core.Options{}},
		{"appended", core.Options{AppendedOrder: true}},
	} {
		cfg := cfg
		for _, design := range []string{"scheduler", "mdlc2"} {
			design := design
			b.Run(design+"/"+cfg.label, func(b *testing.B) {
				d, err := designs.Get(design)
				if err != nil {
					b.Fatal(err)
				}
				var trNodes int
				for i := 0; i < b.N; i++ {
					w, err := core.LoadVerilogString(d.Verilog, design+".v", d.Top, cfg.opts)
					if err != nil {
						b.Fatal(err)
					}
					trNodes = w.Net.Manager().NodeCount(w.Net.T)
				}
				b.ReportMetric(float64(trNodes), "tr-bdd-nodes")
			})
		}
	}
}

// Ablation F (paper §8 item 4): reachability with the monolithic
// product transition relation versus the partitioned relation that is
// never multiplied out.
func BenchmarkPartitionedTR(b *testing.B) {
	d, err := designs.Get("scheduler")
	if err != nil {
		b.Fatal(err)
	}
	build := func(skipMono bool) *network.Network {
		dsg, err := verilogToNetwork(d.Verilog, d.Top, skipMono)
		if err != nil {
			b.Fatal(err)
		}
		return dsg
	}
	b.Run("monolithic", func(b *testing.B) {
		n := build(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := reach.Forward(n, reach.Options{})
			if !res.Converged {
				b.Fatal("diverged")
			}
		}
	})
	b.Run("partitioned", func(b *testing.B) {
		n := build(true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := reach.Forward(n, reach.Options{Partitioned: true})
			if !res.Converged {
				b.Fatal("diverged")
			}
		}
	})
}

// BenchmarkImage compares the three image engines — monolithic T,
// per-conjunct partitioned, and clustered with the precompiled
// quantification schedule — on full forward reachability plus a
// preimage sweep (the Image/Preimage alternation is what used to thrash
// the cube-keyed quantifier caches). Reports peak live BDD nodes and
// the combined quantifier/and-exists cache hit rate.
func BenchmarkImage(b *testing.B) {
	engines := []struct {
		label string
		kind  reach.EngineKind
	}{
		{"monolithic", reach.EngineMonolithic},
		{"partitioned", reach.EnginePartitioned},
		{"clustered", reach.EngineClustered},
	}
	for _, name := range []string{"gigamax", "scheduler", "mdlc2"} {
		name := name
		for _, eng := range engines {
			eng := eng
			b.Run(name+"/"+eng.label, func(b *testing.B) {
				w := load(b, name, core.Options{})
				n := w.Net
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := reach.Forward(n, reach.Options{Engine: eng.kind})
					if !res.Converged {
						b.Fatal("diverged")
					}
					e := reach.Engine(n, eng.kind)
					if e.Preimage(res.Reached) == bdd.False {
						b.Fatal("empty preimage of reached set")
					}
				}
				b.StopTimer()
				// The unified stats formatter decides what the benchmark
				// records, so BENCH_bdd.json and the telemetry summary
				// report the same metric set (peak-live, peak-alloc,
				// quantifier-cache hit rate).
				for metric, v := range n.Manager().Stats().BenchMetrics() {
					b.ReportMetric(v, metric)
				}
			})
		}
	}
}

// BenchmarkIso compares the isomorphism-exploiting engine against the
// clustered pipeline it extends: full forward reachability plus a
// preimage of the fixpoint, over scaled ring designs where every latch
// cone is a replica (philos-N, scheduler-N) and over bundled designs
// with little (mdlc2: three pairs) or no (gigamax) replication, where
// iso must not regress. Both engines run with the monolithic relation
// skipped — the contest is cluster compilation + schedule replay, and
// iso's edge is compiling each class once and instantiating replicas by
// variable permutation. Run with -benchtime=1x: the warm op caches make
// repeat iterations nearly free, so only a cold run measures the
// compile phase honestly. benchjson derives a speedup-vs-clustered
// ratio for every design from the paired rows of BENCH_iso.json.
func BenchmarkIso(b *testing.B) {
	for _, name := range []string{"philos-16", "philos-64", "scheduler-32", "mdlc2", "gigamax"} {
		name := name
		for _, eng := range []struct {
			label string
			kind  reach.EngineKind
		}{
			{"clustered", reach.EngineClustered},
			{"iso", reach.EngineIso},
		} {
			eng := eng
			b.Run(name+"/"+eng.label, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					w := load(b, name, core.Options{Image: eng.label})
					n := w.Net
					b.StartTimer()
					res := reach.Forward(n, reach.Options{Engine: eng.kind})
					if !res.Converged {
						b.Fatal("diverged")
					}
					e := reach.Engine(n, eng.kind)
					if e.Preimage(res.Reached) == bdd.False {
						b.Fatal("empty preimage of reached set")
					}
					b.StopTimer()
					st := n.Manager().Stats()
					for metric, v := range st.BenchMetrics() {
						b.ReportMetric(v, metric)
					}
					if eng.kind == reach.EngineIso {
						s := n.IsoSummaryInfo()
						b.ReportMetric(float64(s.Classes), "iso-classes")
						b.ReportMetric(float64(s.Replicated), "iso-latches")
						b.ReportMetric(float64(st.PermCalls), "perm-calls")
						b.ReportMetric(100*st.PermHitRate(), "perm-hit-%")
					}
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkNegationHeavy exercises the negation-dominated access pattern
// of the backward verification algorithms: alternating image/preimage
// sweeps where every round clips the frontier against the complement of
// a care set (exactly how fair-cycle and preimage computations use
// fair/care sets), with a GC between rounds the way fixpoints invoke
// MaybeGC between iterations. A complement-edge kernel makes every Not
// free and shares each set with its complement; a GC-surviving cache
// layer keeps the sweep's operator caches warm across the collection.
func BenchmarkNegationHeavy(b *testing.B) {
	for _, name := range []string{"gigamax", "scheduler", "mdlc2"} {
		name := name
		b.Run(name, func(b *testing.B) {
			w := load(b, name, core.Options{})
			n := w.Net
			m := n.Manager()
			e := reach.Engine(n, reach.EngineClustered)
			res := reach.Forward(n, reach.Options{Engine: reach.EngineClustered})
			if !res.Converged {
				b.Fatal("diverged")
			}
			reached := m.IncRef(res.Reached)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				care := reached
				front := n.Init
				for k := 0; k < 4; k++ {
					img := e.Image(front)
					// clip to the care set through its complement — the
					// fair/care-set pattern of the preimage sweeps
					img = m.Diff(img, m.Not(care))
					pre := e.Preimage(m.Not(m.Diff(m.Not(care), img)))
					front = m.And(m.Or(front, pre), care)
					care = m.Not(m.And(m.Not(care), m.Not(img)))
				}
				m.GC()
			}
			b.StopTimer()
			b.ReportMetric(float64(m.Size()), "live-bdd-nodes")
			for metric, v := range m.Stats().BenchMetrics() {
				b.ReportMetric(v, metric)
			}
			m.DecRef(reached)
		})
	}
}

func verilogToNetwork(src, top string, skipMono bool) (*network.Network, error) {
	w, err := core.LoadVerilogString(src, top+".v", top, core.Options{})
	if err != nil {
		return nil, err
	}
	if !skipMono {
		return w.Net, nil
	}
	// rebuild with the partitioned-only option
	dsn, err := compileFlat(src, top)
	if err != nil {
		return nil, err
	}
	return network.Build(dsn, network.Options{SkipMonolithic: true})
}

func compileFlat(src, top string) (*blifmv.Model, error) {
	d, err := verilogCompile(src, top)
	if err != nil {
		return nil, err
	}
	return blifmv.Flatten(d)
}

// Ablation G (paper §8 item 2): automatic abstraction by cone of
// influence. The design couples a small request/acknowledge controller
// with a large unrelated payload pipeline; the response property only
// observes the controller, so COI discards the pipeline before the
// check.
const coiBenchDesign = `
module coibench(clk, req, ack);
  input clk;
  output req, ack;
  reg req, ack;
  reg [5:0] p0, p1, p2;
  // payload pipeline: three 8-bit stages fed by nondeterminism
  initial p0 = 0;
  always @(posedge clk) p0 <= p0 + 1;
  initial p1 = 0;
  always @(posedge clk) p1 <= $ND(0,1) ? p0 : p1;
  initial p2 = 0;
  always @(posedge clk) p2 <= p1;
  // controller under verification
  initial req = 0;
  always @(posedge clk)
    if (!req) req <= $ND(0, 1);
    else if (ack) req <= 0;
  initial ack = 0;
  always @(posedge clk) ack <= req && !ack;
endmodule
`

// BenchmarkReorder measures dynamic variable reordering digging a run
// out of a deliberately bad initial order: scheduler-8 and mdlc2 are
// loaded with the naive appended order (philos-16 with its default
// order — see below), then forward reachability runs with sifting
// off versus growth-triggered auto sifting at the fixpoint safe points.
// The auto-naive configuration runs the same auto sifting with every
// acceleration disabled (-reorder-accel none) — the pre-acceleration
// Rudell sifter — so sift-ms auto vs auto-naive is the acceleration
// speedup and swaps auto vs auto-naive the swap reduction; benchjson
// derives both ratios into BENCH_reorder.json. A GC and a peak reset
// after the build discard the build phase's garbage, so peak-live-nodes
// isolates the reachability phase that reordering can influence.
func BenchmarkReorder(b *testing.B) {
	type reorderCfg struct {
		label string
		opts  core.Options
	}
	for _, design := range []string{"scheduler-8", "mdlc2", "philos-16"} {
		design := design
		scramble := design != "philos-16"
		cfgs := []reorderCfg{
			{"auto", core.Options{AppendedOrder: scramble, Reorder: "auto"}},
			{"auto-naive", core.Options{AppendedOrder: scramble, Reorder: "auto", ReorderAccel: "none"}},
		}
		if scramble {
			cfgs = append([]reorderCfg{{"off", core.Options{AppendedOrder: true, Reorder: "off"}}}, cfgs...)
		} else {
			// philos-16 runs from the default interleaved order: from the
			// appended order reachability exceeds 30 minutes and 5 GB on
			// the reference container with sifting off OR on — the order
			// is unrecoverable once the intermediate sets blow up. The
			// default-order rows instead measure the sift tax in a
			// realistic run, where growth triggers still fire during
			// reachability (the parameterized-suite scenario that
			// motivated the accelerations).
		}
		if design == "mdlc2" {
			// Single-acceleration ablations on the one design where
			// reordering dominates (EXPERIMENTS.md ablation H): each row
			// disables exactly one acceleration.
			cfgs = append(cfgs,
				reorderCfg{"auto-nointer", core.Options{AppendedOrder: true, Reorder: "auto", ReorderAccel: "lowerbound"}},
				reorderCfg{"auto-nolb", core.Options{AppendedOrder: true, Reorder: "auto", ReorderAccel: "interaction"}},
			)
		}
		for _, cfg := range cfgs {
			cfg := cfg
			b.Run(design+"/"+cfg.label, func(b *testing.B) {
				var st bdd.Statistics
				var peak int
				for i := 0; i < b.N; i++ {
					w := load(b, design, cfg.opts)
					m := w.Net.Manager()
					m.GC()
					m.ResetPeaks()
					res := reach.Forward(w.Net, reach.Options{})
					if !res.Converged {
						b.Fatal("diverged")
					}
					peak = m.PeakLive()
					st = m.Stats()
				}
				b.ReportMetric(float64(peak), "peak-live-nodes")
				b.ReportMetric(float64(st.Reorders), "reorders")
				b.ReportMetric(float64(st.ReorderTime.Milliseconds()), "sift-ms")
				b.ReportMetric(float64(st.ReorderSwaps), "swaps")
				b.ReportMetric(float64(st.ReorderInterSkips), "interaction-skips")
				b.ReportMetric(float64(st.ReorderLBAborts), "lb-aborts")
				b.ReportMetric(float64(st.ReorderNodesAfter), "final-live-nodes")
			})
		}
	}
}

func BenchmarkConeOfInfluence(b *testing.B) {
	prop := "ctl response AG(req=1 -> AF ack=1)\n"
	for _, cfg := range []struct {
		label string
		opts  core.Options
	}{
		{"full", core.Options{}},
		{"coi", core.Options{ConeOfInfluence: true}},
	} {
		cfg := cfg
		b.Run(cfg.label, func(b *testing.B) {
			var dropped int
			for i := 0; i < b.N; i++ {
				// end-to-end: compile, build, reduce (if enabled), check
				w, err := core.LoadVerilogString(coiBenchDesign, "coi.v", "coibench", cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := w.AddPIFString(prop, "p.pif"); err != nil {
					b.Fatal(err)
				}
				r := w.CheckCTL(w.CTLProps[0])
				if r.Err != nil || !r.Pass {
					b.Fatalf("unexpected result: %v pass=%v", r.Err, r.Pass)
				}
				dropped = r.ConeDropped
			}
			b.ReportMetric(float64(dropped), "latches-dropped")
		})
	}
}
