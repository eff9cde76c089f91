package main

import (
	"fmt"
	"math/rand"
	"time"

	"hsis/internal/core"
	"hsis/internal/designs"
	"hsis/internal/telemetry"
)

// input is one design run: Verilog and PIF text plus the options its
// workspace is instantiated with.
type input struct {
	Key     string // oracle row
	Label   string // file-name stem and log label
	Verilog string
	Top     string
	PIF     string
	Opts    core.Options
}

// design loads a bundled or generated design as an input.
func design(name string, opts core.Options) (input, error) {
	d, err := designs.Get(name)
	if err != nil {
		return input{}, err
	}
	return input{Key: name, Label: name, Verilog: d.Verilog, Top: d.Top, PIF: d.PIF, Opts: opts}, nil
}

// cliInputs builds the design list of a CLI workload in seed-shuffled
// order. It returns the inputs and the kernel worker count they pin.
func cliInputs(workload string, rng *rand.Rand) ([]input, error) {
	type spec struct {
		name string
		opts core.Options
	}
	var specs []spec
	switch workload {
	case "table1":
		for _, n := range designs.Names() {
			specs = append(specs, spec{n, core.Options{Workers: 2}})
		}
	case "rings":
		specs = []spec{
			{"philos-16", core.Options{Workers: 2}},
			{"scheduler-64", core.Options{Workers: 2}},
		}
	case "sift":
		// Workers: 1 — see NOTES.md: at Workers: 2 auto sifting on mdlc2
		// sometimes blows up inside VerifyAll (tens of millions of live
		// nodes, minutes instead of seconds), which no timed run survives.
		specs = []spec{
			{"mdlc2", core.Options{Workers: 1, Reorder: "auto"}},
			{"scheduler-8", core.Options{Workers: 1, Reorder: "auto", AppendedOrder: true}},
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	ins := make([]input, 0, len(specs))
	for _, s := range specs {
		in, err := design(s.name, s.opts)
		if err != nil {
			return nil, err
		}
		if s.opts.AppendedOrder {
			in.Label += "-appended"
		}
		ins = append(ins, in)
	}
	rng.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
	return ins, nil
}

// layers holds one traced pass's per-layer measurements, summed over the
// pass's designs (peaks take the maximum).
type layers struct {
	frontendMS, blifmvLines       float64
	buildMS, buildPeak            float64
	reachMS, reachIters           float64
	verifyMS, ctlBusyMS, lcBusyMS float64

	peakLive, gcs, gcPauseMS, gcMarkMS float64
	cacheHits, cacheCalls              float64
	forks, steals, permHits, permCalls float64

	sifts, swaps, reorderMS, interSkips float64
	nodesBefore, nodesAfter, siftZones  float64
}

// verifyDesign runs one design from text to verdicts through the public
// pipeline — CompileVerilog, AddPIF, Instantiate, ReachableStatesExact,
// VerifyAll — in a fresh workspace. With lay non-nil the calls are timed
// from outside and a metrics-only telemetry scope is attached, so the
// kernel's latency histograms and counters can be read afterwards.
func verifyDesign(in input, lay *layers) (states string, res []*core.PropertyResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	opts := in.Opts
	var sc *telemetry.Scope
	if lay != nil {
		sc = telemetry.NewScope(nil).WithMetrics(telemetry.NewMetricSet())
		opts.Telemetry = sc
	}
	t0 := time.Now()
	cd, err := core.CompileVerilog(in.Verilog, in.Label+".v", in.Top)
	if err != nil {
		return "", nil, err
	}
	if err := cd.AddPIF(in.PIF, in.Label+".pif"); err != nil {
		return "", nil, err
	}
	t1 := time.Now()
	ws, err := cd.Instantiate(opts)
	if err != nil {
		return "", nil, err
	}
	t2 := time.Now()
	var buildPeak int
	var itersBefore int64
	if lay != nil {
		buildPeak = ws.Net.Manager().Stats().PeakLive
		itersBefore = sc.Metrics().FixpointIter.Snapshot().Count
	}
	t3 := time.Now()
	n := ws.ReachableStatesExact()
	t4 := time.Now()
	var itersAfter int64
	if lay != nil {
		itersAfter = sc.Metrics().FixpointIter.Snapshot().Count
	}
	t5 := time.Now()
	res = ws.VerifyAll()
	t6 := time.Now()
	if lay != nil {
		lay.frontendMS += ms(t1.Sub(t0))
		lay.blifmvLines += float64(cd.BlifmvLines)
		lay.buildMS += ms(t2.Sub(t1))
		lay.buildPeak = max(lay.buildPeak, float64(buildPeak))
		lay.reachMS += ms(t4.Sub(t3))
		lay.reachIters += float64(itersAfter - itersBefore)
		lay.verifyMS += ms(t6.Sub(t5))
		for _, r := range res {
			if r.Kind == core.KindLC {
				lay.lcBusyMS += ms(r.Time)
			} else {
				lay.ctlBusyMS += ms(r.Time)
			}
		}
		lay.addKernel(ws, sc.Metrics())
	}
	return n.String(), res, nil
}

// addKernel folds one finished workspace's kernel counters in.
func (l *layers) addKernel(ws *core.Workspace, met *telemetry.MetricSet) {
	st := ws.Net.Manager().Stats()
	l.peakLive = max(l.peakLive, float64(st.PeakLive))
	l.gcs += float64(st.GCs)
	l.gcPauseMS += float64(met.GCPause.Snapshot().SumUS) / 1000
	l.gcMarkMS += float64(met.GCMark.Snapshot().SumUS) / 1000
	l.cacheHits += float64(st.ApplyHits + st.ITEHits + st.QuantHits + st.AndExistsHits)
	l.cacheCalls += float64(st.ApplyCalls + st.ITECalls + st.QuantCalls + st.AndExistsCalls)
	l.forks += float64(st.Forks)
	l.steals += float64(st.Steals)
	l.permHits += float64(st.PermHits)
	l.permCalls += float64(st.PermCalls)
	l.sifts += float64(st.Reorders)
	l.swaps += float64(st.ReorderSwaps)
	l.reorderMS += ms(st.ReorderTime)
	l.interSkips += float64(st.ReorderInterSkips)
	if st.Reorders > 0 {
		l.nodesBefore += float64(st.ReorderNodesBefore)
		l.nodesAfter += float64(st.ReorderNodesAfter)
	}
	l.siftZones += float64(st.SiftZones)
}

// metrics renders the per-layer metrics of one traced pass whose wall
// time was wall.
func (l *layers) metrics(wall time.Duration) map[string]float64 {
	return map[string]float64{
		"frontend.ms":                   l.frontendMS,
		"frontend.blifmv_lines":         l.blifmvLines,
		"network.build_ms":              l.buildMS,
		"network.build_peak_live_nodes": l.buildPeak,
		"reach.ms":                      l.reachMS,
		"reach.fixpoint_iters":          l.reachIters,
		"verify.ms":                     l.verifyMS,
		"ctl.busy_ms":                   l.ctlBusyMS,
		"lc.busy_ms":                    l.lcBusyMS,
		"verify.overlap_ratio":          ratio(l.ctlBusyMS+l.lcBusyMS, l.verifyMS),
		"bdd.peak_live_nodes":           l.peakLive,
		"bdd.gcs":                       l.gcs,
		"bdd.gc_pause_ms":               l.gcPauseMS,
		"bdd.gc_mark_ms":                l.gcMarkMS,
		"bdd.cache_hit_ratio":           ratio(l.cacheHits, l.cacheCalls),
		"bdd.forks":                     l.forks,
		"bdd.steal_ratio":               ratio(l.steals, l.forks),
		"iso.perm_hit_ratio":            ratio(l.permHits, l.permCalls),
		"reorder.sifts":                 l.sifts,
		"reorder.swaps":                 l.swaps,
		"reorder.ms":                    l.reorderMS,
		"reorder.skip_ratio":            ratio(l.interSkips, l.interSkips+l.swaps),
		"reorder.shrink_ratio":          ratio(l.nodesAfter, l.nodesBefore),
		"reorder.sift_zones":            l.siftZones,
		"unattributed_ms":               ms(wall) - (l.frontendMS + l.buildMS + l.reachMS + l.verifyMS),
	}
}

// exactCounts names the per-layer counts that must repeat exactly across
// traced passes of one commit; a pass pair that disagrees on any of them
// is reported in trace.count_mismatches.
var exactCounts = []string{
	"frontend.blifmv_lines",
	"network.build_peak_live_nodes",
	"reach.fixpoint_iters",
	"bdd.gcs",
	"reorder.sifts",
	"reorder.swaps",
}

// pass is one pass over a list of designs.
type pass struct {
	wall   time.Duration
	jobs   []time.Duration // per design, text to verdicts
	failed int
	lay    *layers // nil when untraced
}

// runPass verifies every input once, checking each answer against the
// oracle; a design that errors or disagrees counts as failed.
func runPass(ins []input, oracle map[string]*expected, traced bool) pass {
	var p pass
	if traced {
		p.lay = &layers{}
	}
	start := time.Now()
	for _, in := range ins {
		t := time.Now()
		states, res, err := verifyDesign(in, p.lay)
		p.jobs = append(p.jobs, time.Since(t))
		if msg := judge(in.Key, oracle, states, res, err); msg != "" {
			p.failed++
			logf("FAIL %s: %s", in.Label, msg)
		}
	}
	p.wall = time.Since(start)
	return p
}

// judge returns why a design run is wrong, or "" when the oracle agrees.
func judge(key string, oracle map[string]*expected, states string, res []*core.PropertyResult, err error) string {
	if err != nil {
		return err.Error()
	}
	got := make([]verdict, len(res))
	for i, r := range res {
		if r.Err != nil {
			return fmt.Sprintf("%s: %v", r.Name, r.Err)
		}
		got[i] = verdict{Name: r.Name, Pass: r.Pass}
	}
	return check(oracle, key, states, got)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
