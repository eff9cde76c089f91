// Command hsisbench is the repository's benchmark: four seeded workloads
// driven through the public APIs of core, designs and server, every
// answer checked against a verdict oracle, with end-to-end metrics from
// an untraced run and per-layer metrics from a separate traced run.
// NOTES.md explains the workloads and metrics; run.sh builds and runs it:
//
//	bash hsisbench/run.sh --workload table1 --seed 1 --seconds 25 --trace 0
//
// The last line on stdout is the result object; the line before it is
// the record (stamp, metrics and sample counts) that --compare reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"hsis/internal/server"
)

func main() {
	workload := flag.String("workload", "", "table1, rings, sift or hsisd")
	seed := flag.Int64("seed", 1, "input seed: design order and hsisd arrivals")
	seconds := flag.Int("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	recordPath := flag.String("record", "", "append this run's record (one JSON line) to this file")
	compare := flag.Bool("compare", false, "compare the record files given as arguments: baseline then candidate")
	oracleOut := flag.String("gen-oracle", "", "recompute the verdict oracle and write it to this file")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("--compare wants two record files")
		}
		if err := compareRecords(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	case *oracleOut != "":
		if err := genOracle(*oracleOut); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be >= 1 and --trace 0 or 1")
	}
	oracle, err := loadOracle()
	if err != nil {
		fatalf("%v", err)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		oracle:   oracle,
	}
	b.stealAt, b.ticksAt = cpuTicks()
	var rec *record
	switch *workload {
	case "table1", "rings", "sift":
		rec, err = b.runCLI()
	case "hsisd":
		rec, err = b.runHsisd()
	default:
		err = fmt.Errorf("unknown workload %q (want table1, rings, sift or hsisd)", *workload)
	}
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if *recordPath != "" {
		if err := appendLine(*recordPath, line); err != nil {
			fatalf("%v", err)
		}
	}
	res := result{Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]metric{}}
	for name, v := range rec.Metrics {
		res.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}

// bench is one run's configuration.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	oracle   map[string]*expected

	attempted, failed int
	setupS            float64 // median set-up seconds

	stealAt, ticksAt float64 // cpuTicks when the run started
}

// How many times a run sets up; setup_s is the median. A CLI set-up
// takes milliseconds, so it is repeated more to steady the median.
const (
	cliSetups   = 15
	hsisdSetups = 5
)

// nominalPassS is each CLI workload's pass time, in seconds, at the
// commit that added the benchmark (2-CPU host). It only sizes a run's
// fixed number of passes from --seconds.
var nominalPassS = map[string]float64{"table1": 1.4, "rings": 6.5, "sift": 4.4}

// runCLI measures a CLI workload: cliSetups set-ups (input generation
// and a warm-up design), then a fixed number of passes: as many as fill
// the measured time at nominalPassS, at least three (four when traced,
// half of them traced). Peak memory rises with the number of passes one
// process makes, so a count that does not depend on the host's speed
// keeps peak_rss_mb comparable between runs.
func (b *bench) runCLI() (*record, error) {
	var setups []float64
	var ins []input
	for i := 0; i < cliSetups; i++ {
		start := time.Now()
		var err error
		ins, err = cliInputs(b.workload, rand.New(rand.NewSource(b.seed)))
		if err != nil {
			return nil, err
		}
		warm, err := design("pingpong", ins[0].Opts)
		if err != nil {
			return nil, err
		}
		b.count(runPass([]input{warm}, b.oracle, false).failed, 1)
		setups = append(setups, time.Since(start).Seconds())
	}
	rec := b.newRecord(ins[0].Opts.Workers)
	rec.Samples["setup_s"] = len(setups)
	b.setupS = median(setups)

	passes := max(3, int(math.Round(b.seconds.Seconds()/nominalPassS[b.workload])))
	if b.traced {
		passes = max(4, passes)
	}
	var plain, traced []pass
	for len(plain)+len(traced) < passes {
		// A CLI user verifies a design list once per process; collecting
		// the previous pass's garbage outside the timed window keeps
		// one pass from paying for another's.
		runtime.GC()
		p := runPass(ins, b.oracle, b.traced && len(traced) < len(plain))
		b.count(p.failed, len(ins))
		logf("pass %d: %.3f s (traced %v)", len(plain)+len(traced), p.wall.Seconds(), p.lay != nil)
		if p.lay != nil {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	if b.traced {
		layerMetrics(rec, plain, traced)
	} else {
		// The job percentiles are taken over each design's median time.
		// Every design runs once per pass, so over all design runs the
		// median would fall between the slowest run of one design and
		// the fastest of the next: two extremes.
		var walls []float64
		perDesign := make([][]float64, len(ins))
		for _, p := range plain {
			walls = append(walls, p.wall.Seconds())
			for i, j := range p.jobs {
				perDesign[i] = append(perDesign[i], ms(j))
			}
		}
		var jobs []float64
		for _, ts := range perDesign {
			jobs = append(jobs, median(ts))
		}
		rec.Metrics["pass_s"] = median(walls)
		rec.Samples["pass_s"] = len(walls)
		rec.Metrics["job_p50_ms"] = quantile(jobs, 0.5)
		rec.Metrics["job_p99_ms"] = quantile(jobs, 0.99)
		rec.Samples["job"] = len(walls) * len(ins)
		rec.Metrics["sat_jobs_per_s"] = float64(len(ins)) / median(walls)
	}
	b.finish(rec)
	return rec, nil
}

// layerMetrics fills a traced record: per-layer medians over the traced
// passes, the trace overhead against the untraced passes, and the
// exact-count check between the first two traced passes.
func layerMetrics(rec *record, plain, traced []pass) {
	perPass := make([]map[string]float64, len(traced))
	var tw, pw []float64
	for i, p := range traced {
		perPass[i] = p.lay.metrics(p.wall)
		tw = append(tw, p.wall.Seconds())
	}
	for _, p := range plain {
		pw = append(pw, p.wall.Seconds())
	}
	for name := range perPass[0] {
		var vs []float64
		for _, m := range perPass {
			vs = append(vs, m[name])
		}
		rec.Metrics[name] = median(vs)
	}
	mismatches := 0
	for _, name := range exactCounts {
		if a, c := perPass[0][name], perPass[1][name]; a != c {
			mismatches++
			logf("count %s differs between traced passes: %v vs %v", name, a, c)
		}
	}
	rec.Metrics["trace.count_mismatches"] = float64(mismatches)
	rec.Metrics["trace.overhead_ratio"] = median(tw) / median(pw)
	rec.Samples["traced_pass"] = len(traced)
	rec.Samples["untraced_pass"] = len(plain)
	for _, name := range serverLayerMetrics {
		if _, ok := rec.Metrics[name]; !ok {
			rec.Metrics[name] = 0
		}
	}
}

// serverLayerMetrics are the per-layer metrics only the hsisd workload
// measures; the CLI workloads report them as 0.
var serverLayerMetrics = []string{
	"server.queue_wait_p50_ms", "server.queue_wait_p99_ms", "server.exec_p50_ms",
	"server.cache_hit_ratio", "server.rejected", "loadgen.lag_p99_ms",
}

// runHsisd measures the hsisd workload: hsisdSetups or more set-ups
// (server start and warm-up jobs), and the cycles of open and closed
// loops that runHsisd in hsisd.go runs on the servers. The traced run
// adds direct untraced/traced passes over the mix's designs for the
// per-layer split the server cannot report from outside.
func (b *bench) runHsisd() (*record, error) {
	g, err := newMixGen(b.seed)
	if err != nil {
		return nil, err
	}
	var setups []float64
	setup := func() (*server.Server, error) {
		start := time.Now()
		s, warm, err := startServer(b.oracle)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		for _, o := range warm {
			b.count(boolInt(o.failed), 1)
		}
		return s, nil
	}
	measured := b.seconds
	if b.traced {
		measured = b.seconds / 2
	}
	run, err := runHsisd(setup, g, measured, b.oracle)
	if err != nil {
		return nil, err
	}
	rec := b.newRecord(run.workers)
	rec.Samples["setup_s"] = len(setups)
	b.setupS = median(setups)
	all := append(append([]jobObs(nil), run.open...), run.closed...)
	for _, o := range all {
		b.count(boolInt(o.failed), 1)
	}

	if b.traced {
		ins, err := hsisdMixInputs()
		if err != nil {
			return nil, err
		}
		var plain, traced []pass
		for len(traced) < 2 {
			for _, t := range []bool{false, true} {
				p := runPass(ins, b.oracle, t)
				b.count(p.failed, len(ins))
				if t {
					traced = append(traced, p)
				} else {
					plain = append(plain, p)
				}
			}
		}
		layerMetrics(rec, plain, traced)
		var waits, execs, lags []float64
		hits, rejected, done := 0, 0, 0
		for _, o := range all {
			if o.rejected {
				rejected++
			}
			if o.failed {
				continue
			}
			done++
			waits = append(waits, ms(o.queueWait))
			execs = append(execs, ms(o.exec))
			hits += boolInt(o.cacheHit)
		}
		for _, l := range run.lag {
			lags = append(lags, ms(l))
		}
		rec.Metrics["server.queue_wait_p50_ms"] = quantile(waits, 0.5)
		rec.Metrics["server.queue_wait_p99_ms"] = quantile(waits, 0.99)
		rec.Metrics["server.exec_p50_ms"] = quantile(execs, 0.5)
		rec.Metrics["server.cache_hit_ratio"] = ratio(float64(hits), float64(done))
		rec.Metrics["server.rejected"] = float64(rejected)
		rec.Metrics["loadgen.lag_p99_ms"] = quantile(lags, 0.99)
	} else {
		var rounds []float64
		for _, r := range run.rounds {
			rounds = append(rounds, r.Seconds())
		}
		lat := jobLatencies(run.open)
		rec.Metrics["pass_s"] = median(rounds)
		rec.Samples["pass_s"] = len(rounds)
		rec.Metrics["job_p50_ms"] = quantile(lat, 0.5)
		rec.Metrics["job_p99_ms"] = quantile(lat, 0.99)
		rec.Samples["job"] = len(lat)
		var total float64
		for _, r := range rounds {
			total += r
		}
		rec.Metrics["sat_jobs_per_s"] = float64(len(run.closed)) / total
	}
	b.finish(rec)
	return rec, nil
}

func (b *bench) count(failed, attempted int) {
	b.failed += failed
	b.attempted += attempted
}

// finish adds the metrics every record carries.
func (b *bench) finish(rec *record) {
	rec.Attempted, rec.Failed = b.attempted, b.failed
	steal, ticks := cpuTicks()
	rec.HostSteal = ratio(steal-b.stealAt, ticks-b.ticksAt)
	if b.traced {
		return
	}
	rec.Metrics["setup_s"] = b.setupS
	rec.Metrics["peak_rss_mb"] = peakRSSMB()
	rec.Metrics["ok_frac"] = 1 - float64(b.failed)/float64(max(b.attempted, 1))
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hsisbench: "+format+"\n", args...)
}

func fatalf(format string, args ...any) {
	logf(format, args...)
	os.Exit(1)
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
