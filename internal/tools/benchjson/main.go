// Command benchjson converts `go test -bench` output on stdin into a
// JSON array on stdout, one object per benchmark line with the name,
// iteration count, ns/op, the -benchmem columns, and any custom
// ReportMetric values. The kernel benchmarks report the unified
// Statistics.BenchMetrics set (peak-live-nodes, peak-bdd-nodes,
// cache-hit-%) plus per-benchmark extras like live-bdd-nodes, so
// BENCH_*.json records the peak-live and hit-rate trajectories
// alongside ns/op. `make bench` pipes through it to record
// BENCH_bdd.json.
//
// Rows with twin configurations get derived ratios: every ".../iso" row
// with a ".../clustered" twin gains speedup-vs-clustered, and every
// ".../auto" reorder row with an ".../auto-naive" twin (the same auto
// sifting with all accelerations disabled) gains sift-speedup-vs-naive
// (naive sift-ms over accelerated sift-ms) and swaps-saved-% (the share
// of the naive sifter's adjacent-level swaps the accelerations
// avoided), plus speedup-vs-off against the no-reordering twin.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"numcpu"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// addSpeedups derives a speedup-vs-clustered metric on every ".../iso"
// benchmark row that has a ".../clustered" twin (same name with the
// engine segment swapped), so BENCH_iso.json carries the per-design
// ratio directly instead of leaving readers to divide ns/op pairs.
func addSpeedups(results []result) {
	byName := make(map[string]float64, len(results))
	for _, r := range results {
		byName[r.Name] = r.NsPerOp
	}
	for i := range results {
		r := &results[i]
		if !strings.Contains(r.Name, "/iso") || r.NsPerOp == 0 {
			continue
		}
		base, ok := byName[strings.Replace(r.Name, "/iso", "/clustered", 1)]
		if !ok {
			continue
		}
		if r.Metrics == nil {
			r.Metrics = make(map[string]float64)
		}
		r.Metrics["speedup-vs-clustered"] = base / r.NsPerOp
	}
}

// addReorderMetrics derives the sifting-acceleration ratios on every
// ".../auto" row from its ".../auto-naive" and ".../off" twins. Names
// are compared with any "-<procs>" suffix `go test -bench` appends at
// GOMAXPROCS > 1 stripped.
func addReorderMetrics(results []result) {
	stripProcs := func(name string) string {
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				return name[:i]
			}
		}
		return name
	}
	byBase := make(map[string]*result, len(results))
	for i := range results {
		byBase[stripProcs(results[i].Name)] = &results[i]
	}
	for i := range results {
		r := &results[i]
		base := stripProcs(r.Name)
		if base[strings.LastIndex(base, "/")+1:] != "auto" {
			continue
		}
		set := func(k string, v float64) {
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[k] = v
		}
		if naive, ok := byBase[base+"-naive"]; ok && naive.Metrics != nil && r.Metrics != nil {
			if nms, ams := naive.Metrics["sift-ms"], r.Metrics["sift-ms"]; ams > 0 {
				set("sift-speedup-vs-naive", nms/ams)
			}
			if nsw, asw := naive.Metrics["swaps"], r.Metrics["swaps"]; nsw > 0 {
				set("swaps-saved-%", 100*(1-asw/nsw))
			}
		}
		// A ".../auto-prechange" twin is a row replayed from the revision
		// before the acceleration work (the Makefile splices the recorded
		// raw lines into the stream); derive the end-to-end speedup over
		// that sifter too.
		if pre, ok := byBase[base+"-prechange"]; ok && pre.Metrics != nil && r.Metrics != nil {
			if pms, ams := pre.Metrics["sift-ms"], r.Metrics["sift-ms"]; ams > 0 {
				set("sift-speedup-vs-prechange", pms/ams)
			}
			if psw, asw := pre.Metrics["swaps"], r.Metrics["swaps"]; psw > 0 {
				set("swaps-saved-vs-prechange-%", 100*(1-asw/psw))
			}
		}
		if off, ok := byBase[strings.TrimSuffix(base, "auto")+"off"]; ok && off.NsPerOp > 0 && r.NsPerOp > 0 {
			set("speedup-vs-off", off.NsPerOp/r.NsPerOp)
		}
	}
}

// workersSeg matches the "workers-N" / "workers=N" path segment the
// server benchmark uses for its sub-benchmark names.
var workersSeg = regexp.MustCompile(`workers([-=])(\d+)`)

// addParallelSpeedups derives speedup-vs-workers-1 on every row whose
// name carries a "workers-N" segment with N > 1 and that has a
// "workers-1" twin, so BENCH_server.json carries the scaling ratio
// directly. Any "-<procs>" suffix `go test -bench`
// appends at GOMAXPROCS > 1 is ignored for twin matching.
func addParallelSpeedups(results []result) {
	// At GOMAXPROCS=1 the bench name has no "-<procs>" suffix and ends
	// in the workers segment itself, so only strip a trailing number
	// when the workers segment survives the cut.
	stripProcs := func(name string) string {
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil && workersSeg.MatchString(name[:i]) {
				return name[:i]
			}
		}
		return name
	}
	byBase := make(map[string]*result, len(results))
	for i := range results {
		byBase[stripProcs(results[i].Name)] = &results[i]
	}
	for i := range results {
		r := &results[i]
		base := stripProcs(r.Name)
		m := workersSeg.FindStringSubmatch(base)
		if m == nil || m[2] == "1" || r.NsPerOp == 0 {
			continue
		}
		one, ok := byBase[workersSeg.ReplaceAllString(base, "workers${1}1")]
		if !ok || one.NsPerOp == 0 {
			continue
		}
		// Throughput benchmarks (the server) scale their batch with the
		// worker count, so ns/op rows are not comparable across widths —
		// the jobs/s metric is the honest ratio there; plain wall-clock
		// benchmarks fall back to ns/op.
		speedup := one.NsPerOp / r.NsPerOp
		if j1, jn := one.Metrics["jobs/s"], r.Metrics["jobs/s"]; j1 > 0 && jn > 0 {
			speedup = jn / j1
		}
		if r.Metrics == nil {
			r.Metrics = make(map[string]float64)
		}
		r.Metrics["speedup-vs-workers-1"] = speedup
	}
}

func main() {
	var results []result
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		// The host parallelism is stamped on every record: scaling rows
		// are meaningless without knowing how many CPUs backed the run
		// (benchjson runs in the same `make bench-*` pipeline, on the
		// same host, as the benchmark itself).
		r := result{Name: fields[0], Iterations: iters, NsPerOp: ns,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
		// Remaining fields alternate value/unit: "123 B/op", "4 allocs/op",
		// "63448 peak-bdd-nodes", ...
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[fields[i+1]] = v
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	addSpeedups(results)
	addReorderMetrics(results)
	addParallelSpeedups(results)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
