package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// stamp identifies where and how a record was measured. compareRecords
// refuses to compare records whose environment stamps differ.
type stamp struct {
	Workload   string `json:"workload"`
	Traced     bool   `json:"traced"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	// Workers is the pinned worker count: kernel workers per design for
	// the CLI workloads, job workers for hsisd.
	Workers int `json:"workers"`
}

// record is one run's full output: stamp, metrics and sample counts.
type record struct {
	Stamp     stamp              `json:"stamp"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	// HostSteal is the share of CPU time the hypervisor gave to other
	// guests while the run measured; a run with a high share is slow
	// for reasons outside the program.
	HostSteal float64 `json:"host_steal_share"`
}

func (b *bench) newRecord(workers int) *record {
	return &record{
		Stamp: stamp{
			Workload:   b.workload,
			Traced:     b.traced,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			GoVersion:  runtime.Version(),
			Commit:     commit(),
			Seed:       b.seed,
			Workers:    workers,
		},
		Metrics: map[string]float64{},
		Samples: map[string]int{},
	}
}

// commit names the measured source: the VCS revision the binary was
// built from, or — outside a repository — a digest of the module's
// sources: every .go, .v, .pif and go.mod file under the working
// directory (the checkout root), skipping hidden directories such as
// the build output.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		switch filepath.Ext(path) {
		case ".go", ".v", ".pif", ".mod":
		default:
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// units gives every metric's unit.
var units = map[string]string{
	"setup_s":        "s",
	"pass_s":         "s",
	"peak_rss_mb":    "MB",
	"ok_frac":        "share",
	"job_p50_ms":     "ms",
	"job_p99_ms":     "ms",
	"sat_jobs_per_s": "1/s",

	"frontend.ms":                   "ms",
	"frontend.blifmv_lines":         "count",
	"network.build_ms":              "ms",
	"network.build_peak_live_nodes": "count",
	"reach.ms":                      "ms",
	"reach.fixpoint_iters":          "count",
	"verify.ms":                     "ms",
	"ctl.busy_ms":                   "ms",
	"lc.busy_ms":                    "ms",
	"verify.overlap_ratio":          "ratio",
	"bdd.peak_live_nodes":           "count",
	"bdd.gcs":                       "count",
	"bdd.gc_pause_ms":               "ms",
	"bdd.gc_mark_ms":                "ms",
	"bdd.cache_hit_ratio":           "ratio",
	"bdd.forks":                     "count",
	"bdd.steal_ratio":               "ratio",
	"iso.perm_hit_ratio":            "ratio",
	"reorder.sifts":                 "count",
	"reorder.swaps":                 "count",
	"reorder.ms":                    "ms",
	"reorder.skip_ratio":            "ratio",
	"reorder.shrink_ratio":          "ratio",
	"reorder.sift_zones":            "count",
	"server.queue_wait_p50_ms":      "ms",
	"server.queue_wait_p99_ms":      "ms",
	"server.exec_p50_ms":            "ms",
	"server.cache_hit_ratio":        "ratio",
	"server.rejected":               "count",
	"loadgen.lag_p99_ms":            "ms",
	"trace.overhead_ratio":          "ratio",
	"trace.count_mismatches":        "count",
	"unattributed_ms":               "ms",
}

// median is the middle value (mean of the middle two), as Python's
// statistics.median computes it.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile interpolates linearly between order statistics. An empty
// sample yields 0.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTicks reads the aggregate line of /proc/stat: the steal and total
// jiffies of all CPUs so far (0, 0 where it is unavailable).
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, field := range strings.Fields(line)[1:] {
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// readRecords loads the records of a file written with --record.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// envKey is the part of a stamp two compared records must share: the
// workload, tracing, host shape, toolchain and pinned workers. Commit
// and seed are what a comparison varies, so they are shown, not matched.
func envKey(s stamp) string {
	return fmt.Sprintf("workload=%s traced=%v gomaxprocs=%d numcpu=%d go=%s workers=%d",
		s.Workload, s.Traced, s.GOMAXPROCS, s.NumCPU, s.GoVersion, s.Workers)
}

// compareRecords prints, per metric, the median of the baseline records
// and of the candidate records and their ratio. It refuses when any two
// records disagree on their environment stamp.
func compareRecords(w io.Writer, basePath, candPath string) error {
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	cand, err := readRecords(candPath)
	if err != nil {
		return err
	}
	if len(base) == 0 || len(cand) == 0 {
		return fmt.Errorf("compare: both files need at least one record")
	}
	key := envKey(base[0].Stamp)
	for _, r := range append(append([]record(nil), base...), cand...) {
		if k := envKey(r.Stamp); k != key {
			return fmt.Errorf("compare refused: stamps differ:\n  %s\n  %s", key, k)
		}
	}
	steal := func(rs []record) float64 {
		var vs []float64
		for _, r := range rs {
			vs = append(vs, r.HostSteal)
		}
		return median(vs)
	}
	fmt.Fprintf(w, "%s\nbaseline %s (%d runs, median host steal %.3f), candidate %s (%d runs, median host steal %.3f)\n",
		key, base[0].Stamp.Commit, len(base), steal(base), cand[0].Stamp.Commit, len(cand), steal(cand))
	var names []string
	for n := range base[0].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var a, c []float64
		for _, r := range base {
			a = append(a, r.Metrics[n])
		}
		for _, r := range cand {
			c = append(c, r.Metrics[n])
		}
		ma, mc := median(a), median(c)
		fmt.Fprintf(w, "%-32s %14.4f %14.4f %8.3fx %s\n", n, ma, mc, ratio(mc, ma), units[n])
	}
	return nil
}
