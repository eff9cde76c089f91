package hsis

// End-to-end tests of the telemetry layer: a golden JSONL trace on a
// small design (deterministic fields only — clock fields are stripped),
// and the acceptance check that a traced mdlc2 reachability run agrees
// with the manager's own statistics.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hsis/internal/core"
	"hsis/internal/reach"
	"hsis/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// timeFields are stripped before golden comparison: everything else in a
// trace is deterministic run to run (node counts, step indices, engine
// names), the clock is not.
var timeFields = map[string]bool{"t_us": true, "elapsed_us": true}

// normalizeTrace parses each JSONL line, drops the time fields, and
// re-encodes with sorted keys, one object per line.
func normalizeTrace(t *testing.T, raw []byte) string {
	t.Helper()
	var out strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("trace line is not JSON: %q: %v", line, err)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			if !timeFields[k] {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		// "ev" leads for readability; it always exists.
		parts := []string{fmt.Sprintf("ev=%v", m["ev"])}
		for _, k := range keys {
			if k == "ev" {
				continue
			}
			parts = append(parts, fmt.Sprintf("%s=%v", k, m[k]))
		}
		out.WriteString(strings.Join(parts, " "))
		out.WriteByte('\n')
	}
	return out.String()
}

// withTracer arms a buffer-backed tracer around fn and returns the raw
// JSONL the run produced. The sampler is not started: its ticks are
// time-driven and would break determinism.
func withTracer(t *testing.T, fn func()) []byte {
	t.Helper()
	if telemetry.Enabled() {
		t.Fatal("telemetry already armed")
	}
	var buf bytes.Buffer
	tr := telemetry.New(&buf)
	telemetry.Arm(tr)
	defer func() {
		telemetry.Disarm()
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	fn()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTrace pins the deterministic shape of a traced reachability
// run on the smallest bundled design: event kinds, step indices and node
// counts must reproduce exactly. Regenerate with `go test -run
// TestGoldenTrace -update .` after an intentional change.
func TestGoldenTrace(t *testing.T) {
	w := load2(t, "pingpong", core.Options{})
	raw := withTracer(t, func() {
		res := reach.Forward(w.Net, reach.Options{})
		if !res.Converged {
			t.Fatal("reachability diverged")
		}
	})
	got := normalizeTrace(t, raw)
	golden := filepath.Join("testdata", "trace_pingpong.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("trace drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestTraceMatchesStats is the acceptance criterion: on mdlc2, the
// trace's reach.iter events must agree with the reachability result
// (every image computation appears, the last productive step index is
// res.Steps), and the bdd.stats event's peak_live must equal the
// manager's own PeakLive.
func TestTraceMatchesStats(t *testing.T) {
	if testing.Short() {
		t.Skip("design builds are slow")
	}
	w := load2(t, "mdlc2", core.Options{})
	var res *reach.Result
	raw := withTracer(t, func() {
		res = reach.Forward(w.Net, reach.Options{})
		if !res.Converged {
			t.Fatal("reachability diverged")
		}
		st := w.Net.Manager().Stats()
		telemetry.T().Emit("bdd.stats", st.TelemetryFields()...)
	})
	iters := 0
	maxStep := 0
	var statsEv map[string]any
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		switch m["ev"] {
		case "reach.iter":
			iters++
			if s := int(m["step"].(float64)); s > maxStep {
				maxStep = s
			}
		case "bdd.stats":
			statsEv = m
		}
	}
	// The loop runs one image computation past the last productive step
	// to observe the empty frontier, so the trace holds Steps+1 events
	// and the highest step index is Steps itself.
	if iters != res.Steps+1 {
		t.Errorf("reach.iter events = %d, want %d (res.Steps+1)", iters, res.Steps+1)
	}
	if maxStep != res.Steps {
		t.Errorf("max step in trace = %d, want res.Steps = %d", maxStep, res.Steps)
	}
	if statsEv == nil {
		t.Fatal("no bdd.stats event in trace")
	}
	st := w.Net.Manager().Stats()
	if got := int(statsEv["peak_live"].(float64)); got != st.PeakLive {
		t.Errorf("trace peak_live = %d, Manager.Stats().PeakLive = %d", got, st.PeakLive)
	}
	if got := int(statsEv["live"].(float64)); got != st.LiveNodes {
		t.Errorf("trace live = %d, Manager.Stats().LiveNodes = %d", got, st.LiveNodes)
	}
}

// TestTraceDisabledByDefault guards the no-op contract at the package
// boundary: with no tracer armed, a full verification run must emit
// nothing and leave the gauges untouched by the run itself.
func TestTraceDisabledByDefault(t *testing.T) {
	if telemetry.Enabled() {
		t.Fatal("telemetry armed at test start")
	}
	w := load2(t, "pingpong", core.Options{})
	res := reach.Forward(w.Net, reach.Options{})
	if !res.Converged {
		t.Fatal("reachability diverged")
	}
	if telemetry.Enabled() {
		t.Fatal("verification run armed telemetry by itself")
	}
}

// TestNodeCountsOnlyWhenTraced checks that a scope without a JSONL
// tracer — the flight recorder every hsisd job carries — receives the
// fixpoint and image-replay events without their node-count fields,
// which cost one BDD traversal each. philos-4 runs T-free under auto,
// so the iso plans' quant.cluster spans are among the events.
func TestNodeCountsOnlyWhenTraced(t *testing.T) {
	rec := telemetry.NewRecorder()
	sc := telemetry.NewScope(nil).WithRecorder(rec)
	w := load2(t, "philos-4", core.Options{Telemetry: sc})
	w.ReachableStatesExact()
	w.VerifyAll()
	kinds := map[string]bool{}
	for _, line := range rec.Dump() {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad recorder line %q: %v", line, err)
		}
		kinds[m["ev"].(string)] = true
		for k := range m {
			if strings.HasSuffix(k, "_nodes") {
				t.Fatalf("untraced scope recorded %s: %s", k, line)
			}
		}
	}
	// The ring keeps the last 256 events: CTL fixpoints and plan replays.
	for _, want := range []string{"ctl.eu.iter", "quant.cluster"} {
		if !kinds[want] {
			t.Errorf("recorder saw no %s event (kinds: %v)", want, kinds)
		}
	}
}
