package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"hsis/internal/telemetry"
)

// readTrace streams a job's trace endpoint to the end, returning the
// parsed event-kind counts. Fails the test on any malformed JSONL line.
func readTrace(t *testing.T, base, path string) map[string]int {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace %s: %d", path, resp.StatusCode)
	}
	kinds := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if ev.Ev == "" {
			t.Fatalf("JSONL line without ev: %q", line)
		}
		kinds[ev.Ev]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return kinds
}

// TestConcurrentTracedJobs is the proof that the solo-trace exec gate
// is gone: two traced jobs are held at a barrier until both are
// running, so they verifiably execute concurrently, and both must
// stream complete, well-formed JSONL traces.
func TestConcurrentTracedJobs(t *testing.T) {
	var barrier sync.WaitGroup
	barrier.Add(2)
	cfg := Config{
		Workers: 2,
		testHookRunning: func(*Job) {
			barrier.Done()
			barrier.Wait() // neither job executes until both are running
		},
	}
	_, base := newTestServer(t, cfg)

	var views [2]JobView
	for i := range views {
		v, resp := postJob(t, base, Request{
			Builtin: "pingpong",
			Options: JobOptions{Trace: true},
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		if v.Trace == "" {
			t.Fatalf("traced job %d has no trace path", i)
		}
		views[i] = v
	}

	// Stream both traces concurrently while the jobs run.
	type streamed struct {
		kinds map[string]int
		i     int
	}
	results := make(chan streamed, 2)
	for i, v := range views {
		go func(i int, path string) {
			results <- streamed{kinds: readTrace(t, base, path), i: i}
		}(i, v.Trace)
	}
	for range views {
		r := <-results
		if len(r.kinds) == 0 {
			t.Errorf("job %d: trace stream contained no events", r.i)
		}
		if r.kinds["prop.check"] == 0 {
			t.Errorf("job %d: trace has no prop.check events (kinds: %v)", r.i, r.kinds)
		}
	}
	for i, v := range views {
		if got := waitTerminal(t, base, v.ID, 30*time.Second); got.Status != StatusDone {
			t.Fatalf("traced job %d: %s (%s)", i, got.Status, got.Error)
		}
	}

	m := getMetrics(t, base)
	if m.TracesWritten != 2 {
		t.Errorf("traces_written = %d, want 2", m.TracesWritten)
	}
}

// TestFlightRecordOnTimeout interrupts a long reachability with a short
// deadline and expects the job view to carry the flight recorder's last
// events as well-formed JSONL — without the job having asked for a
// trace. A job that completes normally must carry none.
func TestFlightRecordOnTimeout(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1})

	v, _ := postJob(t, base, Request{
		Builtin: longFixpoint,
		PIF:     "-",
		Options: JobOptions{Reach: true, TimeoutMS: 150},
	})
	got := waitTerminal(t, base, v.ID, 20*time.Second)
	if got.Status != StatusTimeout {
		t.Fatalf("status %s (%s), want timeout", got.Status, got.Error)
	}
	if len(got.FlightRecord) == 0 {
		t.Fatal("timed-out job has no flight record")
	}
	if len(got.FlightRecord) > telemetry.RecorderEvents {
		t.Fatalf("flight record has %d lines, ring holds %d",
			len(got.FlightRecord), telemetry.RecorderEvents)
	}
	kinds := map[string]int{}
	lastT := int64(-1)
	for _, line := range got.FlightRecord {
		var ev struct {
			Ev  string `json:"ev"`
			TUs int64  `json:"t_us"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad flight-record line %q: %v", line, err)
		}
		if ev.TUs < lastT {
			t.Fatalf("flight record out of order: t_us %d after %d", ev.TUs, lastT)
		}
		lastT = ev.TUs
		kinds[ev.Ev]++
	}
	// The ring must have caught the reachability in flight: reach.start
	// always lands before the fixpoint begins, and an interrupt that
	// bites mid-image can unwind before any reach.iter completes.
	if kinds["reach.start"] == 0 {
		t.Errorf("flight record has no reach.start event (kinds: %v)", kinds)
	}

	v2, _ := postJob(t, base, Request{Builtin: "pingpong", PIF: "-"})
	if done := waitTerminal(t, base, v2.ID, 30*time.Second); len(done.FlightRecord) != 0 {
		t.Errorf("completed job carries a flight record (%d lines)", len(done.FlightRecord))
	}
}

// promLineRE matches one sample line of text exposition format 0.0.4.
var promLineRE = regexp.MustCompile(
	`^hsis_[a-z_]+(_bucket|_sum|_count)?(\{[a-z]+="[^"]*"(,[a-z]+="[^"]*")*\})? -?[0-9+.eInf-]+$`)

// checkPromText asserts a /metrics?format=prom body parses as
// Prometheus text exposition and returns the set of family names seen.
func checkPromText(t *testing.T, body string) map[string]bool {
	t.Helper()
	fams := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fams[strings.Fields(line)[2]] = true
			continue
		}
		if !promLineRE.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
	return fams
}

// TestMetricsUnderChurn scrapes both metrics formats continuously while
// jobs from two tenants run, then checks the final exposition carries
// the per-tenant latency histograms. Run under -race, the concurrent
// scrapes double as the registry's race test.
func TestMetricsUnderChurn(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 4, QueueCapacity: 32})

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for _, url := range []string{base + "/metrics", base + "/metrics?format=prom"} {
		scrapers.Add(1)
		go func(url string) {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(url)
	}

	var ids []string
	for i := 0; i < 8; i++ {
		tenant := "alpha"
		if i%2 == 1 {
			tenant = "beta"
		}
		v, resp := postJob(t, base, Request{Builtin: "pingpong", PIF: "-", Tenant: tenant})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		if v := waitTerminal(t, base, id, 30*time.Second); v.Status != StatusDone {
			t.Fatalf("job %s: %s (%s)", id, v.Status, v.Error)
		}
	}
	close(stop)
	scrapers.Wait()

	resp, err := http.Get(base + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("prom content type %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	fams := checkPromText(t, body)
	for _, want := range []string{
		"hsis_queue_wait_seconds", "hsis_job_duration_seconds",
		"hsis_jobs_completed_total", "hsis_artifact_cache_hits_total",
	} {
		if !fams[want] {
			t.Errorf("exposition is missing family %s", want)
		}
	}
	for _, want := range []string{
		`hsis_queue_wait_seconds_count{tenant="alpha"} 4`,
		`hsis_queue_wait_seconds_count{tenant="beta"} 4`,
		`hsis_job_duration_seconds_count{tenant="alpha"} 4`,
		`hsis_jobs_completed_total 8`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}

	// The JSON surface must agree on the per-tenant breakdown.
	m := getMetrics(t, base)
	for _, tenant := range []string{"alpha", "beta"} {
		tm, ok := m.Tenants[tenant]
		if !ok {
			t.Fatalf("JSON metrics have no tenant %q (have %v)", tenant, m.Tenants)
		}
		if tm.QueueWait.Count != 4 || tm.JobDuration.Count != 4 {
			t.Errorf("tenant %s counts queue=%d dur=%d, want 4/4",
				tenant, tm.QueueWait.Count, tm.JobDuration.Count)
		}
		if tm.JobDuration.P99MS <= 0 {
			t.Errorf("tenant %s job-duration p99 = %v, want > 0", tenant, tm.JobDuration.P99MS)
		}
	}
	if len(m.Latency) == 0 {
		t.Error("JSON metrics carry no engine latency summaries")
	}
}

// TestMetricsNameLint is the metrics-name lint wired into `make check`:
// every exported series name matches hsis_[a-z_]+ and is registered
// exactly once.
func TestMetricsNameLint(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	names := s.Registry().Names()
	if len(names) == 0 {
		t.Fatal("registry is empty")
	}
	seen := map[string]bool{}
	for _, name := range names {
		if !telemetry.MetricNameRE.MatchString(name) {
			t.Errorf("metric %q does not match %s", name, telemetry.MetricNameRE)
		}
		if seen[name] {
			t.Errorf("metric %q registered twice", name)
		}
		seen[name] = true
	}
	t.Logf("%d series lint clean", len(names))
}

// TestEngineLatencyFolded checks a finished job's kernel histograms
// land in the per-engine families under the engine the job ran on:
// pingpong has too little replication for the plan to pay, so it builds
// T and images through it.
func TestEngineLatencyFolded(t *testing.T) {
	s, base := newTestServer(t, Config{Workers: 1})

	v, _ := postJob(t, base, Request{
		Builtin: "pingpong",
		PIF:     "-",
		Options: JobOptions{Reach: true},
	})
	if got := waitTerminal(t, base, v.ID, 30*time.Second); got.Status != StatusDone {
		t.Fatalf("job: %s (%s)", got.Status, got.Error)
	}

	found := false
	for _, ls := range s.Registry().HistogramSnapshots() {
		if ls.Name == "hsis_fixpoint_iteration_seconds" && ls.Value == "monolithic" && ls.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Error(`no fixpoint iterations folded into engine="monolithic"`)
	}
	var buf bytes.Buffer
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `hsis_fixpoint_iteration_seconds_count{engine="monolithic"}`) {
		t.Error("exposition is missing the per-engine fixpoint family")
	}
}

// TestConeJobFoldsUnderDesignEngine pins the label of a
// cone-of-influence job: its properties are checked on reduced
// sub-networks, but the whole job's histograms fold under the engine the
// full design resolved to (clustered, for a replicated scheduler).
func TestConeJobFoldsUnderDesignEngine(t *testing.T) {
	s, base := newTestServer(t, Config{Workers: 1})

	v, _ := postJob(t, base, Request{
		Builtin: "scheduler-8",
		PIF:     "ctl start_marks_busy AG(s0=1 -> AX b0=1)\n",
		Options: JobOptions{ConeOfInfluence: true},
	})
	if got := waitTerminal(t, base, v.ID, 60*time.Second); got.Status != StatusDone {
		t.Fatalf("job: %s (%s)", got.Status, got.Error)
	}
	counts := map[string]int64{}
	for _, ls := range s.Registry().HistogramSnapshots() {
		if ls.Name == "hsis_image_seconds" {
			counts[ls.Value] += ls.Count
		}
	}
	if counts["clustered"] == 0 || len(counts) != 1 {
		t.Errorf(`image histograms by engine = %v, want only engine="clustered"`, counts)
	}
}

// TestUnknownOptionsRejectedAtSubmission checks that an unknown reorder
// policy is a 400 at submission, that the retired "image" option is an
// unknown JSON field and so ignored, and that no client string ever
// becomes a metric label: the per-engine families are keyed by the
// engine the design resolved to.
func TestUnknownOptionsRejectedAtSubmission(t *testing.T) {
	s, base := newTestServer(t, Config{Workers: 1})

	bad := []string{"bogus-1", "bogus-2", "partitioned"}
	for _, policy := range bad {
		_, resp := postJob(t, base, Request{Builtin: "pingpong", PIF: "-", Options: JobOptions{Reorder: policy}})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("reorder %q: status %d, want 400", policy, resp.StatusCode)
		}
	}

	// One good job carrying the retired option, so the per-engine
	// families have a child to show.
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(
		`{"builtin":"pingpong","pif":"-","options":{"image":"bogus-3","reach":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job with an image option: status %d, want 202", resp.StatusCode)
	}
	if got := waitTerminal(t, base, v.ID, 30*time.Second); got.Status != StatusDone {
		t.Fatalf("job: %s (%s)", got.Status, got.Error)
	}
	bad = append(bad, "bogus-3")
	mono := false
	for _, ls := range s.Registry().HistogramSnapshots() {
		for _, b := range bad {
			if ls.Value == b {
				t.Errorf("%s has a %q child", ls.Name, b)
			}
		}
		if ls.Name == "hsis_fixpoint_iteration_seconds" && ls.Value != "monolithic" {
			t.Errorf("%s has a %q child; pingpong runs on monolithic", ls.Name, ls.Value)
		}
		mono = mono || (ls.Name == "hsis_fixpoint_iteration_seconds" && ls.Value == "monolithic")
	}
	if !mono {
		t.Error(`the job was not folded into engine="monolithic"`)
	}
	for _, url := range []string{base + "/metrics", base + "/metrics?format=prom"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, b := range bad {
			if strings.Contains(string(body), b) {
				t.Errorf("%s shows %q", url, b)
			}
		}
	}
}
