package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hsis/internal/core"
	"hsis/internal/designs"
)

// newTestServer builds a server + HTTP frontend with test-friendly
// defaults; the caller gets the engine (for Metrics etc.) and the base
// URL.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts.URL
}

func postJob(t *testing.T, base string, req Request) (JobView, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	json.NewDecoder(resp.Body).Decode(&v)
	return v, resp
}

func getJob(t *testing.T, base, id string) JobView {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitTerminal polls until the job reaches a terminal status.
func waitTerminal(t *testing.T, base, id string, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := getJob(t, base, id)
		if v.Status.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s after %v", id, v.Status, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getMetrics(t *testing.T, base string) Metrics {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEndToEndVerdictParity submits the pingpong benchmark through the
// HTTP API and checks every verdict against a direct in-process run of
// the same design — the daemon must agree with the CLI flow.
func TestEndToEndVerdictParity(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 2})

	v, resp := postJob(t, base, Request{Builtin: "pingpong", Options: JobOptions{Reach: true}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	got := waitTerminal(t, base, v.ID, 30*time.Second)
	if got.Status != StatusDone {
		t.Fatalf("status %s (%s), want done", got.Status, got.Error)
	}

	d, err := designs.Get("pingpong")
	if err != nil {
		t.Fatal(err)
	}
	ws, err := core.LoadVerilogString(d.Verilog, "pingpong.v", d.Top, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.AddPIFString(d.PIF, "props.pif"); err != nil {
		t.Fatal(err)
	}
	want := ws.VerifyAll()
	if len(got.Result.Properties) != len(want) {
		t.Fatalf("daemon verified %d properties, direct run %d",
			len(got.Result.Properties), len(want))
	}
	for i, pr := range want {
		gp := got.Result.Properties[i]
		if gp.Name != pr.Name || gp.Pass != pr.Pass {
			t.Errorf("property %d: daemon %s=%v, direct %s=%v",
				i, gp.Name, gp.Pass, pr.Name, pr.Pass)
		}
	}
	if wantStates := ws.ReachableStatesExact().String(); got.Result.ReachedStates != wantStates {
		t.Errorf("reached states %s, want %s", got.Result.ReachedStates, wantStates)
	}
}

// TestArtifactCacheHit resubmits one design and expects the second job
// to skip the frontend, visibly in both the result and /metrics.
func TestArtifactCacheHit(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1})

	req := Request{Builtin: "pingpong", PIF: "-"}
	v1, _ := postJob(t, base, req)
	r1 := waitTerminal(t, base, v1.ID, 30*time.Second)
	if r1.Status != StatusDone {
		t.Fatalf("first job: %s (%s)", r1.Status, r1.Error)
	}
	if r1.Result.CacheHit {
		t.Error("first submission reported a cache hit")
	}

	v2, _ := postJob(t, base, req)
	r2 := waitTerminal(t, base, v2.ID, 30*time.Second)
	if r2.Status != StatusDone {
		t.Fatalf("second job: %s (%s)", r2.Status, r2.Error)
	}
	if !r2.Result.CacheHit {
		t.Error("resubmission missed the artifact cache")
	}

	m := getMetrics(t, base)
	if m.ArtifactCache.Hits < 1 {
		t.Errorf("metrics cache hits = %d, want >= 1", m.ArtifactCache.Hits)
	}
	if m.ArtifactCache.Misses != 1 {
		t.Errorf("metrics cache misses = %d, want 1", m.ArtifactCache.Misses)
	}
	// Different properties on the same source are a different artifact.
	v3, _ := postJob(t, base, Request{Builtin: "pingpong"})
	r3 := waitTerminal(t, base, v3.ID, 30*time.Second)
	if r3.Status != StatusDone {
		t.Fatalf("third job: %s (%s)", r3.Status, r3.Error)
	}
	if r3.Result.CacheHit {
		t.Error("job with different PIF hit the cache of the bare artifact")
	}
}

// TestAdmissionControl fills the queue behind a deliberately held
// worker and expects 429 + Retry-After for the overflow submission.
func TestAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	cfg := Config{
		Workers:       1,
		QueueCapacity: 2,
		testHookRunning: func(j *Job) {
			once.Do(func() { <-release }) // first dispatched job holds the worker
		},
	}
	_, base := newTestServer(t, cfg)
	defer close(release)

	req := Request{Builtin: "pingpong", PIF: "-"}
	// First job occupies the worker; give the pool a moment to pop it
	// so the queue is empty before the backlog fills.
	v1, resp := postJob(t, base, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: %d", resp.StatusCode)
	}
	waitStatus(t, base, v1.ID, StatusRunning, 5*time.Second)

	ids := []string{v1.ID}
	for i := 0; i < 2; i++ {
		v, resp := postJob(t, base, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i+2, resp.StatusCode)
		}
		ids = append(ids, v.ID)
	}
	_, resp = postJob(t, base, req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	m := getMetrics(t, base)
	if m.JobsRejected != 1 {
		t.Errorf("jobs_rejected = %d, want 1", m.JobsRejected)
	}
	if m.QueueDepth != 2 {
		t.Errorf("queue_depth = %d, want 2", m.QueueDepth)
	}

	// Release the worker: everything admitted must finish.
	release <- struct{}{}
	for _, id := range ids {
		if v := waitTerminal(t, base, id, 30*time.Second); v.Status != StatusDone {
			t.Errorf("job %s: %s (%s)", id, v.Status, v.Error)
		}
	}
}

func waitStatus(t *testing.T, base, id string, want Status, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := getJob(t, base, id)
		if v.Status == want {
			return
		}
		if v.Status.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s", id, v.Status, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTenantFairness lets two tenants burst against one worker and
// checks both make progress in interleaved order.
func TestTenantFairness(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var order []string
	first := true
	cfg := Config{
		Workers:       1,
		QueueCapacity: 16,
		testHookRunning: func(j *Job) {
			mu.Lock()
			gate := first
			first = false
			if !gate {
				order = append(order, j.Tenant)
			}
			mu.Unlock()
			if gate {
				<-release // hold the worker while both tenants burst
			}
		},
	}
	s, base := newTestServer(t, cfg)

	req := Request{Builtin: "pingpong", PIF: "-"}
	v0, _ := postJob(t, base, req) // occupies the worker
	waitStatus(t, base, v0.ID, StatusRunning, 5*time.Second)

	var ids []string
	for i := 0; i < 4; i++ {
		r := req
		r.Tenant = "alpha"
		v, resp := postJob(t, base, r)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("alpha %d: %d", i, resp.StatusCode)
		}
		ids = append(ids, v.ID)
	}
	for i := 0; i < 4; i++ {
		r := req
		r.Tenant = "beta"
		v, resp := postJob(t, base, r)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("beta %d: %d", i, resp.StatusCode)
		}
		ids = append(ids, v.ID)
	}
	close(release)
	for _, id := range ids {
		if v := waitTerminal(t, base, id, 30*time.Second); v.Status != StatusDone {
			t.Errorf("job %s: %s (%s)", id, v.Status, v.Error)
		}
	}
	mu.Lock()
	got := strings.Join(order, ",")
	mu.Unlock()
	want := "alpha,beta,alpha,beta,alpha,beta,alpha,beta"
	if got != want {
		t.Errorf("dispatch order %s, want %s", got, want)
	}
	_ = s
}

// TestDeadlineInterruptsFixpoint gives mdlc2 a deadline far below its
// reachability time: the job must come back "timeout" without wedging
// its (only) worker, proven by a follow-up job completing.
func TestDeadlineInterruptsFixpoint(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1})

	v, resp := postJob(t, base, Request{
		Builtin: "mdlc2",
		PIF:     "-",
		Options: JobOptions{Image: "clustered", Reach: true, TimeoutMS: 100},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	got := waitTerminal(t, base, v.ID, 20*time.Second)
	if got.Status != StatusTimeout {
		t.Fatalf("status %s (%s), want timeout", got.Status, got.Error)
	}
	if !strings.Contains(got.Error, "deadline") {
		t.Errorf("timeout error %q does not mention the deadline", got.Error)
	}

	// The worker that was interrupted must still serve jobs.
	v2, _ := postJob(t, base, Request{Builtin: "pingpong", PIF: "-"})
	if r := waitTerminal(t, base, v2.ID, 30*time.Second); r.Status != StatusDone {
		t.Fatalf("follow-up job: %s (%s)", r.Status, r.Error)
	}

	m := getMetrics(t, base)
	if m.JobsTimedOut != 1 {
		t.Errorf("jobs_timed_out = %d, want 1", m.JobsTimedOut)
	}
}

// TestCancelRunningJob interrupts a long reachability via DELETE.
func TestCancelRunningJob(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1})

	v, _ := postJob(t, base, Request{
		Builtin: "mdlc2",
		PIF:     "-",
		Options: JobOptions{Image: "clustered", Reach: true},
	})
	waitStatus(t, base, v.ID, StatusRunning, 5*time.Second)
	time.Sleep(50 * time.Millisecond) // let it get into the fixpoint

	req, _ := http.NewRequest(http.MethodDelete, base+"/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	got := waitTerminal(t, base, v.ID, 20*time.Second)
	if got.Status != StatusCancelled {
		t.Fatalf("status %s, want cancelled", got.Status)
	}
}

// TestCancelQueuedJob cancels a job stuck behind a held worker.
func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	cfg := Config{
		Workers:         1,
		QueueCapacity:   4,
		testHookRunning: func(*Job) { once.Do(func() { <-release }) },
	}
	_, base := newTestServer(t, cfg)
	defer close(release)

	req := Request{Builtin: "pingpong", PIF: "-"}
	v1, _ := postJob(t, base, req)
	waitStatus(t, base, v1.ID, StatusRunning, 5*time.Second)
	v2, _ := postJob(t, base, req)

	hreq, _ := http.NewRequest(http.MethodDelete, base+"/jobs/"+v2.ID, nil)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := getJob(t, base, v2.ID); got.Status != StatusCancelled {
		t.Fatalf("queued job after cancel: %s, want cancelled", got.Status)
	}
	release <- struct{}{}
	if r := waitTerminal(t, base, v1.ID, 30*time.Second); r.Status != StatusDone {
		t.Fatalf("held job: %s (%s)", r.Status, r.Error)
	}
}

// TestTraceEndpoint runs a traced job and checks the streamed spool is
// valid JSONL with kernel events in it.
func TestTraceEndpoint(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 2})

	v, _ := postJob(t, base, Request{
		Builtin: "pingpong",
		Options: JobOptions{Trace: true},
	})
	if v.Trace == "" {
		t.Fatal("traced job view has no trace path")
	}
	resp, err := http.Get(base + v.Trace)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d", resp.StatusCode)
	}
	events := 0
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
		kinds[ev.Ev]++
		events++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("trace stream contained no events")
	}
	if kinds["prop.check"] == 0 {
		t.Errorf("trace has no prop.check events (kinds: %v)", kinds)
	}
	if got := waitTerminal(t, base, v.ID, 30*time.Second); got.Status != StatusDone {
		t.Fatalf("traced job: %s (%s)", got.Status, got.Error)
	}
}

// TestConcurrentSharedArtifact hammers one design from many concurrent
// jobs: all must succeed with identical verdicts (the artifact is
// shared; the workspaces are not).
func TestConcurrentSharedArtifact(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 4, QueueCapacity: 32})

	const n = 8
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		v, resp := postJob(t, base, Request{Builtin: "pingpong"})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		ids[i] = v.ID
	}
	verdictKey := func(props []PropertyVerdict) string {
		var sb strings.Builder
		for _, p := range props {
			fmt.Fprintf(&sb, "%s/%s=%v;", p.Name, p.Kind, p.Pass)
		}
		return sb.String()
	}
	first := ""
	for i, id := range ids {
		v := waitTerminal(t, base, id, 60*time.Second)
		if v.Status != StatusDone {
			t.Fatalf("job %d: %s (%s)", i, v.Status, v.Error)
		}
		if first == "" {
			first = verdictKey(v.Result.Properties)
			continue
		}
		if got := verdictKey(v.Result.Properties); got != first {
			t.Errorf("job %d verdicts diverge: %v vs %v", i, got, first)
		}
	}
	m := getMetrics(t, base)
	if m.ArtifactCache.Misses != 1 {
		t.Errorf("artifact compiled %d times for %d identical jobs", m.ArtifactCache.Misses, n)
	}
}

// TestInvalidRequests covers the 400 paths.
func TestInvalidRequests(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1})
	for _, req := range []Request{
		{},                                  // no source
		{Builtin: "pingpong", Verilog: "x"}, // two sources
		{Verilog: "module m; endmodule"},    // verilog without top
		{Builtin: "does-not-exist"},         // unknown builtin
	} {
		_, resp := postJob(t, base, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("request %+v: %d, want 400", req, resp.StatusCode)
		}
	}
	resp, err := http.Get(base + "/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
}

// TestWorkersOptionIgnored submits a job carrying a "workers" option,
// which JobOptions does not have: the decoder ignores the field and the
// job runs to pingpong's usual verdicts.
func TestWorkersOptionIgnored(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1})
	body := `{"builtin":"pingpong","options":{"workers":4,"reach":true}}`
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d, want 202", resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, base, v.ID, 30*time.Second)
	if got.Status != StatusDone {
		t.Fatalf("status %s (%s), want done", got.Status, got.Error)
	}
	if got.Result.ReachedStates != "4" {
		t.Errorf("reached states %s, want 4", got.Result.ReachedStates)
	}
	for _, p := range got.Result.Properties {
		if !p.Pass {
			t.Errorf("pingpong property %s failed", p.Name)
		}
	}
}
