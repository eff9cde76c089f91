// Package server implements hsisd, the verification-as-a-service
// daemon: an HTTP JSON job API in front of the HSIS verification flow.
//
// The concurrency architecture rests on three boundaries:
//
//   - Per-job isolation. Every job is verified in its own
//     core.Workspace, which owns a private bdd.Manager and mdd.Space.
//     Jobs never share BDD state, so a job that is cancelled mid-fixpoint
//     (cooperative interruption, see bdd.ErrInterrupted) simply abandons
//     its manager — any refcounts left dangling by the unwind die with
//     it, and no other job can observe the wreckage.
//
//   - Shared frontend artifacts. Parsing and flattening a design is
//     deterministic and produces a read-only core.CompiledDesign (the
//     flat model is sealed). Artifacts live in a content-addressed LRU
//     cache keyed by a hash of the sources, so resubmitting the same
//     design skips the frontend entirely; concurrent jobs instantiate
//     private workspaces from one shared artifact.
//
//   - Weighted fair admission. A bounded queue rejects work beyond
//     capacity (HTTP 429 + Retry-After) and dispatches queued jobs to
//     the worker pool by stride scheduling across tenants, so one
//     bursting tenant cannot starve another.
package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hsis/internal/core"
	"hsis/internal/telemetry"
)

// JobOptions tunes one verification job. The zero value is a sane
// default: auto image engine, no reordering, the server's default
// deadline.
type JobOptions struct {
	// Image selects the image-computation engine ("", "auto",
	// "monolithic", "partitioned", "clustered", "iso").
	Image string `json:"image,omitempty"`
	// Reorder selects the dynamic-reordering policy ("", "off",
	// "manual", "auto").
	Reorder string `json:"reorder,omitempty"`
	// ConeOfInfluence enables per-property cone-of-influence reduction.
	ConeOfInfluence bool `json:"coi,omitempty"`
	// TimeoutMS caps the job's execution time in milliseconds; 0 uses
	// the server default, and the server's MaxTimeout clamps it.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Reach additionally computes the exact reachable-state count.
	Reach bool `json:"reach,omitempty"`
	// Trace records the job's kernel telemetry to a per-job JSONL spool
	// file, streamed by GET /jobs/{id}/trace. Telemetry is scoped to the
	// job's own manager, so traced jobs run — and stream — concurrently
	// with each other and with untraced work.
	Trace bool `json:"trace,omitempty"`
}

// Request is one verification job submission. Exactly one design source
// must be given: Builtin (a named design from the embedded benchmark
// suite, scaled names like "philos-16" included), Verilog (requires
// Top), or BlifMV.
type Request struct {
	// Tenant attributes the job for fair scheduling; empty means the
	// "default" tenant.
	Tenant string `json:"tenant,omitempty"`

	Builtin string `json:"builtin,omitempty"`
	Verilog string `json:"verilog,omitempty"`
	Top     string `json:"top,omitempty"`
	BlifMV  string `json:"blifmv,omitempty"`
	// PIF holds the properties to verify (may be empty, e.g. for
	// reach-only jobs). For Builtin designs an empty PIF means the
	// design's bundled properties; pass PIF "-" to drop them.
	PIF string `json:"pif,omitempty"`

	Options JobOptions `json:"options"`
}

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states. Queued and Running are transient; the rest are
// terminal.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"      // verification completed (verdicts inside)
	StatusFailed    Status = "failed"    // compile or internal error
	StatusTimeout   Status = "timeout"   // deadline interrupted the run
	StatusCancelled Status = "cancelled" // DELETE /jobs/{id} interrupted the run
)

// Terminal reports whether a status is final.
func (s Status) Terminal() bool {
	switch s {
	case StatusDone, StatusFailed, StatusTimeout, StatusCancelled:
		return true
	}
	return false
}

// PropertyVerdict is one verified property in a job result.
type PropertyVerdict struct {
	Name      string `json:"name"`
	Kind      string `json:"kind"` // "ctl" or "lc"
	Pass      bool   `json:"pass"`
	ElapsedMS int64  `json:"elapsed_ms"`
	Error     string `json:"error,omitempty"`
}

// Result is a finished job's payload.
type Result struct {
	Design     string            `json:"design"`
	Properties []PropertyVerdict `json:"properties"`
	// ReachedStates is the exact reachable-state count in decimal
	// (present when Options.Reach was set).
	ReachedStates string `json:"reached_states,omitempty"`
	// CacheHit reports whether the design artifact came from the
	// content-addressed cache rather than a fresh frontend run.
	CacheHit  bool  `json:"cache_hit"`
	ElapsedMS int64 `json:"elapsed_ms"`
	// PeakLiveNodes is the job manager's peak live BDD node count.
	PeakLiveNodes int `json:"peak_live_nodes"`
}

// Job is one submitted verification request and its lifecycle.
type Job struct {
	ID     string
	Tenant string

	req Request
	key string // artifact cache key

	mu       sync.Mutex
	status   Status
	result   *Result
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time

	// done closes when the job reaches a terminal status.
	done chan struct{}

	// cancelRequested is set by Cancel; deadlineHit by the deadline
	// timer. Whichever flag is set when the interrupted run unwinds
	// decides between StatusCancelled and StatusTimeout (deadline wins
	// ties — the timer only fires after a real deadline).
	cancelRequested atomic.Bool
	deadlineHit     atomic.Bool
	// ws is the job's workspace once instantiated; Cancel and the
	// deadline timer interrupt through it.
	ws atomic.Pointer[core.Workspace]

	tracePath string // JSONL spool file, when Options.Trace is set

	// scope is the job's telemetry (tracer when traced, flight recorder
	// and metric set always). Written and read only on the job's worker
	// goroutine, between setRunning and finish.
	scope *telemetry.Scope

	// flight holds the flight-recorder dump (canonical JSONL lines) of a
	// job that ended failed/timeout/cancelled; nil otherwise. Guarded by
	// mu, like the rest of the terminal state.
	flight []string
}

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Result returns the job's result and error message (result is nil
// until the job is done; errMsg is empty unless it failed or was
// interrupted).
func (j *Job) Result() (*Result, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.errMsg
}

// Done returns a channel closed when the job reaches a terminal status.
func (j *Job) Done() <-chan struct{} { return j.done }

// interrupt requests cooperative cancellation of the job's running
// verification, if a workspace exists yet. The execute path re-checks
// the request flags right after publishing the workspace, so a request
// that lands before instantiation is not lost.
func (j *Job) interrupt() {
	if ws := j.ws.Load(); ws != nil {
		ws.Interrupt()
	}
}

// setRunning transitions queued → running. Returns false if the job was
// cancelled while queued.
func (j *Job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	return true
}

// setFlightRecord stashes the flight-recorder dump for the job view.
func (j *Job) setFlightRecord(lines []string) {
	j.mu.Lock()
	j.flight = lines
	j.mu.Unlock()
}

// finish transitions to a terminal status (idempotent: the first
// terminal transition wins).
func (j *Job) finish(st Status, res *Result, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return
	}
	j.status = st
	j.result = res
	j.errMsg = errMsg
	j.finished = time.Now()
	close(j.done)
}

// validate checks a request for structural problems before admission.
func (r *Request) validate() error {
	sources := 0
	if r.Builtin != "" {
		sources++
	}
	if r.Verilog != "" {
		sources++
	}
	if r.BlifMV != "" {
		sources++
	}
	if sources != 1 {
		return errors.New("exactly one of builtin, verilog, blifmv must be given")
	}
	if r.Verilog != "" && r.Top == "" {
		return errors.New("verilog source requires top")
	}
	if r.Options.TimeoutMS < 0 {
		return fmt.Errorf("negative timeout_ms %d", r.Options.TimeoutMS)
	}
	return nil
}
