package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hsis/internal/bdd"
	"hsis/internal/core"
	"hsis/internal/designs"
	"hsis/internal/telemetry"
)

// Config tunes a Server. Zero fields take the documented defaults.
type Config struct {
	// Workers is the job worker pool size: how many jobs verify
	// concurrently, each in its own workspace. Zero auto-sizes from the
	// CPU count (NumCPU/2, clamped to [2, 8]).
	Workers int
	// QueueCapacity bounds the admission queue (default 32); a push
	// beyond it returns ErrQueueFull (HTTP 429).
	QueueCapacity int
	// CacheEntries bounds the artifact LRU (default 64 designs).
	CacheEntries int
	// SpoolDir holds per-job trace files (default: a fresh directory
	// under os.TempDir).
	SpoolDir string
	// DefaultTimeout applies to jobs that request none (default 5m);
	// MaxTimeout clamps requested deadlines (default: DefaultTimeout).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// TenantWeights sets per-tenant dispatch weights (default 1 each).
	TenantWeights map[string]int

	// testHookRunning, when set, is called on the worker goroutine right
	// after a job turns running and before it executes — tests use it to
	// observe dispatch order and to hold a worker busy deterministically.
	testHookRunning func(*Job)
}

// Server is the hsisd job engine: admission queue, worker pool, and
// artifact cache. It is transport-agnostic; Handler() (http.go) bolts
// the JSON API on top.
type Server struct {
	cfg   Config
	queue *jobQueue
	cache *artifactCache

	mu     sync.Mutex
	jobs   map[string]*Job
	nextID int64

	wg      sync.WaitGroup
	closing atomic.Bool

	// counters (atomic; surfaced by /metrics)
	submitted, rejected          atomic.Int64
	completed, failed            atomic.Int64
	timedOut, cancelled          atomic.Int64
	running                      atomic.Int64
	kernelMu                     sync.Mutex
	kernelTotals                 KernelTotals
	tracesWritten, traceFailures atomic.Int64

	// reg exports every hsis_* series (Prometheus text + JSON summaries);
	// the histogram families below are its members (see metrics.go).
	reg          *telemetry.Registry
	queueWait    *telemetry.HistogramVec // by tenant: admission → execution start
	jobDuration  *telemetry.HistogramVec // by tenant: admission → terminal status
	jobExec      *telemetry.HistogramVec // by tenant: execution start → terminal
	fixpointIter *telemetry.HistogramVec // by engine: one fixpoint frontier extension
	imageTime    *telemetry.HistogramVec // by engine: one full image computation
	gcPause      *telemetry.HistogramVec // by engine: one GC's sweep and rebuild
	gcMark       *telemetry.HistogramVec // by engine: one GC's mark phase
	reorderTime  *telemetry.HistogramVec // by engine: one reordering session
	cacheLookup  *telemetry.HistogramVec // by result (hit/miss): artifact lookup
}

// New builds a server and starts its worker pool. Close shuts it down.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		// Auto-size from the host: one job worker per two CPUs keeps
		// headroom for each job's own BDD kernel workers, floored at 2
		// so a small host still overlaps compile and execution, capped
		// at 8 because beyond that the kernels fight over memory
		// bandwidth long before the pool runs dry.
		cfg.Workers = runtime.NumCPU() / 2
		if cfg.Workers < 2 {
			cfg.Workers = 2
		}
		if cfg.Workers > 8 {
			cfg.Workers = 8
		}
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 32
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 64
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 5 * time.Minute
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = cfg.DefaultTimeout
	}
	if cfg.SpoolDir == "" {
		dir, err := os.MkdirTemp("", "hsisd-spool-")
		if err != nil {
			return nil, err
		}
		cfg.SpoolDir = dir
	} else if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		queue: newJobQueue(cfg.QueueCapacity, cfg.TenantWeights),
		cache: newArtifactCache(cfg.CacheEntries),
		jobs:  make(map[string]*Job),
	}
	s.initRegistry()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Close stops admission, cancels queued jobs, interrupts running ones,
// and waits for the workers to drain.
func (s *Server) Close() {
	s.closing.Store(true)
	for _, j := range s.queue.drain() {
		j.finish(StatusCancelled, nil, "server shutting down")
		s.cancelled.Add(1)
	}
	s.queue.close()
	s.mu.Lock()
	for _, j := range s.jobs {
		if j.Status() == StatusRunning {
			j.cancelRequested.Store(true)
			j.interrupt()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Submit validates and enqueues a request. ErrQueueFull means the
// caller should retry later (HTTP 429).
func (s *Server) Submit(req Request) (*Job, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	if s.closing.Load() {
		return nil, errQueueClosed
	}
	kind, src, top, pif, design, err := resolveSources(req)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("job-%06d", s.nextID)
	s.mu.Unlock()
	j := &Job{
		ID:      id,
		Tenant:  req.Tenant,
		req:     req,
		key:     artifactKey(kind, src, top, pif),
		status:  StatusQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	// Stash the resolved sources so execution does not re-resolve.
	j.req.Verilog, j.req.Top, j.req.BlifMV, j.req.PIF = "", top, "", pif
	if kind == "verilog" {
		j.req.Verilog = src
	} else {
		j.req.BlifMV = src
	}
	j.req.Builtin = design
	if req.Options.Trace {
		j.tracePath = filepath.Join(s.cfg.SpoolDir, id+".jsonl")
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()
	if err := s.queue.push(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		if errors.Is(err, ErrQueueFull) {
			s.rejected.Add(1)
		}
		return nil, err
	}
	s.submitted.Add(1)
	return j, nil
}

// resolveSources normalizes a request to (kind, source, top, pif) —
// expanding Builtin names via the embedded suite — plus a display name.
func resolveSources(req Request) (kind, src, top, pif, design string, err error) {
	pif = req.PIF
	if pif == "-" {
		pif = ""
	}
	switch {
	case req.Builtin != "":
		d, derr := designs.Get(req.Builtin)
		if derr != nil {
			return "", "", "", "", "", derr
		}
		if req.PIF == "" {
			pif = d.PIF // bundled properties by default
		}
		return "verilog", d.Verilog, d.Top, pif, d.Name, nil
	case req.Verilog != "":
		return "verilog", req.Verilog, req.Top, pif, req.Top, nil
	default:
		name := req.Top
		if name == "" {
			name = "blifmv"
		}
		return "blifmv", req.BlifMV, req.Top, pif, name, nil
	}
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation: a queued job turns cancelled
// immediately (the queue skips it lazily); a running job is interrupted
// at its next fixpoint safe point. Returns false for unknown IDs.
func (s *Server) Cancel(id string) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	j.cancelRequested.Store(true)
	j.mu.Lock()
	queued := j.status == StatusQueued
	j.mu.Unlock()
	if queued {
		j.finish(StatusCancelled, nil, "cancelled while queued")
		s.cancelled.Add(1)
		return true
	}
	j.interrupt()
	return true
}

// worker is one pool goroutine: pop, execute, repeat until close.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, err := s.queue.pop()
		if err != nil {
			return
		}
		if !j.setRunning() {
			continue // cancelled between push and pop
		}
		s.queueWait.With(tenantLabel(j.Tenant)).Observe(time.Since(j.created))
		if s.cfg.testHookRunning != nil {
			s.cfg.testHookRunning(j)
		}
		s.running.Add(1)
		s.execute(j)
		s.running.Add(-1)
	}
}

// execute runs one job to a terminal status. It never lets a panic out:
// an interrupt unwinds into timeout/cancelled, anything else into
// failed, so a poisoned job cannot wedge its worker.
func (s *Server) execute(j *Job) {
	start := time.Now()
	if j.cancelRequested.Load() {
		j.finish(StatusCancelled, nil, "cancelled before start")
		s.cancelled.Add(1)
		s.observeJobDone(j)
		return
	}

	// Per-job telemetry scope: a flight recorder and metric set always,
	// plus a JSONL tracer when the job asked for one. The scope is
	// threaded into the job's private manager through core.Options, so
	// any number of traced jobs run (and stream) concurrently.
	var tracer *telemetry.Tracer
	if j.req.Options.Trace {
		t, err := telemetry.OpenTrace(j.tracePath)
		if err != nil {
			j.finish(StatusFailed, nil, "trace spool: "+err.Error())
			s.failed.Add(1)
			s.observeJobDone(j)
			return
		}
		tracer = t
	}
	j.scope = telemetry.NewScope(tracer).
		WithRecorder(telemetry.NewRecorder()).
		WithMetrics(telemetry.NewMetricSet())
	if tracer != nil {
		j.scope.StartSampler(0)
	}

	st, res, msg := s.runWithDeadline(j, start)

	// The tracer must flush and close before the job turns terminal:
	// trace followers stop at (terminal status, EOF), so a late flush
	// would truncate their stream. Scope.Close stops the sampler first.
	err := j.scope.Close()
	if tracer != nil {
		if err != nil {
			s.traceFailures.Add(1)
		} else {
			s.tracesWritten.Add(1)
		}
	}
	s.foldJobMetrics(engineLabel(j.req.Options.Image), j.scope.Metrics())

	// A job that dies abnormally keeps its last moments: the flight
	// recorder's ring is dumped into the job view, so post-mortems don't
	// need a re-run with tracing on.
	if st != StatusDone {
		j.setFlightRecord(j.scope.Recorder().Dump())
	}

	j.finish(st, res, msg)
	switch st {
	case StatusDone:
		s.completed.Add(1)
	case StatusTimeout:
		s.timedOut.Add(1)
	case StatusCancelled:
		s.cancelled.Add(1)
	default:
		s.failed.Add(1)
	}
	s.observeJobDone(j)
}

// observeJobDone records the job's admission-to-terminal latency (and,
// for jobs that actually ran, its execution latency) into the
// per-tenant histograms. Called on the worker goroutine that ran the
// job, so reading j.started without the lock is safe.
func (s *Server) observeJobDone(j *Job) {
	tenant := tenantLabel(j.Tenant)
	s.jobDuration.With(tenant).Observe(time.Since(j.created))
	if !j.started.IsZero() {
		s.jobExec.With(tenant).Observe(time.Since(j.started))
	}
}

// foldJobMetrics merges a finished job's kernel latency histograms into
// the server-lifetime per-engine families.
func (s *Server) foldJobMetrics(engine string, ms *telemetry.MetricSet) {
	if ms == nil {
		return
	}
	s.fixpointIter.With(engine).Merge(ms.FixpointIter.Snapshot())
	s.imageTime.With(engine).Merge(ms.Image.Snapshot())
	s.gcPause.With(engine).Merge(ms.GCPause.Snapshot())
	s.gcMark.With(engine).Merge(ms.GCMark.Snapshot())
	s.reorderTime.With(engine).Merge(ms.Reorder.Snapshot())
}

// tenantLabel maps the empty tenant to its display name.
func tenantLabel(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// engineLabel maps the image-engine option to its metrics label.
func engineLabel(image string) string {
	if image == "" {
		return "auto"
	}
	return image
}

// runWithDeadline arms the job's deadline and maps the verification
// outcome to a terminal status.
func (s *Server) runWithDeadline(j *Job, start time.Time) (Status, *Result, string) {
	// The deadline covers the whole execution; the interrupt only bites
	// at fixpoint safe points, so the frontend/compile phase may
	// overshoot slightly — the flags are re-checked as soon as the
	// workspace exists.
	deadline := time.Duration(j.req.Options.TimeoutMS) * time.Millisecond
	if deadline <= 0 {
		deadline = s.cfg.DefaultTimeout
	}
	if deadline > s.cfg.MaxTimeout {
		deadline = s.cfg.MaxTimeout
	}
	timer := time.AfterFunc(deadline, func() {
		j.deadlineHit.Store(true)
		j.interrupt()
	})
	defer timer.Stop()

	res, err := s.runVerification(j)
	switch {
	case err == nil:
		res.ElapsedMS = time.Since(start).Milliseconds()
		return StatusDone, res, ""
	case errors.Is(err, bdd.ErrInterrupted):
		if j.deadlineHit.Load() {
			return StatusTimeout, nil, fmt.Sprintf("deadline %v exceeded", deadline)
		}
		return StatusCancelled, nil, "cancelled"
	default:
		return StatusFailed, nil, err.Error()
	}
}

// runVerification compiles (or fetches) the artifact, instantiates the
// job's private workspace, and verifies. An interrupt surfaces as
// bdd.ErrInterrupted; any other panic as a wrapped error.
func (s *Server) runVerification(j *Job) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && errors.Is(e, bdd.ErrInterrupted) {
				err = bdd.ErrInterrupted
				return
			}
			err = fmt.Errorf("internal panic: %v", r)
		}
	}()

	lookupStart := time.Now()
	d, hit, err := s.cache.getOrCompile(j.key, func() (*core.CompiledDesign, error) {
		var d *core.CompiledDesign
		var cerr error
		if j.req.Verilog != "" {
			d, cerr = core.CompileVerilog(j.req.Verilog, j.ID+".v", j.req.Top)
		} else {
			d, cerr = core.CompileBlifMV(j.req.BlifMV, j.ID+".mv")
		}
		if cerr != nil {
			return nil, cerr
		}
		if j.req.PIF != "" {
			if cerr := d.AddPIF(j.req.PIF, j.ID+".pif"); cerr != nil {
				return nil, cerr
			}
		}
		return d, nil
	})
	lookupResult := "miss"
	if hit {
		lookupResult = "hit"
	}
	s.cacheLookup.With(lookupResult).Observe(time.Since(lookupStart))
	if err != nil {
		return nil, err
	}

	ws, err := d.Instantiate(core.Options{
		Image:           j.req.Options.Image,
		Reorder:         j.req.Options.Reorder,
		ConeOfInfluence: j.req.Options.ConeOfInfluence,
		Telemetry:       j.scope,
	})
	if err != nil {
		return nil, err
	}
	j.ws.Store(ws)
	// Re-check: a cancel/deadline that landed before the workspace
	// existed could only set the flags; arm the manager now.
	if j.cancelRequested.Load() || j.deadlineHit.Load() {
		ws.Interrupt()
	}
	defer s.accumulateKernel(ws)

	res = &Result{Design: j.req.Builtin, CacheHit: hit}
	for _, pr := range ws.VerifyAll() {
		v := PropertyVerdict{
			Name:      pr.Name,
			Kind:      string(pr.Kind),
			Pass:      pr.Pass,
			ElapsedMS: pr.Time.Milliseconds(),
		}
		if pr.Err != nil {
			v.Error = pr.Err.Error()
		}
		res.Properties = append(res.Properties, v)
	}
	if j.req.Options.Reach {
		res.ReachedStates = ws.ReachableStatesExact().String()
	}
	res.PeakLiveNodes = ws.Net.Manager().Stats().PeakLive
	return res, nil
}

// accumulateKernel folds a finished job's manager counters into the
// server-lifetime totals surfaced by /metrics.
func (s *Server) accumulateKernel(ws *core.Workspace) {
	st := ws.Net.Manager().Stats()
	s.kernelMu.Lock()
	defer s.kernelMu.Unlock()
	k := &s.kernelTotals
	k.ApplyCalls += st.ApplyCalls
	k.ApplyHits += st.ApplyHits
	k.ITECalls += st.ITECalls
	k.ITEHits += st.ITEHits
	k.QuantCalls += st.QuantCalls + st.AndExistsCalls
	k.QuantHits += st.QuantHits + st.AndExistsHits
	k.GCs += int64(st.GCs)
	k.Reorders += int64(st.Reorders)
	if int64(st.PeakLive) > k.MaxPeakLive {
		k.MaxPeakLive = int64(st.PeakLive)
	}
}
