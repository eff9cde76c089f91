package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Scope is one instance of armed observability: an optional JSONL
// tracer, an optional flight recorder, an optional metric set, and the
// live/peak node gauges the kernel publishes into. The daemon builds
// one Scope per job; the CLIs arm one process-default Scope under
// -trace/-stats. A nil *Scope is the disarmed state — instrumentation
// sites check for nil and pay nothing else.
//
// The three sinks are independent: a stats-only run has a MetricSet
// and no tracer; a daemon job always has a Recorder and MetricSet and
// gains a Tracer only when the job asked for one. Sinks are fixed at
// construction (With* builders) — Scope has no post-publication
// mutation, so readers need no synchronization beyond the pointer
// load that found the scope.
type Scope struct {
	tracer *Tracer
	rec    *Recorder
	met    *MetricSet

	// Live/peak node gauges, published by the owning manager's
	// allocator at its adaptation checkpoints and read by the sampler
	// and by end-of-run reporting. Per-scope, so concurrent jobs'
	// kernels never mix their curves.
	gaugeLive atomic.Int64
	gaugePeak atomic.Int64

	// Sampler state; guarded by mu. stop is closed to ask the sampler
	// goroutine to exit, done is closed by the goroutine on exit.
	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// NewScope builds a scope around a tracer (which may be nil for a
// metrics- or recorder-only scope).
func NewScope(t *Tracer) *Scope {
	return &Scope{tracer: t}
}

// WithRecorder attaches a flight recorder and returns the scope.
// Attach sinks before the scope is shared; sinks are immutable after.
func (sc *Scope) WithRecorder(r *Recorder) *Scope {
	sc.rec = r
	return sc
}

// WithMetrics attaches a metric set and returns the scope.
func (sc *Scope) WithMetrics(ms *MetricSet) *Scope {
	sc.met = ms
	return sc
}

// Traced reports whether a JSONL tracer is attached. Event fields that
// cost a BDD traversal (node counts) are computed only then: the
// metrics and flight-recorder sinks never pay for them.
func (sc *Scope) Traced() bool { return sc != nil && sc.tracer != nil }

// Tracer returns the scope's tracer, or nil.
func (sc *Scope) Tracer() *Tracer {
	if sc == nil {
		return nil
	}
	return sc.tracer
}

// Recorder returns the scope's flight recorder, or nil.
func (sc *Scope) Recorder() *Recorder {
	if sc == nil {
		return nil
	}
	return sc.rec
}

// Metrics returns the scope's metric set, or nil.
func (sc *Scope) Metrics() *MetricSet {
	if sc == nil {
		return nil
	}
	return sc.met
}

// Emit appends one untimed event to every armed sink.
func (sc *Scope) Emit(kind string, fields ...Field) {
	sc.emit(kind, 0, fields)
}

// EmitElapsed appends one timed event (rendered with elapsed_us, fed
// to the kind's histogram) without the Span dance — for sites that
// measured the duration themselves.
func (sc *Scope) EmitElapsed(kind string, elapsed time.Duration, fields ...Field) {
	sc.emit(kind, elapsed, fields)
}

// Start opens a timed span; finish it with Span.End.
func (sc *Scope) Start(kind string) Span {
	return Span{sc: sc, kind: kind, begin: time.Now()}
}

// emit fans one event out to the tracer, the flight recorder, and —
// for timed events — the metric set's histogram for the kind.
func (sc *Scope) emit(kind string, elapsed time.Duration, fields []Field) {
	if sc.met != nil && elapsed > 0 {
		sc.met.observeKind(kind, elapsed)
	}
	if sc.tracer != nil {
		sc.tracer.emit(kind, elapsed, fields)
	}
	if sc.rec != nil {
		sc.rec.record(kind, elapsed, fields)
	}
}

// PublishNodes updates the scope's live/peak node gauges and, when a
// tracer is armed, appends a point to its node-growth timeline. The
// kernel calls this from allocation checkpoints, GC and reorder ends.
func (sc *Scope) PublishNodes(live, peak int) {
	sc.gaugeLive.Store(int64(live))
	sc.gaugePeak.Store(int64(peak))
	if sc.tracer != nil {
		sc.tracer.record(int64(live), int64(peak), false)
	}
}

// LiveNodes returns the gauges' current values.
func (sc *Scope) LiveNodes() (live, peak int64) {
	return sc.gaugeLive.Load(), sc.gaugePeak.Load()
}

// DefaultSampleInterval is the sampler cadence when StartSampler is
// given a non-positive interval.
const DefaultSampleInterval = 100 * time.Millisecond

// StartSampler launches a background goroutine that snapshots the node
// gauges into the tracer's timeline every interval (emitting
// bdd.sample events). No-op without a tracer or when already running.
func (sc *Scope) StartSampler(interval time.Duration) {
	if sc.tracer == nil {
		return
	}
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	sc.mu.Lock()
	if sc.stop != nil {
		sc.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	sc.stop, sc.done = stop, done
	sc.mu.Unlock()

	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				live := sc.gaugeLive.Load()
				if live == 0 {
					continue // kernel hasn't published yet
				}
				sc.tracer.record(live, sc.gaugePeak.Load(), true)
			}
		}
	}()
}

// StopSampler stops the background sampler and waits for its goroutine
// to exit, so no sample can race a subsequent Tracer.Close. Safe to
// call when no sampler runs, and safe concurrently with itself.
func (sc *Scope) StopSampler() {
	sc.mu.Lock()
	stop, done := sc.stop, sc.done
	sc.stop, sc.done = nil, nil
	sc.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Close stops the sampler (waiting for it) and closes the tracer, in
// that order — the ordering is what makes Tracer.Close race-free
// against sampler ticks. Returns the tracer's first write error.
func (sc *Scope) Close() error {
	sc.StopSampler()
	if sc.tracer != nil {
		return sc.tracer.Close()
	}
	return nil
}
