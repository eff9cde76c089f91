package server

import (
	"hsis/internal/telemetry"
)

// KernelTotals aggregates BDD kernel counters across every job the
// server has executed (each job's manager is read once, at job end).
type KernelTotals struct {
	ApplyCalls  uint64 `json:"apply_calls"`
	ApplyHits   uint64 `json:"apply_hits"`
	ITECalls    uint64 `json:"ite_calls"`
	ITEHits     uint64 `json:"ite_hits"`
	QuantCalls  uint64 `json:"quant_calls"` // Exists/ForAll + AndExists
	QuantHits   uint64 `json:"quant_hits"`
	GCs         int64  `json:"gcs"`
	Reorders    int64  `json:"reorders"`
	MaxPeakLive int64  `json:"max_peak_live_nodes"`
}

// CacheMetrics reports the artifact cache's effectiveness.
type CacheMetrics struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// LatencySummary is the JSON rendering of one latency histogram (or one
// labeled child of a vector family): observation count plus quantiles
// in milliseconds. Quantiles are bucket upper bounds — exact to a
// factor of two (see telemetry.Histogram).
type LatencySummary struct {
	Name   string  `json:"name"`
	Label  string  `json:"label,omitempty"` // label key for vector children
	Value  string  `json:"value,omitempty"` // label value
	Count  int64   `json:"count"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`
}

// TenantMetrics is one tenant's latency breakdown.
type TenantMetrics struct {
	QueueWait   LatencySummary `json:"queue_wait"`
	JobDuration LatencySummary `json:"job_duration"`
	Exec        LatencySummary `json:"exec"`
}

// Metrics is the GET /metrics snapshot.
type Metrics struct {
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_capacity"`
	Running    int `json:"running_jobs"`

	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsRejected  int64 `json:"jobs_rejected"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsTimedOut  int64 `json:"jobs_timed_out"`
	JobsCancelled int64 `json:"jobs_cancelled"`

	TracesWritten int64 `json:"traces_written"`
	TraceFailures int64 `json:"trace_failures"`

	ArtifactCache CacheMetrics `json:"artifact_cache"`
	Kernel        KernelTotals `json:"kernel"`

	// Tenants breaks queue-wait and job-duration down per tenant.
	Tenants map[string]TenantMetrics `json:"tenants,omitempty"`
	// Latency summarizes every non-tenant histogram family with at
	// least one observation (per-engine kernel latencies, cache lookup).
	Latency []LatencySummary `json:"latency,omitempty"`
}

// initRegistry builds the server's metric registry: every exported
// hsis_* series, registered exactly once. Counters and gauges are
// function-backed by the server's existing atomics; the histogram
// vectors are owned by the registry and fed by the workers. A bad name
// panics here, at construction — the metrics-name lint in `make check`
// asserts the same invariants over the live registry.
func (s *Server) initRegistry() {
	r := telemetry.NewRegistry()

	r.GaugeFunc("hsis_workers", "job worker pool size",
		func() int64 { return int64(s.cfg.Workers) })
	r.GaugeFunc("hsis_queue_depth", "jobs waiting in the admission queue",
		func() int64 { return int64(s.queue.depth()) })
	r.GaugeFunc("hsis_queue_capacity", "admission queue capacity",
		func() int64 { return int64(s.cfg.QueueCapacity) })
	r.GaugeFunc("hsis_jobs_running", "jobs currently executing", s.running.Load)

	r.CounterFunc("hsis_jobs_submitted_total", "jobs admitted to the queue", s.submitted.Load)
	r.CounterFunc("hsis_jobs_rejected_total", "jobs rejected at admission (queue full)", s.rejected.Load)
	r.CounterFunc("hsis_jobs_completed_total", "jobs that finished with verdicts", s.completed.Load)
	r.CounterFunc("hsis_jobs_failed_total", "jobs that failed (compile or internal error)", s.failed.Load)
	r.CounterFunc("hsis_jobs_timed_out_total", "jobs interrupted by their deadline", s.timedOut.Load)
	r.CounterFunc("hsis_jobs_cancelled_total", "jobs cancelled by the client or by shutdown", s.cancelled.Load)
	r.CounterFunc("hsis_traces_written_total", "per-job traces flushed successfully", s.tracesWritten.Load)
	r.CounterFunc("hsis_trace_failures_total", "per-job traces that failed to flush", s.traceFailures.Load)

	r.GaugeFunc("hsis_artifact_cache_entries", "compiled design artifacts cached",
		func() int64 { n, _, _, _ := s.cache.stats(); return int64(n) })
	r.CounterFunc("hsis_artifact_cache_hits_total", "artifact lookups that skipped the frontend",
		func() int64 { _, h, _, _ := s.cache.stats(); return h })
	r.CounterFunc("hsis_artifact_cache_misses_total", "artifact lookups that compiled",
		func() int64 { _, _, m, _ := s.cache.stats(); return m })
	r.CounterFunc("hsis_artifact_cache_evictions_total", "artifacts evicted from the LRU",
		func() int64 { _, _, _, e := s.cache.stats(); return e })

	s.queueWait = r.NewHistogramVec("hsis_queue_wait_seconds",
		"time from admission to execution start", "tenant")
	s.jobDuration = r.NewHistogramVec("hsis_job_duration_seconds",
		"time from admission to a terminal status", "tenant")
	s.jobExec = r.NewHistogramVec("hsis_job_exec_seconds",
		"time from execution start to a terminal status", "tenant")
	s.fixpointIter = r.NewHistogramVec("hsis_fixpoint_iteration_seconds",
		"one frontier extension of any fixpoint driver", "engine")
	s.imageTime = r.NewHistogramVec("hsis_image_seconds",
		"one full image computation", "engine")
	s.gcPause = r.NewHistogramVec("hsis_gc_pause_seconds",
		"sweep and unique-table rebuild of one kernel garbage collection", "engine")
	s.gcMark = r.NewHistogramVec("hsis_gc_mark_seconds",
		"mark phase of one kernel garbage collection", "engine")
	s.reorderTime = r.NewHistogramVec("hsis_reorder_session_seconds",
		"one dynamic-reordering session, start to close", "engine")
	s.cacheLookup = r.NewHistogramVec("hsis_artifact_cache_lookup_seconds",
		"artifact cache lookup, including the compile on a miss", "result")

	s.reg = r
}

// Registry exposes the server's metric registry (the Prometheus
// endpoint renders it; the metrics-name lint walks it).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// summarize converts a histogram snapshot to its JSON summary.
func summarize(ls telemetry.LabeledSnapshot) LatencySummary {
	usToMS := func(us int64) float64 { return float64(us) / 1e3 }
	return LatencySummary{
		Name:   ls.Name,
		Label:  ls.Label,
		Value:  ls.Value,
		Count:  ls.Count,
		P50MS:  usToMS(ls.P50US()),
		P90MS:  usToMS(ls.P90US()),
		P99MS:  usToMS(ls.P99US()),
		MeanMS: usToMS(ls.MeanUS()),
	}
}

// Metrics snapshots the server's observable state.
func (s *Server) Metrics() Metrics {
	entries, hits, misses, evictions := s.cache.stats()
	s.kernelMu.Lock()
	kernel := s.kernelTotals
	s.kernelMu.Unlock()
	m := Metrics{
		Workers:       s.cfg.Workers,
		QueueDepth:    s.queue.depth(),
		QueueCap:      s.cfg.QueueCapacity,
		Running:       int(s.running.Load()),
		JobsSubmitted: s.submitted.Load(),
		JobsRejected:  s.rejected.Load(),
		JobsCompleted: s.completed.Load(),
		JobsFailed:    s.failed.Load(),
		JobsTimedOut:  s.timedOut.Load(),
		JobsCancelled: s.cancelled.Load(),
		TracesWritten: s.tracesWritten.Load(),
		TraceFailures: s.traceFailures.Load(),
		ArtifactCache: CacheMetrics{
			Entries:   entries,
			Hits:      hits,
			Misses:    misses,
			Evictions: evictions,
		},
		Kernel: kernel,
	}
	for _, ls := range s.reg.HistogramSnapshots() {
		if ls.Label == "tenant" {
			if m.Tenants == nil {
				m.Tenants = make(map[string]TenantMetrics)
			}
			tm := m.Tenants[ls.Value]
			switch ls.Name {
			case "hsis_queue_wait_seconds":
				tm.QueueWait = summarize(ls)
			case "hsis_job_duration_seconds":
				tm.JobDuration = summarize(ls)
			case "hsis_job_exec_seconds":
				tm.Exec = summarize(ls)
			}
			m.Tenants[ls.Value] = tm
			continue
		}
		if ls.Count > 0 {
			m.Latency = append(m.Latency, summarize(ls))
		}
	}
	return m
}
