package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Lock-free latency histograms.
//
// A Histogram is a fixed array of atomic bucket counters over
// power-of-two microsecond boundaries: bucket i counts observations v
// with 2^(i-1) <= v < 2^i µs (bucket 0 counts sub-microsecond
// observations, the last bucket is open-ended). Observe is two atomic
// adds and one atomic increment — no locks, no allocation — so the
// kernel can feed GC-pause and iteration timings from hot paths, and
// the server can observe queue waits from every worker concurrently.
// Quantiles are reconstructed from the bucket counts, so a reported
// p99 is exact only up to the bucket width (a factor of two); that
// resolution is the price of lock-freedom and is plenty for the
// operational questions the daemon answers ("did queue wait jump an
// order of magnitude?").

// HistogramBuckets is the number of log-2 buckets; the last bucket
// absorbs everything at or above 2^(HistogramBuckets-2) µs (~9.2 min),
// far beyond the daemon's maximum job timeout.
const HistogramBuckets = 40

// bucketIndex maps a non-negative microsecond value to its bucket:
// the number of significant bits, clamped to the last bucket. 0 → 0,
// 1 → 1, 127 → 7, 128 → 8.
func bucketIndex(us int64) int {
	if us <= 0 {
		return 0
	}
	i := bits.Len64(uint64(us))
	if i >= HistogramBuckets {
		return HistogramBuckets - 1
	}
	return i
}

// bucketUpperUS returns the largest microsecond value bucket i can
// hold: 2^i - 1 (the last bucket reports its lower bound instead,
// being open-ended).
func bucketUpperUS(i int) int64 {
	return int64(1)<<uint(i) - 1
}

// Histogram is a lock-free log-bucketed latency histogram. The zero
// value is ready to use; name it via Registry.NewHistogram or
// NewMetricSet.
type Histogram struct {
	name    string
	count   atomic.Int64
	sumUS   atomic.Int64
	buckets [HistogramBuckets]atomic.Int64
}

// Name returns the histogram's registered name ("" for anonymous).
func (h *Histogram) Name() string { return h.name }

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveUS(d.Microseconds()) }

// ObserveUS records one duration given in microseconds.
func (h *Histogram) ObserveUS(us int64) {
	if us < 0 {
		us = 0
	}
	h.buckets[bucketIndex(us)].Add(1)
	h.sumUS.Add(us)
	h.count.Add(1)
}

// Merge folds a snapshot (e.g. from a finished job's MetricSet) into
// this histogram. Concurrent-safe like Observe.
func (h *Histogram) Merge(s HistogramSnapshot) {
	if s.Count == 0 {
		return
	}
	for i, c := range s.Buckets {
		if c != 0 {
			h.buckets[i].Add(c)
		}
	}
	h.sumUS.Add(s.SumUS)
	h.count.Add(s.Count)
}

// Snapshot captures the histogram's current state. Buckets are read
// individually, so a snapshot taken during concurrent observation may
// be off by in-flight observations — fine for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Name = h.name
	s.Count = h.count.Load()
	s.SumUS = h.sumUS.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram, from which
// quantiles are extracted.
type HistogramSnapshot struct {
	Name    string
	Count   int64
	SumUS   int64
	Buckets [HistogramBuckets]int64
}

// QuantileUS returns the q-quantile (0 < q <= 1) in microseconds: the
// upper bound of the bucket containing the observation of rank
// ceil(q·count). An empty histogram reports 0. The result is an upper
// bound on the true quantile, tight to a factor of two.
func (s HistogramSnapshot) QuantileUS(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			if i == HistogramBuckets-1 {
				// Open-ended: report the lower bound rather than
				// inventing a ceiling.
				return int64(1) << uint(HistogramBuckets-2)
			}
			return bucketUpperUS(i)
		}
	}
	return bucketUpperUS(HistogramBuckets - 1)
}

// P50US returns the median in microseconds.
func (s HistogramSnapshot) P50US() int64 { return s.QuantileUS(0.50) }

// P90US returns the 90th percentile in microseconds.
func (s HistogramSnapshot) P90US() int64 { return s.QuantileUS(0.90) }

// P99US returns the 99th percentile in microseconds.
func (s HistogramSnapshot) P99US() int64 { return s.QuantileUS(0.99) }

// MeanUS returns the arithmetic mean in microseconds (exact — sums are
// tracked separately from buckets).
func (s HistogramSnapshot) MeanUS() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumUS / s.Count
}

// Gauge is an atomic instantaneous value, for registry exposure of
// quantities that rise and fall (queue depth, running jobs).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// MetricSet is the per-scope bundle of kernel/fixpoint latency
// histograms. Scope.emit routes timed events into it by kind, so the
// instrumentation sites in reach/ctl/lc/sys/emptiness/quant/bdd feed
// histograms without knowing they exist. One MetricSet per job in the
// daemon; merged into per-engine registry families when the job ends.
type MetricSet struct {
	FixpointIter Histogram // one frontier extension of any fixpoint driver
	Image        Histogram // one full (clustered or monolithic) image computation
	GCPause      Histogram // the sweep and table rebuild of one kernel garbage collection
	GCMark       Histogram // the mark phase of one kernel garbage collection
	Reorder      Histogram // one dynamic-reordering session, start to close
}

// NewMetricSet builds a MetricSet with its histograms named.
func NewMetricSet() *MetricSet {
	ms := &MetricSet{}
	ms.FixpointIter.name = "fixpoint_iteration"
	ms.Image.name = "image"
	ms.GCPause.name = "gc_pause"
	ms.GCMark.name = "gc_mark"
	ms.Reorder.name = "reorder_session"
	return ms
}

// observeKind feeds a timed event into the histogram for its kind.
// Kinds not in the routing table (per-cluster sub-steps, sift blocks,
// property-level spans) stay trace-only.
func (ms *MetricSet) observeKind(kind string, d time.Duration) {
	switch kind {
	case "reach.iter", "reach.back.iter", "sys.reach.iter",
		"ctl.eu.iter", "emptiness.hull.iter", "lc.bounded.iter":
		ms.FixpointIter.Observe(d)
	case "quant.image":
		ms.Image.Observe(d)
	case "bdd.gc":
		ms.GCPause.Observe(d)
	case "bdd.gc_mark":
		ms.GCMark.Observe(d)
	case "bdd.reorder_end":
		ms.Reorder.Observe(d)
	}
}

// Snapshots returns the snapshots of all five histograms, in a fixed
// order, including empty ones (callers filter on Count as needed).
func (ms *MetricSet) Snapshots() []HistogramSnapshot {
	return []HistogramSnapshot{
		ms.FixpointIter.Snapshot(),
		ms.Image.Snapshot(),
		ms.GCPause.Snapshot(),
		ms.GCMark.Snapshot(),
		ms.Reorder.Snapshot(),
	}
}
