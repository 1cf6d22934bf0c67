package obsv

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two latency buckets: bucket b counts
// observations with bits.Len64(nanoseconds) == b, i.e. durations in
// [2^(b-1), 2^b) ns. 40 buckets reach ~9 minutes, far past any scheduling.
const histBuckets = 40

// Histogram is a lock-free latency histogram over power-of-two buckets.
// Recording is one atomic add; quantiles are computed at snapshot time by
// walking the cumulative distribution. The coarse (2x-wide) buckets bound
// the quantile error to the bucket width, which is ample for steering
// experiments (is p99 4us or 4ms?).
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64 // total ns
	max     atomic.Int64 // max ns
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// LatencyQuantiles is a histogram snapshot digest. Quantiles are bucket
// upper bounds (conservative: the true quantile is at most the reported
// value and at least half of it).
type LatencyQuantiles struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// digest reads the histogram into a quantile summary. Concurrent Observe
// calls may skew a bucket by a few counts; monitoring reads tolerate that.
func (h *Histogram) digest() LatencyQuantiles {
	var counts [histBuckets]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	q := LatencyQuantiles{Count: total, Max: time.Duration(h.max.Load())}
	if total == 0 {
		return q
	}
	q.Mean = time.Duration(h.sum.Load() / int64(total))
	quantile := func(p float64) time.Duration {
		target := uint64(p * float64(total))
		if target == 0 {
			target = 1
		}
		var cum uint64
		for b, c := range counts {
			cum += c
			if cum >= target {
				if b == 0 {
					return 0
				}
				return time.Duration(uint64(1) << uint(b)) // bucket upper bound in ns
			}
		}
		return q.Max
	}
	q.P50 = quantile(0.50)
	q.P95 = quantile(0.95)
	q.P99 = quantile(0.99)
	if q.P50 > q.Max && q.Max > 0 {
		q.P50 = q.Max
	}
	if q.P95 > q.Max && q.Max > 0 {
		q.P95 = q.Max
	}
	if q.P99 > q.Max && q.Max > 0 {
		q.P99 = q.Max
	}
	return q
}

// JunctionMetrics is the always-on per-junction counter block. Every field
// is a plain atomic the scheduling path adds to; nothing here allocates or
// locks. The latency histogram is only fed when Observer.Timing() is set.
type JunctionMetrics struct {
	fq string

	// Epoch counts instance incarnations: it is incremented (and all other
	// fields zeroed) each time the owning instance (re)starts, so rates
	// never smear across a crash/restart boundary.
	Epoch atomic.Uint64

	// Scheduling outcome counters.
	Schedulings    atomic.Uint64 // guard passed, body ran
	Fires          atomic.Uint64 // body completed successfully
	NotSchedulable atomic.Uint64 // guard not definitely true
	Errors         atomic.Uint64 // body failed
	Retries        atomic.Uint64 // retry signals absorbed

	// Transaction counters.
	TxnCommits   atomic.Uint64
	TxnRollbacks atomic.Uint64

	// Wait counters.
	WaitsArmed    atomic.Uint64
	WaitsAdmitted atomic.Uint64
	WaitsTimedOut atomic.Uint64

	// Remote update counters.
	RemoteQueued  atomic.Uint64 // arrived at this junction's table
	RemoteApplied atomic.Uint64 // absorbed at a scheduling boundary
	RemoteAcked   atomic.Uint64 // this junction's sends acknowledged
	RemoteBatches atomic.Uint64 // delivery groups absorbed via the batched path

	// Driver wake counters (event = a watched table changed, retry = a retry
	// after a failed body).
	WakesEvent atomic.Uint64
	WakesRetry atomic.Uint64

	// SubWakes counts keyed KV subscription wakes delivered by this
	// junction's table.
	SubWakes atomic.Uint64

	// Sched is the body latency histogram (fed only under Timing).
	Sched Histogram

	// Ack is the remote-update acknowledgment latency histogram: send to
	// observed delivery acknowledgment, per update this junction originated
	// (fed only under Timing).
	Ack Histogram
}

func (m *JunctionMetrics) reset() {
	m.Schedulings.Store(0)
	m.Fires.Store(0)
	m.NotSchedulable.Store(0)
	m.Errors.Store(0)
	m.Retries.Store(0)
	m.TxnCommits.Store(0)
	m.TxnRollbacks.Store(0)
	m.WaitsArmed.Store(0)
	m.WaitsAdmitted.Store(0)
	m.WaitsTimedOut.Store(0)
	m.RemoteQueued.Store(0)
	m.RemoteApplied.Store(0)
	m.RemoteAcked.Store(0)
	m.RemoteBatches.Store(0)
	m.WakesEvent.Store(0)
	m.WakesRetry.Store(0)
	m.SubWakes.Store(0)
	m.Sched.reset()
	m.Ack.reset()
	m.Epoch.Add(1)
}

// JunctionSnapshot is a point-in-time reading of one junction's metrics.
type JunctionSnapshot struct {
	Junction string
	Epoch    uint64

	Schedulings    uint64
	Fires          uint64
	NotSchedulable uint64
	Errors         uint64
	Retries        uint64

	TxnCommits   uint64
	TxnRollbacks uint64

	WaitsArmed    uint64
	WaitsAdmitted uint64
	WaitsTimedOut uint64

	RemoteQueued  uint64
	RemoteApplied uint64
	RemoteAcked   uint64
	RemoteBatches uint64

	WakesEvent uint64
	WakesRetry uint64
	SubWakes   uint64

	SchedLatency LatencyQuantiles
	AckLatency   LatencyQuantiles
}

func (m *JunctionMetrics) snapshot() JunctionSnapshot {
	return JunctionSnapshot{
		Junction:       m.fq,
		Epoch:          m.Epoch.Load(),
		Schedulings:    m.Schedulings.Load(),
		Fires:          m.Fires.Load(),
		NotSchedulable: m.NotSchedulable.Load(),
		Errors:         m.Errors.Load(),
		Retries:        m.Retries.Load(),
		TxnCommits:     m.TxnCommits.Load(),
		TxnRollbacks:   m.TxnRollbacks.Load(),
		WaitsArmed:     m.WaitsArmed.Load(),
		WaitsAdmitted:  m.WaitsAdmitted.Load(),
		WaitsTimedOut:  m.WaitsTimedOut.Load(),
		RemoteQueued:   m.RemoteQueued.Load(),
		RemoteApplied:  m.RemoteApplied.Load(),
		RemoteAcked:    m.RemoteAcked.Load(),
		RemoteBatches:  m.RemoteBatches.Load(),
		WakesEvent:     m.WakesEvent.Load(),
		WakesRetry:     m.WakesRetry.Load(),
		SubWakes:       m.SubWakes.Load(),
		SchedLatency:   m.Sched.digest(),
		AckLatency:     m.Ack.digest(),
	}
}
