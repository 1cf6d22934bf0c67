package runtime

import (
	"fmt"
	"io"
	"sort"

	"csaw/internal/compart"
	"csaw/internal/obsv"
)

// Metrics is the merged observability snapshot of a system: the substrate's
// network-wide transport counters alongside the per-junction scheduling
// metrics collected by the obsv layer.
type Metrics struct {
	Transport compart.Stats
	Junctions []obsv.JunctionSnapshot
}

// Metrics returns a point-in-time merged snapshot. Counters are read
// lock-free; a snapshot taken while schedulings are in flight may be a few
// counts behind, which monitoring reads tolerate.
func (s *System) Metrics() Metrics {
	return Metrics{
		Transport: s.TransportStats(),
		Junctions: s.obs.Snapshot(),
	}
}

// Render writes a human-readable metrics report: one transport line, then
// one block per junction (sorted by name) with scheduling counters and, when
// timing was on, the body-latency digest.
func (m Metrics) Render(w io.Writer) {
	fmt.Fprintf(w, "transport: sent=%d delivered=%d dropped=%d rejected=%d lost-in-flight=%d\n",
		m.Transport.Sent, m.Transport.Delivered, m.Transport.Dropped, m.Transport.Rejected, m.Transport.LostInFlight)
	js := append([]obsv.JunctionSnapshot(nil), m.Junctions...)
	sort.Slice(js, func(i, k int) bool { return js[i].Junction < js[k].Junction })
	for _, j := range js {
		fmt.Fprintf(w, "%s (epoch %d)\n", j.Junction, j.Epoch)
		fmt.Fprintf(w, "  sched: run=%d fired=%d not-schedulable=%d errors=%d retries=%d\n",
			j.Schedulings, j.Fires, j.NotSchedulable, j.Errors, j.Retries)
		fmt.Fprintf(w, "  txn: commits=%d rollbacks=%d  wait: armed=%d admitted=%d timed-out=%d\n",
			j.TxnCommits, j.TxnRollbacks, j.WaitsArmed, j.WaitsAdmitted, j.WaitsTimedOut)
		fmt.Fprintf(w, "  remote: queued=%d applied=%d acked=%d batches=%d  wakes: event=%d retry=%d sub=%d\n",
			j.RemoteQueued, j.RemoteApplied, j.RemoteAcked, j.RemoteBatches, j.WakesEvent, j.WakesRetry, j.SubWakes)
		if q := j.SchedLatency; q.Count > 0 {
			fmt.Fprintf(w, "  latency: n=%d mean=%v p50=%v p95=%v p99=%v max=%v\n",
				q.Count, q.Mean, q.P50, q.P95, q.P99, q.Max)
		}
		if q := j.AckLatency; q.Count > 0 {
			fmt.Fprintf(w, "  ack-latency: n=%d mean=%v p50=%v p95=%v p99=%v max=%v\n",
				q.Count, q.Mean, q.P50, q.P95, q.P99, q.Max)
		}
	}
}
