// Package obsv is the runtime observability layer: structured trace events
// describing every scheduling decision the runtime makes (why a guard fired,
// what a wait admitted, when a reconfiguration dipped throughput) and
// per-junction metrics cheap enough to leave on in production.
//
// The package is zero-dependency by design (standard library only) so every
// layer of the system — runtime, kv, compart glue, benches — can emit into it
// without import cycles. Two cost tiers:
//
//   - Metrics counters are always on: plain atomic adds on the scheduling
//     path, readable at any time through Observer.Snapshot.
//   - Trace events and latency histograms are gated behind atomic flags
//     (SetSink / EnableTiming). With no sink installed the tracing path is a
//     single atomic load and a predicted branch — the "near-free disabled
//     path" pinned by BenchmarkSchedulingObsvOff.
package obsv

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates trace events. The taxonomy covers the runtime's
// execution of junction bodies plus the lifecycle events reconfiguration
// experiments reconstruct timelines from.
type Kind uint8

const (
	// KindUnknown is the zero Kind; never emitted.
	KindUnknown Kind = iota

	// EvSchedStart: a scheduling passed its guard and the body is about to
	// run. EvSchedFire: the body completed (Dur = body latency).
	// EvSchedNotSchedulable: the guard was not definitely true.
	// EvSchedError: the body failed (Err holds the failure).
	EvSchedStart
	EvSchedFire
	EvSchedNotSchedulable
	EvSchedError

	// EvGuardEval reports a guard evaluation with its ternary result in
	// Truth ("true", "false", "unknown").
	EvGuardEval

	// EvRetry: the body signalled retry; N is the attempt number.
	EvRetry

	// Transaction lifecycle (the ⟨|E|⟩ block): EvTxnRollback means the
	// snapshot was restored after a body failure.
	EvTxnBegin
	EvTxnCommit
	EvTxnRollback

	// Wait lifecycle: armed when the admission set is installed, admitted
	// when the formula became true (Dur = blocked time), timeout when the
	// enclosing deadline (otherwise[t]) expired first.
	EvWaitArmed
	EvWaitAdmitted
	EvWaitTimeout

	// Remote update lifecycle: queued on arrival at the destination table,
	// applied when the destination's next scheduling absorbed it (N = how
	// many), acked when the sender observed the delivery acknowledgment
	// (Key = destination endpoint).
	EvRemoteQueued
	EvRemoteApplied
	EvRemoteAcked

	// Instance lifecycle. EvEndpointDown is emitted per junction endpoint on
	// a crash; EvTableInit per junction when its KV table is (re)initialized
	// at instance start.
	EvInstanceStart
	EvInstanceStop
	EvInstanceCrash
	EvEndpointDown
	EvTableInit

	// Driver wakes: event (a watched table changed) vs retry (a failed body's
	// retry pause ended).
	EvDriverWakeEvent
	EvDriverWakeRetry

	// EvSubWake: a keyed KV subscription wake was delivered (Key = the
	// table key that changed).
	EvSubWake

	// Model-checker trace vocabulary (internal/check): counterexample
	// schedules serialize as ordinary trace events plus these three.
	// EvCheckEnvInject marks an environment-injected proposition update
	// (Junction = target, Key = proposition); the two terminal kinds mark
	// the violation the schedule reaches (Key = detail, e.g. the violated
	// invariant's name).
	EvCheckEnvInject
	EvCheckDeadlock
	EvCheckInvariant

	// EvRemoteBatch: a delivery group of remote updates was absorbed in one
	// batch (N = group size, Peer = the sending junction when the group has
	// a single origin). Per-update EvRemoteQueued events still follow, each
	// carrying its per-pair sequence number in N and its origin in Peer.
	EvRemoteBatch

	// Live migration lifecycle (runtime.System.MigrateInstance). Begin and
	// resume carry the instance in Junction and the destination location in
	// Key; quiesce's Dur is the time spent draining drivers and in-flight
	// schedulings, resume's Dur the total blackout (quiesce start to
	// resume). Transfer is emitted per junction (N = encoded state bytes),
	// cutover per junction when its rebuilt table goes live at the
	// destination. Abort carries the failure in Err; the source resumes
	// intact.
	EvMigrateBegin
	EvMigrateQuiesce
	EvMigrateTransfer
	EvMigrateCutover
	EvMigrateResume
	EvMigrateAbort

	// EvLocalWrite: a junction's body wrote its own table and the write stands
	// (Key = the table key, Truth = "tt", "ff", or "*" for data) — an
	// assert/retract, local or the sender's half of a remote one, a save, a
	// host block's write. Emitted on the traced path only; it is what lets
	// events.Conforms see the Wr_J events of the §8 denotation.
	EvLocalWrite
)

var kindNames = map[Kind]string{
	EvSchedStart:          "sched.start",
	EvSchedFire:           "sched.fire",
	EvSchedNotSchedulable: "sched.not-schedulable",
	EvSchedError:          "sched.error",
	EvGuardEval:           "guard.eval",
	EvRetry:               "sched.retry",
	EvTxnBegin:            "txn.begin",
	EvTxnCommit:           "txn.commit",
	EvTxnRollback:         "txn.rollback",
	EvWaitArmed:           "wait.armed",
	EvWaitAdmitted:        "wait.admitted",
	EvWaitTimeout:         "wait.timeout",
	EvRemoteQueued:        "remote.queued",
	EvRemoteApplied:       "remote.applied",
	EvRemoteAcked:         "remote.acked",
	EvInstanceStart:       "instance.start",
	EvInstanceStop:        "instance.stop",
	EvInstanceCrash:       "instance.crash",
	EvEndpointDown:        "endpoint.down",
	EvTableInit:           "table.init",
	EvDriverWakeEvent:     "driver.wake.event",
	EvDriverWakeRetry:     "driver.wake.retry",
	EvSubWake:             "sub.wake",
	EvCheckEnvInject:      "check.env-inject",
	EvCheckDeadlock:       "check.deadlock",
	EvCheckInvariant:      "check.invariant-violated",
	EvRemoteBatch:         "remote.batch",
	EvMigrateBegin:        "migrate.begin",
	EvMigrateQuiesce:      "migrate.quiesce",
	EvMigrateTransfer:     "migrate.transfer",
	EvMigrateCutover:      "migrate.cutover",
	EvMigrateResume:       "migrate.resume",
	EvMigrateAbort:        "migrate.abort",
	EvLocalWrite:          "local.write",
}

// String returns the dotted event name used in JSONL output.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown"
}

// Event is one structured trace record. Fields beyond Kind/Junction are
// populated per kind (see the Kind constants); unused fields stay zero and
// are omitted from JSONL output.
type Event struct {
	// Seq is a per-observer monotonic sequence number: the total emission
	// order, even when wall-clock timestamps collide.
	Seq uint64
	// At is the emission wall-clock time.
	At time.Time
	// Kind discriminates the record.
	Kind Kind
	// Junction is the fully-qualified "instance::junction" name, or the
	// bare instance name for instance lifecycle events.
	Junction string
	// Key names what the event touched: a table key, a destination
	// endpoint, a wait formula rendering.
	Key string
	// Truth carries a ternary guard result for EvGuardEval, and the value
	// written ("tt", "ff", "*" for data) for EvRemoteQueued and EvLocalWrite.
	Truth string
	// Peer is the remote junction on the other side of the event, for kinds
	// that have one (the origin of a remote.queued / remote.batch delivery).
	Peer string
	// N is a generic count (updates applied, retry attempt number).
	N int64
	// Dur is a latency where the kind defines one (body run, wait block).
	Dur time.Duration
	// Err is the failure text for error kinds.
	Err string
}

// Sink receives trace events. Implementations must be safe for concurrent
// Emit calls and must not call back into the emitting Observer.
type Sink interface {
	Emit(Event)
}

// Observer is the per-system observability hub: it owns the trace flags,
// the sink, and the per-junction metrics registry.
type Observer struct {
	// flags packs the tracing (bit 0) and timing (bit 1) enables into one
	// word so the hot path pays a single atomic load.
	flags atomic.Uint32
	sink  atomic.Pointer[sinkBox]
	seq   atomic.Uint64

	mu    sync.Mutex
	juncs map[string]*JunctionMetrics
}

// sinkBox wraps the sink so a nil interface can be stored atomically.
type sinkBox struct{ s Sink }

const (
	flagTracing uint32 = 1 << 0
	flagTiming  uint32 = 1 << 1
)

// NewObserver returns an observer with tracing and timing disabled.
func NewObserver() *Observer {
	return &Observer{juncs: map[string]*JunctionMetrics{}}
}

// setFlags mutates flag bits under the registry mutex (flag changes are
// cold-path; only the load is hot).
func (o *Observer) setFlags(set, clear uint32) {
	o.mu.Lock()
	o.flags.Store((o.flags.Load() | set) &^ clear)
	o.mu.Unlock()
}

// SetSink installs (or, with nil, removes) the trace sink and flips the
// tracing flag accordingly. Installing a sink also enables timing: traces
// without durations reconstruct poorer timelines.
func (o *Observer) SetSink(s Sink) {
	if s == nil {
		o.sink.Store(nil)
		o.setFlags(0, flagTracing)
		return
	}
	o.sink.Store(&sinkBox{s: s})
	o.setFlags(flagTracing|flagTiming, 0)
}

// EnableTiming turns latency-histogram recording on or off independently of
// tracing (csaw-bench -metrics without -trace). Disabling timing does not
// disable an installed sink.
func (o *Observer) EnableTiming(on bool) {
	if on {
		o.setFlags(flagTiming, 0)
	} else {
		o.setFlags(0, flagTiming)
	}
}

// Tracing reports whether a sink is installed. Call it before building an
// Event so the disabled path never materializes one.
func (o *Observer) Tracing() bool { return o.flags.Load()&flagTracing != 0 }

// Timing reports whether latency histograms should be recorded (true when
// timing was enabled or a sink is installed).
func (o *Observer) Timing() bool { return o.flags.Load()&flagTiming != 0 }

// Emit stamps the event (Seq always; At when unset) and hands it to the
// sink, if any. Callers should guard with Tracing() to skip event
// construction entirely when disabled.
func (o *Observer) Emit(e Event) {
	box := o.sink.Load()
	if box == nil {
		return
	}
	e.Seq = o.seq.Add(1)
	if e.At.IsZero() {
		e.At = time.Now()
	}
	box.s.Emit(e)
}

// Junction returns (creating on first use) the metrics slot for a
// fully-qualified junction name. The runtime caches the pointer per
// junction, so the registry lock is off the scheduling path.
func (o *Observer) Junction(fq string) *JunctionMetrics {
	o.mu.Lock()
	defer o.mu.Unlock()
	m, ok := o.juncs[fq]
	if !ok {
		m = &JunctionMetrics{fq: fq}
		o.juncs[fq] = m
	}
	return m
}

// ResetJunction starts a new metrics epoch for a junction: counters and the
// latency histogram are zeroed and Epoch is incremented, so rates computed
// from snapshots never smear across instance incarnations. Concurrent
// counter updates racing the reset may land in either epoch; that slack is
// inherent to lock-free counters and acceptable for monitoring.
func (o *Observer) ResetJunction(fq string) {
	o.Junction(fq).reset()
}

// Snapshot returns a point-in-time reading of every junction's metrics,
// sorted by junction name.
func (o *Observer) Snapshot() []JunctionSnapshot {
	o.mu.Lock()
	ms := make([]*JunctionMetrics, 0, len(o.juncs))
	for _, m := range o.juncs {
		ms = append(ms, m)
	}
	o.mu.Unlock()
	out := make([]JunctionSnapshot, 0, len(ms))
	for _, m := range ms {
		out = append(out, m.snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Junction < out[j].Junction })
	return out
}
