// Package runtime executes C-Saw programs: it instantiates instance types,
// owns each junction's KV table, schedules junction bodies under their
// guards, and carries assert/retract/write updates between junctions over
// the compart substrate.
//
// The execution model follows the paper: a junction's execution is scheduled
// either by application logic (Invoke) or, for guarded junctions, by the
// runtime's driver loop, which schedules the junction whenever its guard
// becomes true. Remote updates are acknowledged at delivery so that
// `otherwise[t]` gives real failure-awareness: a crashed or partitioned peer
// makes the updating statement fail.
package runtime

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"csaw/internal/compart"
	"csaw/internal/dsl"
	"csaw/internal/kv"
	"csaw/internal/obsv"
	"csaw/internal/plan"
)

// Options configures a System.
type Options struct {
	// Deploy is the multi-location deployment the system runs under
	// (deploy.go): instances are placed on named locations, each backed by
	// its own network, with frames between locations carried by uplinks.
	// Nil builds one location around a fresh in-process network.
	Deploy *Deployment
	// AckTimeout bounds how long a remote update waits for its delivery
	// acknowledgment when no otherwise[t] deadline is in force.
	AckTimeout time.Duration
	// Poll is the driver loop's fallback wake interval, needed for guards
	// that reference remote junction state.
	Poll time.Duration
	// Trace installs a structured trace sink (internal/obsv): every
	// scheduling decision, guard evaluation, transaction outcome, wait
	// transition, remote-update hop and instance lifecycle event is emitted
	// through it. Nil (the default) disables tracing entirely — the
	// scheduling path then pays only atomic metric counters
	// (BenchmarkSchedulingObsvOff pins the cost).
	Trace obsv.Sink
	// Metrics additionally enables latency-histogram timing (time.Now
	// sampling around junction bodies) without a trace sink, so
	// System.Metrics() reports scheduling quantiles. Implied by Trace.
	Metrics bool
	// DisableDrivers suppresses the automatic driver loops of guarded
	// junctions: nothing schedules unless the application (or a replay
	// harness) calls Invoke/InvokeWhenReady explicitly. The model checker's
	// counterexample replay (internal/check) depends on this — a driver racing
	// the replayed schedule would perturb the very interleaving under test.
	DisableDrivers bool
}

func (o *Options) fill() {
	if o.AckTimeout <= 0 {
		o.AckTimeout = time.Second
	}
	if o.Poll <= 0 {
		o.Poll = 2 * time.Millisecond
	}
}

// System is a running C-Saw program.
type System struct {
	prog   *dsl.Program
	deploy *Deployment
	opts   Options

	// plan is the program's static lowering, computed once at New; junctions
	// build their per-start closure compilation on top of it.
	plan *plan.Program

	// obs is the system's observability hub: always-on per-junction metric
	// counters, plus trace events and latency timing when enabled.
	obs *obsv.Observer

	// mu serializes instance lifecycle changes and guards apps. The
	// instance map is copy-on-write: a writer holds mu and publishes a fresh
	// map, so resolving a name (Invoke, Junction) takes no lock.
	mu        sync.Mutex
	instances atomic.Pointer[map[string]*Instance]
	apps      map[string]any

	// Ack plumbing: one window per directed (sender,receiver) junction pair,
	// acknowledged cumulatively.
	winMu   sync.Mutex
	windows map[pairKey]*ackWindow

	// driverMu guards the driver diagnostics, separate from the ack hot path.
	driverMu      sync.Mutex
	driverErrs    map[string]error
	driverLog     []DriverError
	driverDropped int

	// Live-migration state (migrate.go): migrateMu serializes migrations;
	// the staging map and ack channel implement the destination side of the
	// transfer handshake.
	migrateMu sync.Mutex
	stageMu   sync.Mutex
	staged    map[string][]byte
	migAcks   chan string

	closed atomic.Bool
}

// Instance is one running (or stopped) instance of an instance type.
type Instance struct {
	sys      *System
	Name     string
	TypeName string
	// junctions is copy-on-write like System.instances: replaced whole,
	// under System.mu, when a migration cuts over to new incarnations.
	junctions atomic.Pointer[map[string]*Junction]
	running   atomic.Bool
	app       any
}

// instanceMap is the current name → instance map; read-only.
func (s *System) instanceMap() map[string]*Instance { return *s.instances.Load() }

// junctionMap is the instance's current name → junction map; read-only.
func (inst *Instance) junctionMap() map[string]*Junction { return *inst.junctions.Load() }

// New validates the program and builds a system for it. The system starts no
// instances; call RunMain or StartInstance.
func New(p *dsl.Program, opts Options) (*System, error) {
	if err := dsl.Validate(p); err != nil {
		return nil, err
	}
	opts.fill()
	dep := opts.Deploy
	if dep == nil {
		dep = NewDeployment().AddLocation("local", compart.NewNetwork(1))
	}
	s := &System{
		prog:    p,
		deploy:  dep,
		opts:    opts,
		plan:    plan.Compile(p),
		obs:     obsv.NewObserver(),
		apps:    map[string]any{},
		windows: map[pairKey]*ackWindow{},
		staged:  map[string][]byte{},
		migAcks: make(chan string, 64),
	}
	s.instances.Store(&map[string]*Instance{})
	if err := dep.bind(s); err != nil {
		return nil, err
	}
	if opts.Trace != nil {
		s.obs.SetSink(opts.Trace)
	}
	if opts.Metrics {
		s.obs.EnableTiming(true)
	}
	return s, nil
}

// Plan exposes the program's static lowering (read-only; used by tests and
// benchmarks).
func (s *System) Plan() *plan.Program { return s.plan }

// Net exposes the default location's substrate network (for fault injection
// in tests and benchmarks). Multi-location deployments address specific
// locations through Deployment.Net.
func (s *System) Net() *compart.Network { return s.deploy.defaultLoc().net }

// Deployment exposes the system's placement layer.
func (s *System) Deployment() *Deployment { return s.deploy }

// TransportStats returns the substrate counters summed across every
// location network (conserved: Sent == Delivered + Dropped + Rejected +
// LostInFlight at quiescence — each location conserves individually, so the
// sum does too), so fault-injection experiments can assert on observed
// transport behaviour.
func (s *System) TransportStats() compart.Stats {
	var total compart.Stats
	s.deploy.eachNet(func(n *compart.Network) {
		st := n.Stats()
		total.Sent += st.Sent
		total.Delivered += st.Delivered
		total.Dropped += st.Dropped
		total.Rejected += st.Rejected
		total.LostInFlight += st.LostInFlight
	})
	return total
}

// LinkStats returns the substrate counters for the directed link between
// two junction endpoints ("instance::junction" names), read from the
// sending junction's location network — where its Sends are counted.
func (s *System) LinkStats(from, to string) compart.LinkStats {
	loc := s.deploy.defaultLoc()
	if inst, _, ok := strings.Cut(from, "::"); ok {
		loc = s.deploy.locOf(inst)
	}
	return loc.net.LinkStats(from, to)
}

// PeerUp reports whether a junction endpoint is currently up at the
// transport level, checked on the network of the instance's own current
// location, where its real endpoint lives. A proxy for the junction at
// another location is a separate endpoint there: crash it from the uplink's
// compart.ReconnectClient.Notify to make senders at that location fail fast
// while the connection is down.
func (s *System) PeerUp(instance, junction string) bool {
	return s.deploy.locOf(instance).net.Up(instance + "::" + junction)
}

// Program returns the program the system executes.
func (s *System) Program() *dsl.Program { return s.prog }

// SetApp installs the application context an instance's host blocks will see
// via HostCtx.App. Must be called before the instance starts.
func (s *System) SetApp(instance string, app any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.apps[instance] = app
}

// RunMain executes the program's main body (start/stop compositions).
func (s *System) RunMain(ctx context.Context) error {
	_, err := s.execMain(ctx, dsl.Seq(s.prog.Main))
	return err
}

// execMain interprets the restricted statement forms allowed in main.
func (s *System) execMain(ctx context.Context, e dsl.Expr) (plan.Signal, error) {
	switch n := e.(type) {
	case dsl.Seq:
		for _, c := range n {
			if sig, err := s.execMain(ctx, c); err != nil || sig != plan.SigNone {
				return sig, err
			}
		}
		return plan.SigNone, nil
	case dsl.Par:
		var wg sync.WaitGroup
		errs := make([]error, len(n))
		for i, c := range n {
			wg.Add(1)
			go func(i int, c dsl.Expr) {
				defer wg.Done()
				_, errs[i] = s.execMain(ctx, c)
			}(i, c)
		}
		wg.Wait()
		// All branch failures matter: a parallel start composition can fail
		// several ways at once, and dropping all but the first hides them.
		if err := errors.Join(errs...); err != nil {
			return plan.SigNone, err
		}
		return plan.SigNone, nil
	case dsl.Start:
		return plan.SigNone, s.StartInstance(n.Instance, n.Args)
	case dsl.Stop:
		return plan.SigNone, s.StopInstance(n.Instance)
	case dsl.Skip:
		return plan.SigNone, nil
	case dsl.Scope:
		return s.execMain(ctx, dsl.Seq(n.Body))
	case dsl.Otherwise:
		// Main's par arms run concurrently under the try's deadline, so every
		// execution builds a fresh one: only a compiled step, which runs one
		// firing at a time, reuses its own.
		sub := ctx
		var dl *deadline
		if n.Timeout > 0 {
			dl = newDeadline()
			dl.arm(ctx, n.Timeout)
			sub = dl
		}
		_, err := s.execMain(sub, n.Try)
		if dl != nil {
			dl.disarm()
		}
		if err == nil {
			return plan.SigNone, nil
		}
		return s.execMain(ctx, n.Handler)
	default:
		return plan.SigNone, fmt.Errorf("runtime: statement %s not allowed in main", e)
	}
}

// StartInstance starts an instance: its junction tables are (re)initialized,
// endpoints registered, and driver loops launched for guarded junctions.
func (s *System) StartInstance(name string, args any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.startLocked(name, args)
}

func (s *System) startLocked(name string, args any) error {
	tn, ok := s.prog.Instances[name]
	if !ok {
		return fmt.Errorf("runtime: unknown instance %q", name)
	}
	if inst, ok := s.instanceMap()[name]; ok && inst.running.Load() {
		return fmt.Errorf("%w: %q", ErrAlreadyStarted, name)
	}
	t := s.prog.Types[tn]
	inst := &Instance{sys: s, Name: name, TypeName: tn}
	js := make(map[string]*Junction, len(t.Junctions))
	if args != nil {
		inst.app = args
	} else {
		inst.app = s.apps[name]
	}
	if s.obs.Tracing() {
		s.obs.Emit(obsv.Event{Kind: obsv.EvInstanceStart, Junction: name, Key: tn})
	}
	loc := s.deploy.locOf(name)
	for _, jn := range t.JunctionNames() {
		def := t.Junctions[jn]
		j := newJunction(s, inst, def, loc.net)
		js[jn] = j
		s.registerEndpoints(j, loc)
		// A (re)start reinitializes the junction's KV table and opens a new
		// metrics epoch, so post-restart rates never smear across the crash.
		s.obs.ResetJunction(j.FQName)
		if s.obs.Tracing() {
			s.obs.Emit(obsv.Event{Kind: obsv.EvTableInit, Junction: j.FQName})
		}
	}
	inst.junctions.Store(&js)
	inst.running.Store(true)
	insts := maps.Clone(s.instanceMap())
	insts[name] = inst
	s.instances.Store(&insts)
	// Junctions are started concurrently in an arbitrary order (paper §6):
	// guarded junctions get driver loops; unguarded junctions are scheduled
	// by application logic through Invoke.
	if !s.opts.DisableDrivers {
		for _, j := range js {
			if j.def.Guard != nil && !j.def.Manual {
				j.startDriver()
			}
		}
	}
	return nil
}

// StopInstance gracefully stops a running instance: endpoints deregister and
// drivers stop, abandoning a scheduling they have in flight at its next
// statement or blocking point (its updates can no longer be acknowledged).
// The instance may be started again later.
func (s *System) StopInstance(name string) error {
	s.mu.Lock()
	inst, ok := s.instanceMap()[name]
	if !ok || !inst.running.Load() {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotRunning, name)
	}
	inst.running.Store(false)
	for _, j := range inst.junctionMap() {
		fq := j.FQName
		s.deploy.eachNet(func(n *compart.Network) { n.Deregister(fq) })
	}
	s.mu.Unlock()
	if s.obs.Tracing() {
		s.obs.Emit(obsv.Event{Kind: obsv.EvInstanceStop, Junction: name})
	}
	for _, j := range inst.junctionMap() {
		j.stopDriver(true)
	}
	// A stop is deliberate and observable: updates already in flight toward
	// this instance can never be acknowledged, so fail their windows now
	// rather than leaving each sender to ride out the progress watchdog.
	s.failWindowsTo(name)
	return nil
}

// CrashInstance simulates an abrupt failure: endpoints go down (peers get
// ErrEndpointDown / silence), drivers stop, state is lost. Unlike
// StopInstance it never errors — crashing a dead instance is a no-op.
func (s *System) CrashInstance(name string) {
	s.mu.Lock()
	inst, ok := s.instanceMap()[name]
	if !ok {
		s.mu.Unlock()
		return
	}
	inst.running.Store(false)
	tracing := s.obs.Tracing()
	if tracing {
		s.obs.Emit(obsv.Event{Kind: obsv.EvInstanceCrash, Junction: name})
	}
	for _, j := range inst.junctionMap() {
		fq := j.FQName
		s.deploy.eachNet(func(n *compart.Network) { n.Crash(fq) })
		if tracing {
			s.obs.Emit(obsv.Event{Kind: obsv.EvEndpointDown, Junction: j.FQName})
		}
	}
	s.mu.Unlock()
	for _, j := range inst.junctionMap() {
		j.stopDriver(true)
	}
	// Crashed endpoints answer new sends with ErrEndpointDown, but updates
	// already in flight would otherwise wait out the watchdog; fail their
	// windows immediately, same as StopInstance.
	s.failWindowsTo(name)
}

// failWindowsTo fails every pipelined ack window addressed to a junction of
// the named instance with ErrPeerDown: the peer is gone (stopped or
// crashed), so in-flight updates can never be acknowledged. The windows
// survive (fail clears waiters but keeps the pair's sequence space), so a
// restarted instance resumes cleanly.
func (s *System) failWindowsTo(name string) {
	prefix := name + "::"
	s.winMu.Lock()
	var stale []*ackWindow
	for k, w := range s.windows {
		if strings.HasPrefix(k.to, prefix) {
			stale = append(stale, w)
		}
	}
	s.winMu.Unlock()
	for _, w := range stale {
		w.fail(fmt.Errorf("%w (%s)", ErrPeerDown, w.to))
	}
}

// InstanceRunning reports whether the named instance is currently running.
func (s *System) InstanceRunning(name string) bool {
	inst, ok := s.instanceMap()[name]
	return ok && inst.running.Load()
}

// Junction returns a running junction by instance and junction name.
func (s *System) Junction(instance, junction string) (*Junction, error) {
	inst, ok := s.instanceMap()[instance]
	if !ok {
		return nil, fmt.Errorf("runtime: instance %q not started", instance)
	}
	j, ok := inst.junctionMap()[junction]
	if !ok {
		return nil, fmt.Errorf("runtime: instance %q has no junction %q", instance, junction)
	}
	return j, nil
}

// junctionQuiet is Junction without error wrapping, tolerating absence.
func (s *System) junctionQuiet(instance, junction string) *Junction {
	inst, ok := s.instanceMap()[instance]
	if !ok {
		return nil
	}
	return inst.junctionMap()[junction]
}

// Invoke schedules a junction once from application logic: pending updates
// are applied, the guard is checked (ErrNotSchedulable when not definitely
// true) and the body runs to completion.
// Invoke re-resolves and retries when the junction migrated between lookup
// and scheduling, so callers never observe a transient ErrMigrated.
func (s *System) Invoke(ctx context.Context, instance, junction string) error {
	for {
		j, err := s.Junction(instance, junction)
		if err != nil {
			return err
		}
		err = j.Schedule(ctx)
		if !errors.Is(err, ErrMigrated) {
			return err
		}
	}
}

// InvokeWhenReady blocks until the junction's guard is true (or ctx ends),
// then schedules it. It subscribes to the guard's read-set and wakes only when
// one of those keys changes — with no polling at all for local-only guards.
func (s *System) InvokeWhenReady(ctx context.Context, instance, junction string) error {
	for {
		err := s.invokeWhenReadyOnce(ctx, instance, junction)
		if !errors.Is(err, ErrMigrated) {
			return err
		}
		// The junction migrated mid-wait: its table (and our subscription)
		// belong to the retired incarnation. Re-resolve and wait on the live
		// junction's table instead.
	}
}

func (s *System) invokeWhenReadyOnce(ctx context.Context, instance, junction string) error {
	j, err := s.Junction(instance, junction)
	if err != nil {
		return err
	}
	if j.comp.guardRS == nil {
		// No guard, so nothing to wait for: one scheduling.
		return j.Schedule(ctx)
	}
	// Subscribe before the first guard check so a wake racing the check is
	// retained in the subscription's buffer, never lost.
	sub := j.Table().SubscribeKeys(j.comp.guardKeys)
	defer j.Table().Unsubscribe(sub)
	var poll <-chan time.Time // stays nil, and never fires, for a local-only guard
	for {
		err := j.Schedule(ctx)
		if !errors.Is(err, ErrNotSchedulable) {
			return err
		}
		if !j.comp.guardRS.LocalOnly() {
			poll = time.After(s.opts.Poll)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w: %w", ErrTimeout, ctx.Err())
		case <-sub.Ch():
		case <-poll:
		}
	}
}

// Close shuts the system down: all instances stop and the network closes.
func (s *System) Close() {
	if s.closed.Swap(true) {
		return
	}
	for _, inst := range s.instanceMap() {
		if inst.running.Load() {
			_ = s.StopInstance(inst.Name)
		}
	}
	s.deploy.eachNet(func(n *compart.Network) { n.Close() })
}

// registerEndpoints installs a junction's real handlers on its location's
// network and forwarding proxies under the same name on every other
// location, so senders always address their local network.
func (s *System) registerEndpoints(j *Junction, loc *location) {
	loc.net.Register(j.FQName, j.handleMessage)
	if !s.deploy.single() {
		s.deploy.registerProxies(loc.name, j.FQName)
	}
}

// --- remote update plumbing -------------------------------------------------
//
// There is one ack plane and one wire format: KindGroup messages one way
// (group.go), KindControl "ack" frames the other. Each directed
// (sender,receiver) junction pair owns an ackWindow carrying its own sequence
// space. A send is a group: the updates one par fires at one destination, or
// adjacent statements of a sequence send to it (or a lone update, the n = 1
// case), take consecutive per-pair seqs, leave as one message and wait on one
// range waiter. The receiver tracks the contiguous delivery frontier
// per sender and answers with cumulative acks — one ack frame (payload: 8-byte
// cum frontier plus optional 8-byte out-of-order extras) completes every range
// at or below the frontier.
//
// A statement completes only at its delivery acknowledgment — the §6 contract
// `otherwise[t]` builds on.

// pairKey identifies a directed (sender,receiver) junction pair.
type pairKey struct{ from, to string }

// remoteUpdate is one assert/retract/write bound for a remote junction.
type remoteUpdate struct {
	key     string
	payload []byte
	kind    compart.MessageKind
	flag    bool
}

// rangeWaiter is one group send awaiting its delivery acks: the consecutive
// per-pair sequences [lo,hi], complete when every one is acknowledged.
type rangeWaiter struct {
	lo, hi uint64
	// base is the highest seq the cumulative frontier has covered inside the
	// range (lo-1 at first); remaining counts the updates not yet acked.
	base      uint64
	remaining int
	// extra marks, by offset from lo, the seqs above base acknowledged out of
	// order, so a cumulative ack passing over them later does not count them
	// twice. Allocated on the first vectored extra into a multi-update range,
	// which only jittered or lossy in-process links produce.
	extra []uint64
	// ch receives the outcome exactly once, from whoever unlinks the waiter.
	ch chan error
	// Window queue links; linked is false once the waiter has been completed,
	// failed or forgotten.
	prev, next *rangeWaiter
	linked     bool
}

// waiterPool recycles range waiters with their channel: every send needs one,
// and every code path ends with the channel quiescent — either its single
// send was received, or the waiter was forgotten before any send.
var waiterPool = sync.Pool{New: func() any { return &rangeWaiter{ch: make(chan error, 1)} }}

// coverTo advances the range's cumulative coverage to c (lo <= c < hi) and
// returns how many updates that newly acknowledges.
func (wt *rangeWaiter) coverTo(c uint64) int {
	if c <= wt.base {
		return 0
	}
	newly := int(c - wt.base)
	if wt.extra != nil {
		for seq := wt.base + 1; seq <= c; seq++ {
			if i := seq - wt.lo; wt.extra[i/64]&(1<<(i%64)) != 0 {
				newly--
			}
		}
	}
	wt.base = c
	wt.remaining -= newly
	return newly
}

// markExtra records the out-of-order acknowledgment of seq (lo <= seq <= hi),
// reporting whether it was news.
func (wt *rangeWaiter) markExtra(seq uint64) bool {
	if seq <= wt.base {
		return false
	}
	if wt.lo != wt.hi {
		if wt.extra == nil {
			wt.extra = make([]uint64, (wt.hi-wt.lo)/64+1)
		}
		i := seq - wt.lo
		if wt.extra[i/64]&(1<<(i%64)) != 0 {
			return false
		}
		wt.extra[i/64] |= 1 << (i % 64)
	}
	wt.remaining--
	return true
}

// ackWindow is the per-pair pipelining state on the sender side.
type ackWindow struct {
	// sendMu serializes sequence assignment with the substrate send, so the
	// wire order on the pair matches the sequence order — the per-pair FIFO
	// guarantee the receiver's cumulative frontier depends on.
	sendMu sync.Mutex

	// to and timeout parameterize the watchdog's failure (set at creation,
	// immutable after).
	to      string
	timeout time.Duration

	mu      sync.Mutex
	nextSeq uint64
	cum     uint64 // highest cumulatively acknowledged sequence
	// head..tail queue the pending range waiters in sequence order (ranges
	// are assigned and linked under mu), so a cumulative ack completes from
	// the head without looking at anything it does not complete.
	head, tail *rangeWaiter
	// Watchdog state: instead of one timer per in-flight update, the window
	// runs a single progress watchdog while waiters exist. acked counts
	// completions; if a full AckTimeout passes with waiters pending and no
	// completions, the frontier is stuck and the whole window fails. This
	// bounds the oldest unacked update by at most 2x AckTimeout while
	// keeping the per-send cost to a queue link (statement-level deadlines
	// remain the job of otherwise[t]'s context).
	timer     *time.Timer
	armed     bool
	acked     uint64
	lastAcked uint64
}

// pushLocked links a waiter at the tail; callers hold w.mu.
func (w *ackWindow) pushLocked(wt *rangeWaiter) {
	wt.prev, wt.next, wt.linked = w.tail, nil, true
	if w.tail != nil {
		w.tail.next = wt
	} else {
		w.head = wt
	}
	w.tail = wt
}

// unlinkLocked removes a waiter from the queue; callers hold w.mu and become
// the waiter's sole completer.
func (w *ackWindow) unlinkLocked(wt *rangeWaiter) {
	if wt.prev != nil {
		wt.prev.next = wt.next
	} else {
		w.head = wt.next
	}
	if wt.next != nil {
		wt.next.prev = wt.prev
	} else {
		w.tail = wt.prev
	}
	wt.prev, wt.next, wt.linked = nil, nil, false
}

// takeAllLocked empties the queue and returns the former head, still chained
// through next; callers hold w.mu.
func (w *ackWindow) takeAllLocked() *rangeWaiter {
	head := w.head
	for wt := head; wt != nil; wt = wt.next {
		wt.linked = false
	}
	w.head, w.tail = nil, nil
	return head
}

// completeAll sends err to every waiter of a chain returned by takeAllLocked.
func completeAll(head *rangeWaiter, err error) {
	for wt := head; wt != nil; {
		next := wt.next // the receiver may recycle wt as soon as ch fires
		wt.ch <- err
		wt = next
	}
}

// armLocked (re)arms the watchdog; callers hold w.mu and have just added a
// waiter.
func (w *ackWindow) armLocked() {
	if w.armed {
		return
	}
	w.armed = true
	w.lastAcked = w.acked
	if w.timer == nil {
		w.timer = time.AfterFunc(w.timeout, w.watchdog)
	} else {
		w.timer.Reset(w.timeout)
	}
}

// watchdog runs each AckTimeout while the window has pending waiters: any
// completion since the last check counts as progress and rearms; a stalled
// frontier fails every pipelined update at once.
func (w *ackWindow) watchdog() {
	w.mu.Lock()
	if w.head == nil {
		w.armed = false
		w.mu.Unlock()
		return
	}
	if w.acked != w.lastAcked {
		w.lastAcked = w.acked
		w.timer.Reset(w.timeout)
		w.mu.Unlock()
		return
	}
	stalled := w.takeAllLocked()
	w.armed = false
	w.mu.Unlock()
	completeAll(stalled, fmt.Errorf("%w: no ack from %s within %s", ErrSendFailed, w.to, w.timeout))
}

// forget unlinks a waiter, reporting whether it was still pending (false
// means an ack or window failure already completed it).
func (w *ackWindow) forget(wt *rangeWaiter) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !wt.linked {
		return false
	}
	w.unlinkLocked(wt)
	return true
}

// fail completes every pending waiter on the window with err: a peer known
// to be down (or a timed-out frontier) fails the whole pipeline at once
// instead of one AckTimeout at a time. The window itself stays usable — a
// revived peer opens where the sequence space left off.
func (w *ackWindow) fail(err error) {
	w.mu.Lock()
	failed := w.takeAllLocked()
	w.mu.Unlock()
	completeAll(failed, err)
}

// window returns (creating on first use) the ack window for a directed pair.
func (s *System) window(from, to string) *ackWindow {
	k := pairKey{from, to}
	s.winMu.Lock()
	w := s.windows[k]
	if w == nil {
		w = &ackWindow{to: to, timeout: s.opts.AckTimeout}
		s.windows[k] = w
	}
	s.winMu.Unlock()
	return w
}

// junctionWindow is the hot-path variant of window for a junction's own
// sends: windows are created once and never removed, so each junction keeps
// a lock-free read-mostly cache keyed by destination.
func (s *System) junctionWindow(j *Junction, to string) *ackWindow {
	if v, ok := j.winCache.Load(to); ok {
		return v.(*ackWindow)
	}
	w := s.window(j.FQName, to)
	j.winCache.Store(to, w)
	return w
}

// pendingAcks reports how many updates are awaiting acknowledgment on the
// directed pair (test hook: the ctx-cancel and window-failure regression
// tests assert waiters never leak).
func (s *System) pendingAcks(from, to string) int {
	s.winMu.Lock()
	w := s.windows[pairKey{from, to}]
	s.winMu.Unlock()
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for wt := w.head; wt != nil; wt = wt.next {
		n += wt.remaining
	}
	return n
}

// ackPair processes one cumulative/vectored ack frame on the sender side:
// every range at or below cum completes from the head of the queue, a range
// the frontier cuts through is credited up to it, and each listed
// out-of-order extra is credited to the range holding it.
func (s *System) ackPair(from, to string, cum uint64, extras []uint64) {
	s.winMu.Lock()
	w := s.windows[pairKey{from, to}]
	s.winMu.Unlock()
	if w == nil {
		return
	}
	var doneBuf [4]*rangeWaiter
	done := doneBuf[:0]
	acked := 0
	w.mu.Lock()
	if cum > w.cum {
		w.cum = cum
		for wt := w.head; wt != nil && wt.lo <= cum; {
			next := wt.next
			if cum >= wt.hi {
				acked += wt.remaining
				wt.remaining = 0
			} else {
				acked += wt.coverTo(cum)
			}
			if wt.remaining == 0 {
				w.unlinkLocked(wt)
				done = append(done, wt)
			}
			wt = next
		}
	}
	for _, e := range extras {
		for wt := w.head; wt != nil && wt.lo <= e; wt = wt.next {
			if e > wt.hi {
				continue
			}
			if wt.markExtra(e) {
				acked++
				if wt.remaining == 0 {
					w.unlinkLocked(wt)
					done = append(done, wt)
				}
			}
			break
		}
	}
	w.acked += uint64(acked) // progress, as seen by the watchdog
	w.mu.Unlock()
	for _, wt := range done {
		wt.ch <- nil
	}
}

// sendGroup is the one remote-update send of the pipelined plane. The group
// takes consecutive sequences on the pair's window in slice order, crosses
// the substrate as one KindGroup message (group.go: one frame on a wire, one
// KV batch and one cumulative ack at the receiver) and waits on one range
// waiter, so a par's updates to one destination, or a straight-line run of
// them, cost what one update costs in round trips; a lone statement is the
// group of one. The wait respects ctx's deadline; the per-window progress
// watchdog bounds how long a stuck frontier can hold waiters (see ackWindow).
//
// acked is how many leading updates of the group were acknowledged: all of
// them on success, and on failure the position of the first unacknowledged
// one — where a sequence of single statements would have failed.
func (s *System) sendGroup(ctx context.Context, j *Junction, to string, ups []remoteUpdate) (acked int, err error) {
	n := len(ups)
	from := j.FQName
	w := s.junctionWindow(j, to)
	wt := waiterPool.Get().(*rangeWaiter)
	tracing := s.obs.Tracing()

	// The group is encoded before the sequence range is known, outside the
	// window's locks; lo is written into its header once assigned.
	payload := appendGroup(0, ups)

	w.sendMu.Lock()
	w.mu.Lock()
	lo := w.nextSeq + 1
	w.nextSeq += uint64(n)
	hi := w.nextSeq
	wt.lo, wt.hi, wt.base, wt.remaining, wt.extra = lo, hi, lo-1, n, nil
	w.pushLocked(wt)
	w.armLocked()
	w.mu.Unlock()
	binary.BigEndian.PutUint64(payload, lo)
	// Ack latency is sampled for the groups holding every 8th sequence (the
	// histogram is a sample, not a census): at pipelined rates two time.Now
	// calls per send are a measurable share of the send path. Tracing still
	// times every group — trace events carry their own Dur.
	var start time.Time
	timing := s.obs.Timing() && (tracing || hi>>3 != (lo-1)>>3)
	if timing {
		start = time.Now()
	}
	serr := j.net.Send(compart.Message{From: from, To: to, Kind: compart.KindGroup, Payload: payload})
	w.sendMu.Unlock()

	var werr error
	switch {
	case serr != nil:
		if !w.forget(wt) {
			<-wt.ch // a window failure completed it meanwhile: drain before reuse
		}
		if errors.Is(serr, compart.ErrEndpointDown) {
			// Transport-level liveness (a crashed endpoint, or a proxy an
			// uplink's Notify crashed when its heartbeats went unanswered)
			// already knows the peer is gone: fail every pipelined update on
			// this pair fast instead of waiting out one ack timeout per
			// update.
			werr = fmt.Errorf("%w (%s)", ErrPeerDown, to)
			w.fail(werr)
		} else {
			werr = fmt.Errorf("%w: %v", ErrSendFailed, serr)
		}
	default:
		select {
		case werr = <-wt.ch:
		case <-ctx.Done():
			if w.forget(wt) {
				// otherwise[t] expired with the range still pending: what is
				// left of it is forgotten, and no completer holds the waiter.
				werr = fmt.Errorf("%w: awaiting ack from %s", ErrTimeout, to)
			} else {
				// An ack raced the cancellation: the group was delivered, the
				// statement completes normally.
				werr = <-wt.ch
			}
		}
	}
	// The waiter is unlinked and its channel quiescent (its one send, if any,
	// was received), so nothing else touches it: base is final. Members the
	// cumulative frontier passed were acknowledged even when the group failed.
	acked = n
	if werr != nil {
		acked = int(wt.base - (lo - 1))
	}
	waiterPool.Put(wt)
	j.met.RemoteAcked.Add(uint64(acked))
	var d time.Duration
	if timing && werr == nil {
		d = time.Since(start)
		j.met.Ack.Observe(d)
	}
	if tracing {
		for seq := lo; seq < lo+uint64(acked); seq++ {
			s.obs.Emit(obsv.Event{Kind: obsv.EvRemoteAcked, Junction: from, Key: to, Peer: to, N: int64(seq), Dur: d})
		}
	}
	return acked, werr
}

// recvTrack is the receiver-side delivery tracking for one sending junction:
// contig is the contiguous frontier (every seq <= contig delivered), oo the
// delivered seqs above contig+1 that arrived out of order (reordering on
// jittered in-process links, or deliveries outliving a peer restart).
type recvTrack struct {
	contig uint64
	oo     map[uint64]struct{}
}

// maxRecvGap bounds the out-of-order set per sender. A gap this wide means
// the missing seqs are not coming — dropped by a lossy link, or addressed to
// a previous incarnation of this junction — and their senders have long
// failed their window, so the frontier skips forward and acking returns to
// the cheap cumulative form. (A sender ignores cum acks for seqs it is no
// longer waiting on.)
const maxRecvGap = 1024

// recvTrackLocked returns the sender's delivery tracking, creating it on the
// sender's first delivery. Callers hold recvMu.
func (j *Junction) recvTrackLocked(from string) *recvTrack {
	tr := j.recvFrom[from]
	if tr == nil {
		if j.recvFrom == nil {
			j.recvFrom = map[string]*recvTrack{}
		}
		tr = &recvTrack{}
		j.recvFrom[from] = tr
	}
	return tr
}

// deliver records the arrival of per-pair sequence seq and returns the ack to
// emit: the cumulative frontier, plus whether seq landed out of order and
// must be acknowledged as a vectored extra. Callers hold the junction's
// recvMu.
func (tr *recvTrack) deliver(seq uint64) (cum uint64, extra bool) {
	switch {
	case seq <= tr.contig:
		// Duplicate: re-acking the frontier is harmless.
	case seq == tr.contig+1:
		tr.contig = seq
		for {
			if _, ok := tr.oo[tr.contig+1]; !ok {
				break
			}
			delete(tr.oo, tr.contig+1)
			tr.contig++
		}
	default:
		if tr.oo == nil {
			tr.oo = map[uint64]struct{}{}
		}
		tr.oo[seq] = struct{}{}
		if len(tr.oo) > maxRecvGap {
			for s := range tr.oo {
				if s > tr.contig {
					tr.contig = s
				}
			}
			tr.oo = nil
			return tr.contig, false
		}
		return tr.contig, true
	}
	return tr.contig, false
}

// written is the §8 label value of a delivered update: tt or ff for a
// proposition, * for data.
func written(u *kv.Update) string {
	if u.Kind == kv.UpdateData {
		return "*"
	}
	return wrote(u.Bool)
}

// appendAck encodes a cumulative ack payload: the 8-byte frontier followed
// by any vectored out-of-order extras.
func appendAck(cum uint64, extras []uint64) []byte {
	body := make([]byte, 8, 8+8*len(extras))
	binary.BigEndian.PutUint64(body, cum)
	for _, e := range extras {
		body = binary.BigEndian.AppendUint64(body, e)
	}
	return body
}

// handleMessage is installed per junction endpoint; defined here because it
// needs the ack plumbing. A KindControl message keyed "ack" resolves acks; a
// KindGroup message is a delivery group (handleGroup).
func (j *Junction) handleMessage(m compart.Message) {
	switch m.Kind {
	case compart.KindControl:
		if m.Key != "ack" || len(m.Payload) < 8 {
			return
		}
		// Cumulative frontier first, then vectored extras; the window is
		// keyed by (this junction, acking peer).
		cum := binary.BigEndian.Uint64(m.Payload)
		var extras []uint64
		for off := 8; off+8 <= len(m.Payload); off += 8 {
			extras = append(extras, binary.BigEndian.Uint64(m.Payload[off:]))
		}
		j.sys.ackPair(j.FQName, m.From, cum, extras)
	case compart.KindGroup:
		j.handleGroup(&m)
	}
}

// updatePool holds the update slices of groups wider than handleGroup's stack
// array: a 96-member fan-out group would otherwise allocate ~8 KB per
// message. Pooled slices are kept cleared, so their slots are zero Updates.
var updatePool = sync.Pool{New: func() any { return new([]kv.Update) }}

// handleGroup absorbs a delivery group: its members are decoded straight into
// an update slice, its sequences recorded under one recvMu, its updates
// enqueued under one KV lock (kv.EnqueueBatch) and its sender acknowledged
// with one frame. Every member's sender is the message's From. A payload that
// does not decode exactly is dropped whole and not acknowledged, so its
// sender's window times out as for a lost frame.
func (j *Junction) handleGroup(m *compart.Message) {
	lo, n, p, ok := openGroup(m.Payload)
	if !ok {
		return
	}
	// A request hop is a group of two: its updates live on the stack, and a
	// wide fan-out takes a pooled slice with room for every member.
	var updateBuf [4]kv.Update
	var updates []kv.Update
	var pooled *[]kv.Update
	if n <= len(updateBuf) {
		updates = updateBuf[:n]
	} else {
		pooled = updatePool.Get().(*[]kv.Update)
		if cap(*pooled) < n {
			*pooled = make([]kv.Update, n)
		}
		updates = (*pooled)[:n]
	}
	for i := range updates {
		var gm groupMember
		if gm, p, ok = nextMember(p); !ok {
			break
		}
		u := &updates[i]
		u.Key, u.From = j.declaredName(gm.key), m.From
		if gm.kind == compart.KindProp {
			u.Kind, u.Bool = kv.UpdateProp, gm.flag
		} else {
			u.Kind, u.Data = kv.UpdateData, append([]byte(nil), gm.data...)
		}
	}
	if ok && len(p) == 0 {
		j.deliverGroup(m.From, lo, updates)
	}
	if pooled != nil {
		// updates is a prefix of *pooled's array; putting updates itself back
		// would let the stack array escape.
		clear((*pooled)[:n])
		updatePool.Put(pooled)
	}
}

// deliverGroup records the arrival of the sequences lo.. of a decoded group
// from one sender, enqueues its updates and acknowledges it.
func (j *Junction) deliverGroup(from string, lo uint64, updates []kv.Update) {
	n := uint64(len(updates))
	tracing := j.sys.obs.Tracing()
	if tracing {
		// Emitted before the updates are visible, so no trace can show one
		// applied ahead of its arrival; the sink runs outside recvMu.
		for i := range updates {
			j.sys.obs.Emit(obsv.Event{Kind: obsv.EvRemoteQueued, Junction: j.FQName, Key: updates[i].Key, Truth: written(&updates[i]), Peer: from, N: int64(lo + uint64(i))})
		}
	}
	var cum uint64
	var extras []uint64
	j.recvMu.Lock()
	tr := j.recvTrackLocked(from)
	for i := uint64(0); i < n; i++ {
		seq := lo + i
		c, extra := tr.deliver(seq)
		cum = c
		if extra {
			extras = append(extras, seq)
		}
	}
	j.recvMu.Unlock()
	j.table.EnqueueBatch(updates)
	j.met.RemoteQueued.Add(n)
	if n > 1 {
		j.met.RemoteBatches.Add(1)
		if tracing {
			j.sys.obs.Emit(obsv.Event{Kind: obsv.EvRemoteBatch, Junction: j.FQName, Peer: from, N: int64(n)})
		}
	}
	// The ack leaves after the updates are enqueued: a sender's statement
	// must not complete before its update is visible to the receiving table.
	_ = j.net.Send(compart.Message{
		From: j.FQName, To: from, Kind: compart.KindControl, Key: "ack", Payload: appendAck(cum, extras),
	})
}
