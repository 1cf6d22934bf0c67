package runtime

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"csaw/internal/compart"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/kv"
	"csaw/internal/obsv"
	"csaw/internal/plan"
)

// Junction is a running junction: its KV table, idx/subset state and the
// machinery to schedule its body.
type Junction struct {
	sys  *System
	inst *Instance
	def  *dsl.JunctionDef

	// FQName is the junction's fully-qualified name "instance::junction".
	FQName string

	// net is the location network this junction's endpoint lives on; all of
	// its sends (updates and acks) go out through it.
	net *compart.Network

	// moved flips when the junction's state has been transferred to a new
	// incarnation at another location: this object is retired, Schedule
	// answers ErrMigrated, and Invoke/InvokeWhenReady re-resolve.
	moved atomic.Bool

	table *kv.Table

	// names maps each proposition and data name the junction declares to
	// itself, so a delivered group's keys resolve to the declared strings
	// without allocating (declaredName). Built once in newJunction from the
	// plan's declarations, read-only after.
	names map[string]string

	// met is the always-on observability counter block for this junction,
	// cached at construction so the scheduling path never takes the registry
	// lock.
	met *obsv.JunctionMetrics

	idxMu   sync.Mutex
	subsets map[string][]string // nil slice = undef; members me::-resolved
	idxs    map[string]string   // "" = undef; the element me::-resolved

	schedMu sync.Mutex // one scheduling at a time
	turn    schedTurn  // callers waiting for schedMu with a deadline
	// scheduling is set while a scheduling holds schedMu, so an ack this
	// junction sends can say a frame of its own is likely to follow.
	scheduling atomic.Bool
	// traced is whether the scheduling in progress reports the body's local
	// writes (noteLocalWrite): Schedule's one look at the tracing flag, kept
	// for the steps it runs so that they take no look of their own.
	traced bool

	// errGuard is what Schedule answers when the guard is not definitely
	// true. A driver gets that answer on every pass that finds nothing to do,
	// so it is built once, here, and not formatted per refusal.
	errGuard error

	// recvMu guards recvFrom: the per-sender delivery tracking behind
	// cumulative acks (system.go). Reset naturally on restart — a restarted
	// instance gets fresh Junction objects, opening a new receive epoch.
	recvMu   sync.Mutex
	recvFrom map[string]*recvTrack

	// winCache caches this junction's sender-side ack windows by
	// destination (System.junctionWindow): windows are create-only, so the
	// read path is lock-free.
	winCache sync.Map

	// pj is the junction's static lowering (plan.Compile output): every
	// declaration, name and qualifier the runtime resolves comes from it. comp
	// is the per-start closure compilation built on it.
	pj   *plan.Junction
	comp *compiledJunction

	// Driver lifecycle. driverOn + a fresh stopCh per start make the driver
	// restartable: migration quiesces drivers on the source and the rebuilt
	// junction starts its own (an abort restarts the source's). root is the
	// context the driver's schedulings run under; cancelling it abandons them.
	driverMu sync.Mutex
	driverOn bool
	stopCh   chan struct{}
	root     *deadline
	driverWG sync.WaitGroup
}

func newJunction(s *System, inst *Instance, def *dsl.JunctionDef, net *compart.Network) *Junction {
	fq := inst.Name + "::" + def.Name
	pj := s.plan.Junctions[fq]
	j := &Junction{
		sys:     s,
		inst:    inst,
		def:     def,
		FQName:  fq,
		net:     net,
		table:   kv.NewTable(),
		names:   make(map[string]string, len(pj.Props())+len(pj.Data())),
		subsets: make(map[string][]string, len(pj.Subsets())),
		idxs:    make(map[string]string, len(pj.Idxs())),
		pj:      pj,
	}
	if def.Guard != nil {
		j.errGuard = fmt.Errorf("%w: %s guard %s", ErrNotSchedulable, j.FQName, def.Guard)
	}
	j.met = s.obs.Junction(j.FQName)
	j.table.SetWakeHook(func(kind kv.UpdateKind, key string, woken int) {
		j.met.SubWakes.Add(uint64(woken))
		if s.obs.Tracing() {
			s.obs.Emit(obsv.Event{Kind: obsv.EvSubWake, Junction: j.FQName, Key: key, N: int64(woken)})
		}
	})
	for _, name := range pj.Props() {
		j.table.DeclareProp(name, pj.PropInit(name))
		j.names[name] = name
	}
	for _, name := range pj.Data() {
		j.table.DeclareData(name)
		j.names[name] = name
	}
	for _, name := range pj.Subsets() {
		j.subsets[name] = nil
	}
	for _, name := range pj.Idxs() {
		j.idxs[name] = ""
	}
	j.comp = j.compile(pj)
	return j
}

// declaredName returns the declared name key spells, or a string of its own
// for a name the junction does not declare (which its table ignores).
func (j *Junction) declaredName(key []byte) string {
	if name, ok := j.names[string(key)]; ok { // the lookup does not allocate
		return name
	}
	return string(key)
}

// Table exposes the junction's KV table (used by tests and the driver).
func (j *Junction) Table() *kv.Table { return j.table }

// Def returns the junction's definition.
func (j *Junction) Def() *dsl.JunctionDef { return j.def }

// Instance returns the owning instance name.
func (j *Junction) Instance() string { return j.inst.Name }

// GuardTrue applies pending updates and evaluates the guard (true when the
// junction has no guard).
func (j *Junction) GuardTrue() bool {
	j.table.ApplyPending()
	if j.def.Guard == nil {
		return true
	}
	return j.comp.guard() == formula.True
}

// Schedule runs the junction body once. It applies pending updates, checks
// the guard (ErrNotSchedulable when not definitely true) and runs the body,
// honouring the retry bound. While another scheduling or a migration holds
// the junction, it waits for its turn only as long as ctx lets it
// (ErrTimeout).
func (j *Junction) Schedule(ctx context.Context) error {
	if !j.schedMu.TryLock() {
		if err := j.lockSched(ctx); err != nil {
			return err
		}
	}
	defer j.schedMu.Unlock()
	j.scheduling.Store(true)
	defer j.scheduling.Store(false)
	if j.moved.Load() {
		// Migration holds schedMu until the new incarnation is live, so by
		// the time a caller gets here the replacement is resolvable.
		return fmt.Errorf("%w: %s", ErrMigrated, j.FQName)
	}
	if !j.inst.running.Load() {
		return fmt.Errorf("%w: instance %q", ErrNotRunning, j.inst.Name)
	}
	obs := j.sys.obs
	tracing := obs.Tracing()
	j.traced = tracing
	if applied := j.table.ApplyPending(); applied > 0 {
		j.met.RemoteApplied.Add(uint64(applied))
		if tracing {
			obs.Emit(obsv.Event{Kind: obsv.EvRemoteApplied, Junction: j.FQName, N: int64(applied)})
		}
	}
	if j.def.Guard != nil {
		truth := j.comp.guard()
		if tracing {
			obs.Emit(obsv.Event{Kind: obsv.EvGuardEval, Junction: j.FQName, Truth: truth.String()})
		}
		if truth != formula.True {
			j.met.NotSchedulable.Add(1)
			if tracing {
				obs.Emit(obsv.Event{Kind: obsv.EvSchedNotSchedulable, Junction: j.FQName})
			}
			return j.errGuard
		}
	}
	j.met.Schedulings.Add(1)
	timing := obs.Timing()
	var start time.Time
	if timing {
		start = time.Now()
	}
	if tracing {
		obs.Emit(obsv.Event{Kind: obsv.EvSchedStart, Junction: j.FQName})
	}

	// retry branches back to the beginning of the junction, at most
	// RetryLimit times within a single scheduling (paper §6).
	for attempt := 0; ; attempt++ {
		sig, err := runSteps(ctx, j.comp.body)
		if err != nil {
			j.met.Errors.Add(1)
			if tracing {
				obs.Emit(obsv.Event{Kind: obsv.EvSchedError, Junction: j.FQName, Err: err.Error()})
			}
			return fmt.Errorf("%s: %w", j.FQName, err)
		}
		if sig == plan.SigRetry {
			j.met.Retries.Add(1)
			if tracing {
				obs.Emit(obsv.Event{Kind: obsv.EvRetry, Junction: j.FQName, N: int64(attempt + 1)})
			}
			if attempt+1 >= j.def.RetryLimit {
				j.met.Errors.Add(1)
				if tracing {
					obs.Emit(obsv.Event{Kind: obsv.EvSchedError, Junction: j.FQName, Err: ErrRetryExhausted.Error()})
				}
				return fmt.Errorf("%s: %w (%d attempts)", j.FQName, ErrRetryExhausted, attempt+1)
			}
			continue
		}
		j.met.Fires.Add(1)
		if timing {
			d := time.Since(start)
			j.met.Sched.Observe(d)
			if tracing {
				obs.Emit(obsv.Event{Kind: obsv.EvSchedFire, Junction: j.FQName, Dur: d})
			}
		} else if tracing {
			obs.Emit(obsv.Event{Kind: obsv.EvSchedFire, Junction: j.FQName})
		}
		return nil
	}
}

// schedTurn queues the Schedule callers that found schedMu held and may give
// up waiting (lockSched). One helper goroutine at a time takes schedMu on
// their behalf and hands it to one of them, so callers that give up leave no
// goroutine each behind them, and the helper's Lock keeps sync.Mutex's
// fairness towards a holder that re-locks at once (a driver whose guard
// still holds).
type schedTurn struct {
	mu      sync.Mutex
	waiters int           // callers neither handed the lock yet nor gone
	ch      chan struct{} // the running helper's handoff; nil when none runs
	gone    chan struct{} // a caller gave up: the helper counts again
}

// lockSched is Schedule's slow path: it takes schedMu once it is free, or
// gives up when ctx ends first.
func (j *Junction) lockSched(ctx context.Context) error {
	done := ctx.Done()
	if done == nil {
		j.schedMu.Lock()
		return nil
	}
	t := &j.turn
	t.mu.Lock()
	t.waiters++
	if t.ch == nil {
		t.ch, t.gone = make(chan struct{}), make(chan struct{}, 1)
		go j.passTurns(t.ch, t.gone)
	}
	ch, gone := t.ch, t.gone
	t.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-done:
		t.mu.Lock()
		t.waiters--
		t.mu.Unlock()
		select {
		case gone <- struct{}{}:
		default: // a recount is already due
		}
		return fmt.Errorf("%s: %w: %w", j.FQName, ErrTimeout, ctx.Err())
	}
}

// passTurns is schedTurn's helper. It takes schedMu and hands it to one
// waiting caller at a time; once none is waiting, it releases the lock and
// exits.
func (j *Junction) passTurns(ch, gone chan struct{}) {
	t := &j.turn
	j.schedMu.Lock()
	for {
		t.mu.Lock()
		if t.waiters == 0 {
			t.ch, t.gone = nil, nil
			t.mu.Unlock()
			j.schedMu.Unlock()
			return
		}
		t.mu.Unlock()
		select {
		case ch <- struct{}{}:
			// The receiver holds schedMu now.
			t.mu.Lock()
			t.waiters--
			t.mu.Unlock()
			j.schedMu.Lock()
		case <-gone:
		}
	}
}

// startDriver launches the runtime-driven scheduling loop used for guarded
// junctions: whenever the guard becomes true the body runs.
func (j *Junction) startDriver() {
	j.driverMu.Lock()
	defer j.driverMu.Unlock()
	if j.driverOn {
		return
	}
	j.driverOn = true
	// Each start gets its own stop channel; the loops capture it so a stop
	// racing a later restart can never close a channel a newer loop owns.
	stop := make(chan struct{})
	// The root is a deadline with no time limit, so a firing's otherwise[t]
	// links to it without allocating.
	root := newDeadline()
	j.stopCh, j.root = stop, root
	j.driverWG.Add(1)
	go j.runDriverEvent(root, stop)
}

// runDriverEvent schedules on keyed wakes: the driver subscribes to the
// guard's read-set and blocks until one of those keys changes. The poll
// timer survives only as a fallback, armed when the guard consults remote
// state the local table cannot observe, or after a body failure (so crash
// loops keep retrying and transient remote failures recover).
func (j *Junction) runDriverEvent(ctx context.Context, stop <-chan struct{}) {
	defer j.driverWG.Done()
	rs := j.comp.guardRS
	sub := j.table.SubscribeKeys(j.comp.guardKeys)
	defer j.table.Unsubscribe(sub)
	timer := time.NewTimer(j.sys.opts.Poll)
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return
		default:
		}
		err := j.Schedule(ctx)
		if err == nil {
			// Body ran; look again immediately — the guard may still hold
			// (e.g. queued work), and a self-wake from the body's own writes
			// is already buffered in the subscription.
			continue
		}
		if errors.Is(err, ErrMigrated) || ctx.Err() != nil {
			// This incarnation is retired and its replacement runs its own
			// driver, or the instance is going down and took the scheduling
			// with it: neither is a failure of the body.
			return
		}
		notSched := errors.Is(err, ErrNotSchedulable)
		if !notSched && !errors.Is(err, ErrNotRunning) {
			// A failed scheduling must not kill the junction: record and go on.
			j.sys.noteDriverError(j.FQName, err)
		}
		if rs.Remote || !notSched {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(j.sys.opts.Poll)
			select {
			case <-stop:
				return
			case <-sub.Ch():
				j.noteWake(true)
			case <-timer.C:
				j.noteWake(false)
			}
			continue
		}
		// Local-only guard, not schedulable: pure event wait — no polling.
		select {
		case <-stop:
			return
		case <-sub.Ch():
			j.noteWake(true)
		}
	}
}

// noteWake records one driver wake-up: event-driven (a subscription
// delivery) or poll-driven (the fallback timer).
func (j *Junction) noteWake(event bool) {
	if event {
		j.met.WakesEvent.Add(1)
	} else {
		j.met.WakesPoll.Add(1)
	}
	if j.sys.obs.Tracing() {
		k := obsv.EvDriverWakePoll
		if event {
			k = obsv.EvDriverWakeEvent
		}
		j.sys.obs.Emit(obsv.Event{Kind: k, Junction: j.FQName})
	}
}

// noteTxn records one transaction lifecycle step.
func (j *Junction) noteTxn(k obsv.Kind) {
	switch k {
	case obsv.EvTxnCommit:
		j.met.TxnCommits.Add(1)
	case obsv.EvTxnRollback:
		j.met.TxnRollbacks.Add(1)
	}
	if j.sys.obs.Tracing() {
		j.sys.obs.Emit(obsv.Event{Kind: k, Junction: j.FQName})
	}
}

// noteLocalWrite reports a write of the body to the junction's own table;
// value is how §8 labels it (wrote, or "*" for data). Callers test j.traced.
func (j *Junction) noteLocalWrite(key, value string) {
	j.sys.obs.Emit(obsv.Event{Kind: obsv.EvLocalWrite, Junction: j.FQName, Key: key, Truth: value})
}

// wrote is the §8 label value of a proposition write.
func wrote(v bool) string {
	if v {
		return "tt"
	}
	return "ff"
}

// noteWaitArmed records a wait arming and returns the blocked-time start
// (zero when timing is off).
func (j *Junction) noteWaitArmed(cond string) time.Time {
	j.met.WaitsArmed.Add(1)
	var start time.Time
	if j.sys.obs.Timing() {
		start = time.Now()
	}
	if j.sys.obs.Tracing() {
		j.sys.obs.Emit(obsv.Event{Kind: obsv.EvWaitArmed, Junction: j.FQName, Key: cond})
	}
	return start
}

// noteWaitAdmitted records a wait whose formula became true (Dur = blocked
// time when timing was on at arming).
func (j *Junction) noteWaitAdmitted(cond string, start time.Time) {
	j.met.WaitsAdmitted.Add(1)
	if j.sys.obs.Tracing() {
		var d time.Duration
		if !start.IsZero() {
			d = time.Since(start)
		}
		j.sys.obs.Emit(obsv.Event{Kind: obsv.EvWaitAdmitted, Junction: j.FQName, Key: cond, Dur: d})
	}
}

// noteWaitTimeout records a wait cut short by the enclosing deadline.
func (j *Junction) noteWaitTimeout(cond string) {
	j.met.WaitsTimedOut.Add(1)
	if j.sys.obs.Tracing() {
		j.sys.obs.Emit(obsv.Event{Kind: obsv.EvWaitTimeout, Junction: j.FQName, Key: cond})
	}
}

// stopDriver stops the driver loop and returns once it has exited. A
// scheduling in flight runs to its end — what migration's quiesce needs —
// unless abandon is set: an instance that is going down has deregistered its
// endpoints, no ack can reach it any more, and a body waiting for one (or in a
// wait nothing will admit) would hold the stop for as long as it waits.
func (j *Junction) stopDriver(abandon bool) {
	j.driverMu.Lock()
	if !j.driverOn {
		j.driverMu.Unlock()
		return
	}
	j.driverOn = false
	close(j.stopCh)
	root := j.root
	j.driverMu.Unlock()
	if abandon {
		root.cancel(context.Canceled)
	}
	j.driverWG.Wait()
	root.cancel(context.Canceled)
}

// --- driver error diagnostics ----------------------------------------------

// DriverError is one recorded driver-loop body failure.
type DriverError struct {
	Junction string
	Err      error
}

// driverLogCap bounds the driver error log: a crash-looping junction retries
// every poll interval and must not grow the log without bound. The
// per-junction latest-error map is unaffected by the cap.
const driverLogCap = 256

// noteDriverError records a body failure: the latest error per junction
// (for LastDriverError) and an arrival-ordered log of every failure up to
// driverLogCap (for DriverErrors). Driver diagnostics have their own mutex —
// they must not contend with, or deadlock against, the ack hot path.
func (s *System) noteDriverError(fq string, err error) {
	s.driverMu.Lock()
	defer s.driverMu.Unlock()
	if s.driverErrs == nil {
		s.driverErrs = map[string]error{}
	}
	s.driverErrs[fq] = err
	if len(s.driverLog) < driverLogCap {
		s.driverLog = append(s.driverLog, DriverError{Junction: fq, Err: err})
	} else {
		s.driverDropped++
	}
}

// LastDriverError returns the most recent driver-loop failure for a
// junction, if any.
func (s *System) LastDriverError(fq string) error {
	s.driverMu.Lock()
	defer s.driverMu.Unlock()
	return s.driverErrs[fq]
}

// DriverErrors returns every recorded driver-loop failure in arrival order
// (capped at driverLogCap entries) and how many were dropped past the cap.
func (s *System) DriverErrors() (log []DriverError, dropped int) {
	s.driverMu.Lock()
	defer s.driverMu.Unlock()
	return append([]DriverError(nil), s.driverLog...), s.driverDropped
}

// --- idx / subset state ------------------------------------------------------

// SetIdx assigns an idx variable. The element must belong to the idx's
// underlying set or subset (the paper's contract with the host language).
func (j *Junction) SetIdx(name, elem string) error {
	elem = j.pj.ResolveName(elem)
	of, ok := j.pj.IdxSet(name)
	if !ok {
		return fmt.Errorf("runtime: %s: idx %q not declared", j.FQName, name)
	}
	universe, _ := j.pj.SetUniverse(of) // Validate rejects an idx over an undeclared set
	j.idxMu.Lock()
	defer j.idxMu.Unlock()
	// If the idx ranges over a subset, membership is against the subset's
	// current value.
	if members, isSub := j.subsets[of]; isSub {
		if members == nil {
			return fmt.Errorf("runtime: %s: idx %q over undef subset %q", j.FQName, name, of)
		}
		universe = members
	}
	if !slices.Contains(universe, elem) {
		return fmt.Errorf("runtime: %s: element %q outside set of idx %q", j.FQName, elem, name)
	}
	j.idxs[name] = elem
	// Reassigning an idx redirects which key an indexed formula reads without
	// touching the table: wake every subscriber so event-driven guards and
	// waits re-evaluate.
	j.table.WakeAll()
	return nil
}

// Idx resolves an idx variable; error when undef.
func (j *Junction) Idx(name string) (string, error) {
	j.idxMu.Lock()
	defer j.idxMu.Unlock()
	v, ok := j.idxs[name]
	if !ok {
		return "", fmt.Errorf("runtime: %s: idx %q not declared", j.FQName, name)
	}
	if v == "" {
		return "", fmt.Errorf("%w: %s.%s", ErrIdxUndef, j.FQName, name)
	}
	return v, nil
}

// SetSubset replaces a subset's membership; every element must belong to the
// parent set.
func (j *Junction) SetSubset(name string, elems []string) error {
	resolved := make([]string, len(elems))
	for i, e := range elems {
		resolved[i] = j.pj.ResolveName(e)
	}
	j.idxMu.Lock()
	defer j.idxMu.Unlock()
	if _, ok := j.subsets[name]; !ok {
		return fmt.Errorf("runtime: %s: subset %q not declared", j.FQName, name)
	}
	parent, _ := j.pj.SetUniverse(name)
	for _, e := range resolved {
		if !slices.Contains(parent, e) {
			return fmt.Errorf("runtime: %s: element %q outside parent set of subset %q", j.FQName, e, name)
		}
	}
	j.subsets[name] = resolved
	// Subset membership constrains idx resolution: wake subscribers just as
	// SetIdx does.
	j.table.WakeAll()
	return nil
}

// Subset returns a subset's current membership; error when undef.
func (j *Junction) Subset(name string) ([]string, error) {
	j.idxMu.Lock()
	defer j.idxMu.Unlock()
	v, ok := j.subsets[name]
	if !ok {
		return nil, fmt.Errorf("runtime: %s: subset %q not declared", j.FQName, name)
	}
	if v == nil {
		return nil, fmt.Errorf("runtime: %s: subset %q is undef", j.FQName, name)
	}
	return append([]string(nil), v...), nil
}

// --- external (application-side) injection ------------------------------------

// InjectProp delivers an externally-originated proposition update to this
// junction's table, exactly as a remote assert/retract would (queued until
// the next scheduling, or admitted by an active wait). The paper's fail-over
// example relies on this: "Req is asserted externally to process client
// request" (Fig. 13).
func (j *Junction) InjectProp(name string, value bool) {
	j.table.Enqueue(kv.Update{Kind: kv.UpdateProp, Key: j.pj.ResolveName(name), Bool: value, From: "external"})
}

// InjectData delivers externally-originated named data, as a remote write
// would.
func (j *Junction) InjectData(name string, payload []byte) {
	j.table.Enqueue(kv.Update{Kind: kv.UpdateData, Key: name, Data: payload, From: "external"})
}
