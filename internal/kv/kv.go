// Package kv implements the per-junction key-value table at the heart of
// C-Saw (paper §3, §6 "Distributed Key-Value (KV) table" and §8 "Local
// priority" rule).
//
// Each junction owns one Table holding its declared propositions and named
// data. Other junctions communicate by pushing updates (write / assert /
// retract); those updates are queued and take effect when the owning junction
// is next scheduled — except while the junction blocks in a wait statement,
// when updates to the waited-on propositions and data keys are let through.
// Local updates have priority: a local write discards pending remote updates
// to the same key.
package kv

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"csaw/internal/formula"
)

// ErrUndef is returned when reading (restore/write) a data variable that
// still holds the special undef value (paper §6 "Initialization": undef is
// not a valid value — trying to write or restore it results in an error).
var ErrUndef = errors.New("kv: value is undef")

// ErrUndeclared is returned when accessing a name that was never declared
// with init prop / init data.
var ErrUndeclared = errors.New("kv: name not declared")

// UpdateKind discriminates remote updates.
type UpdateKind uint8

const (
	// UpdateProp carries an assert/retract of a proposition.
	UpdateProp UpdateKind = iota
	// UpdateData carries a write of named (serialized) data.
	UpdateData
)

// Update is one remote modification pushed at this table by another
// junction's assert/retract/write statement.
type Update struct {
	Kind UpdateKind
	Key  string
	Bool bool   // proposition value for UpdateProp
	Data []byte // serialized payload for UpdateData
	From string // fully-qualified name of the originating junction
	seq  uint64 // arrival order
}

// Value is a named-data slot. Defined is false while the slot holds undef.
type Value struct {
	Defined bool
	Data    []byte
}

// WaitSet describes which pending updates a blocked wait statement lets
// through: updates to any proposition appearing in the wait formula and to
// any data key listed in the wait's n⃗ vector (paper §6 "Junction state").
type WaitSet struct {
	Props map[string]bool
	Data  map[string]bool
}

// NewWaitSet builds a WaitSet from a formula and a data-key list. Only
// locally-scoped propositions of the formula are admitted; a junction can
// never receive updates for another junction's table.
func NewWaitSet(f formula.Formula, dataKeys []string) WaitSet {
	ws := WaitSet{Props: map[string]bool{}, Data: map[string]bool{}}
	if f != nil {
		for _, p := range formula.Props(f) {
			if p.Junction == "" {
				ws.Props[p.Name] = true
			}
		}
	}
	for _, k := range dataKeys {
		ws.Data[k] = true
	}
	return ws
}

// admits reports whether the wait set lets the update through.
func (ws WaitSet) admits(u Update) bool {
	switch u.Kind {
	case UpdateProp:
		return ws.Props[u.Key]
	case UpdateData:
		return ws.Data[u.Key]
	}
	return false
}

// Table is one junction's KV table. It is safe for concurrent use: the
// owning junction's interpreter goroutine performs local reads/writes and
// scheduling-time pending application, while any other junction may Enqueue
// updates at any time.
type Table struct {
	mu      sync.Mutex
	props   map[string]bool
	data    map[string]Value
	pending []Update
	nextSeq uint64

	// waiters holds the admission sets of all currently-blocked wait
	// statements (parallel composition can block several waits at once).
	waiters map[int]*WaitSet
	nextWid int

	// notify is pinged whenever an update is enqueued or admitted, waking a
	// blocked wait.
	notify chan struct{}

	// subs holds the keyed subscriptions of event-driven waiters and
	// schedulers. Unlike notify (one coalesced channel for the whole table),
	// a subscription is woken only when one of its registered keys changes.
	subs    map[int]*Subscription
	nextSid int

	// wakes counts keyed subscription wake deliveries (tokens placed on
	// subscription channels), for the observability layer.
	wakes atomic.Uint64
	// wakeHook, when set, is invoked after a key mutation woke at least one
	// subscriber, with the key and how many were woken. It runs under the
	// table lock: implementations must be fast and must not call back into
	// the table.
	wakeHook func(kind UpdateKind, key string, woken int)
}

// NewTable returns an empty table with no declared names.
func NewTable() *Table {
	return &Table{
		props:   map[string]bool{},
		data:    map[string]Value{},
		waiters: map[int]*WaitSet{},
		notify:  make(chan struct{}, 1),
		subs:    map[int]*Subscription{},
	}
}

// Notify returns the channel pinged when a relevant update lands. The
// runtime's wait loop selects on it alongside the timeout.
func (t *Table) Notify() <-chan struct{} { return t.notify }

func (t *Table) ping() {
	select {
	case t.notify <- struct{}{}:
	default:
	}
}

// Subscription is a keyed wake registration. The holder is woken (a token is
// placed on Ch) whenever one of its registered propositions or data keys
// changes — by a remote enqueue, a local write, a wait-time admission, or a
// transactional rollback — instead of on every table event like Notify.
// The channel has capacity one, so wakes that race ahead of the holder's
// re-evaluation are retained, never lost.
type Subscription struct {
	id    int
	ch    chan struct{}
	props map[string]bool
	data  map[string]bool
	all   bool
}

// Ch returns the wake channel. A received token means "one of your keys may
// have changed since you last looked"; spurious wakes are possible, missed
// wakes are not.
func (s *Subscription) Ch() <-chan struct{} { return s.ch }

func (s *Subscription) wants(kind UpdateKind, key string) bool {
	if s.all {
		return true
	}
	switch kind {
	case UpdateProp:
		return s.props[key]
	case UpdateData:
		return s.data[key]
	}
	return false
}

func (s *Subscription) wake() {
	select {
	case s.ch <- struct{}{}:
	default:
	}
}

// Subscribe registers interest in the given proposition and data keys.
// The caller must Unsubscribe when done.
func (t *Table) Subscribe(props, data []string) *Subscription {
	s := &Subscription{ch: make(chan struct{}, 1), props: map[string]bool{}, data: map[string]bool{}}
	for _, k := range props {
		s.props[k] = true
	}
	for _, k := range data {
		s.data[k] = true
	}
	t.addSub(s)
	return s
}

// SubscribeAll registers interest in every key of the table.
func (t *Table) SubscribeAll() *Subscription {
	s := &Subscription{ch: make(chan struct{}, 1), all: true}
	t.addSub(s)
	return s
}

func (t *Table) addSub(s *Subscription) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.id = t.nextSid
	t.nextSid++
	t.subs[s.id] = s
}

// Unsubscribe removes a subscription; its channel is never signalled again.
func (t *Table) Unsubscribe(s *Subscription) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.subs, s.id)
}

// wakeKeyLocked wakes every subscription registered for the key. Sends are
// non-blocking (capacity-one channels), so calling under t.mu is safe.
func (t *Table) wakeKeyLocked(kind UpdateKind, key string) {
	woken := 0
	for _, s := range t.subs {
		if s.wants(kind, key) {
			s.wake()
			woken++
		}
	}
	if woken > 0 {
		t.wakes.Add(uint64(woken))
		if t.wakeHook != nil {
			t.wakeHook(kind, key, woken)
		}
	}
}

// WakeAll wakes every subscription and pings the coalesced notify channel.
// The runtime uses it for events that can change what a formula reads without
// touching the table itself (an idx or subset reassignment redirects which
// key an indexed proposition resolves to).
func (t *Table) WakeAll() {
	t.mu.Lock()
	for _, s := range t.subs {
		s.wake()
	}
	t.wakes.Add(uint64(len(t.subs)))
	t.mu.Unlock()
	t.ping()
}

// WakeCount reports how many keyed subscription wakes this table has
// delivered since creation.
func (t *Table) WakeCount() uint64 { return t.wakes.Load() }

// SetWakeHook installs the observability callback invoked (under the table
// lock) whenever a key mutation wakes at least one keyed subscriber. Install
// it before the table sees concurrent use; a nil hook disables it.
func (t *Table) SetWakeHook(h func(kind UpdateKind, key string, woken int)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.wakeHook = h
}

// DeclareProp declares a proposition with its initial value ("init prop ¬P"
// declares P initialized to false).
func (t *Table) DeclareProp(name string, init bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.props[name] = init
}

// DeclareData declares a data variable initialized to undef.
func (t *Table) DeclareData(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.data[name] = Value{}
}

// HasProp reports whether the proposition was declared.
func (t *Table) HasProp(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.props[name]
	return ok
}

// HasData reports whether the data variable was declared.
func (t *Table) HasData(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.data[name]
	return ok
}

// Prop returns the current value of a declared proposition.
func (t *Table) Prop(name string) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.props[name]
	if !ok {
		return false, fmt.Errorf("%w: prop %q", ErrUndeclared, name)
	}
	return v, nil
}

// SetProp performs a *local* assert/retract. Per the local-priority rule it
// discards any pending remote updates to the same proposition.
func (t *Table) SetProp(name string, v bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.props[name]; !ok {
		return fmt.Errorf("%w: prop %q", ErrUndeclared, name)
	}
	t.props[name] = v
	t.dropPendingLocked(UpdateProp, name, nil)
	t.wakeKeyLocked(UpdateProp, name)
	return nil
}

// PropUndo is what taking back one local assert/retract needs: the value the
// proposition held before it and the pending remote updates the
// local-priority rule discarded on its behalf. The zero value undoes nothing.
type PropUndo struct {
	name    string
	prev    bool
	dropped []Update
	applied bool
}

// SwapProp is SetProp that can be taken back, and that leaves an undeclared
// name alone (declared false, nothing to undo) instead of failing: the
// runtime applies the local half of a remote assert/retract only when the
// sender declares the proposition too, and, in a group, before the statements
// ahead of it are known to have succeeded — it must leave no mark when one of
// them fails.
func (t *Table) SwapProp(name string, v bool) (u PropUndo, declared bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	prev, ok := t.props[name]
	if !ok {
		return PropUndo{}, false
	}
	u = PropUndo{name: name, prev: prev, applied: true}
	t.props[name] = v
	t.dropPendingLocked(UpdateProp, name, &u.dropped)
	t.wakeKeyLocked(UpdateProp, name)
	return u, true
}

// UndoProp takes a SwapProp back as if it had never run: the previous value
// returns, the pending updates it discarded rejoin the queue at their arrival
// positions, and updates that arrived since stay queued (an undo is not a
// local write, so it discards nothing).
func (t *Table) UndoProp(u PropUndo) {
	if !u.applied {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.props[u.name] = u.prev
	if len(u.dropped) > 0 {
		merged := make([]Update, 0, len(t.pending)+len(u.dropped))
		d := u.dropped
		for _, p := range t.pending {
			for len(d) > 0 && d[0].seq < p.seq {
				merged = append(merged, d[0])
				d = d[1:]
			}
			merged = append(merged, p)
		}
		t.pending = append(merged, d...)
	}
	t.wakeKeyLocked(UpdateProp, u.name)
}

// Data returns a copy of the current value of a declared, defined data
// variable. Callers own the returned slice: mutating it cannot corrupt table
// state behind the lock. Runtime paths that only forward the bytes and never
// mutate them can use DataRef to skip the copy.
func (t *Table) Data(name string) ([]byte, error) {
	b, err := t.DataRef(name)
	if err != nil {
		return nil, err
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp, nil
}

// DataRef is the zero-copy variant of Data: it returns the table's internal
// byte slice. The caller must treat the slice as read-only — writing through
// it would mutate table state without the lock.
func (t *Table) DataRef(name string) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.data[name]
	if !ok {
		return nil, fmt.Errorf("%w: data %q", ErrUndeclared, name)
	}
	if !v.Defined {
		return nil, fmt.Errorf("%w: data %q", ErrUndef, name)
	}
	return v.Data, nil
}

// Defined reports whether the data variable holds a valid (non-undef) value.
func (t *Table) Defined(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.data[name].Defined
}

// SetData performs a *local* save. Per the local-priority rule it discards
// pending remote updates to the same key.
func (t *Table) SetData(name string, data []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.data[name]; !ok {
		return fmt.Errorf("%w: data %q", ErrUndeclared, name)
	}
	t.data[name] = Value{Defined: true, Data: data}
	t.dropPendingLocked(UpdateData, name, nil)
	t.wakeKeyLocked(UpdateData, name)
	return nil
}

// dropPendingLocked discards the queued updates to one key, appending them to
// *dropped when the caller wants them back later.
func (t *Table) dropPendingLocked(kind UpdateKind, key string, dropped *[]Update) {
	kept := t.pending[:0]
	for _, u := range t.pending {
		if u.Kind == kind && u.Key == key {
			if dropped != nil {
				*dropped = append(*dropped, u)
			}
			continue
		}
		kept = append(kept, u)
	}
	t.pending = kept
}

// Enqueue delivers a remote update. If the junction is currently blocked in
// a wait whose admission set covers the update, the update is applied
// immediately; otherwise it queues until the next scheduling. Keyed
// subscribers of the key are woken either way: a queued update becomes
// visible at the junction's next ApplyPending, so a guard watcher must
// re-evaluate (which is what triggers that scheduling).
func (t *Table) Enqueue(u Update) {
	t.mu.Lock()
	u.seq = t.nextSeq
	t.nextSeq++
	if t.admittedLocked(u) {
		t.applyLocked(u)
	} else {
		t.pending = append(t.pending, u)
	}
	t.wakeKeyLocked(u.Kind, u.Key)
	t.mu.Unlock()
	t.ping()
}

// EnqueueBatch delivers a group of remote updates that arrived together (one
// decoded transport batch) under a single lock acquisition. Each update is
// admitted or queued exactly as Enqueue would, in slice order, but keyed
// subscribers are woken once per distinct key instead of once per update and
// the coalesced notify channel is pinged once — the subscription-wake sweep
// cost of absorbing a batch is bounded by its key set, not its length.
func (t *Table) EnqueueBatch(us []Update) {
	switch len(us) {
	case 0:
		return
	case 1:
		t.Enqueue(us[0])
		return
	}
	type keyOf struct {
		kind UpdateKind
		key  string
	}
	// Distinct keys in first-appearance order. A group rarely names more than
	// a few (a request's data and its proposition; one proposition 96 times),
	// so they are found by scanning a small array; only a group with more
	// distinct keys than that pays for a set.
	var few [8]keyOf
	distinct := few[:0]
	var seen map[keyOf]struct{}
	t.mu.Lock()
	for _, u := range us {
		u.seq = t.nextSeq
		t.nextSeq++
		if t.admittedLocked(u) {
			t.applyLocked(u)
		} else {
			t.pending = append(t.pending, u)
		}
		k := keyOf{u.Kind, u.Key}
		known := false
		if seen != nil {
			_, known = seen[k]
		} else {
			for _, d := range distinct {
				if d == k {
					known = true
					break
				}
			}
		}
		if known {
			continue
		}
		distinct = append(distinct, k)
		if seen != nil {
			seen[k] = struct{}{}
		} else if len(distinct) > len(few) {
			seen = make(map[keyOf]struct{}, 2*len(distinct))
			for _, d := range distinct {
				seen[d] = struct{}{}
			}
		}
	}
	for _, k := range distinct {
		t.wakeKeyLocked(k.kind, k.key)
	}
	t.mu.Unlock()
	t.ping()
}

func (t *Table) applyLocked(u Update) {
	switch u.Kind {
	case UpdateProp:
		if _, ok := t.props[u.Key]; ok {
			t.props[u.Key] = u.Bool
		}
	case UpdateData:
		if _, ok := t.data[u.Key]; ok {
			t.data[u.Key] = Value{Defined: true, Data: u.Data}
		}
	}
}

// ApplyPending applies all queued updates in arrival order. The runtime
// calls it when the junction is scheduled (paper §8: updates "take effect
// after the junction finishes executing, and before it is scheduled to
// execute again").
func (t *Table) ApplyPending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.pending)
	for _, u := range t.pending {
		t.applyLocked(u)
		t.wakeKeyLocked(u.Kind, u.Key)
	}
	// The queue keeps its backing array (emptied, so no payload stays
	// reachable through it): a junction that absorbs a few updates per
	// scheduling would otherwise regrow it from nothing every time. An array
	// that grew past keepPending is given back — it is the high-water mark of
	// a junction that went unscheduled for a long stretch, and keeping it
	// would charge every quiet period after for that one backlog.
	if cap(t.pending) > keepPending {
		t.pending = nil
		return n
	}
	clear(t.pending)
	t.pending = t.pending[:0]
	return n
}

// keepPending is the largest pending-queue array ApplyPending holds on to: a
// few delivery groups' worth of updates.
const keepPending = 256

// PendingLen reports how many updates are queued.
func (t *Table) PendingLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}

// Keep discards pending parallel KV updates for the given proposition and
// data names (paper §6: "A junction can discard parallel KV updates through
// the 'keep' primitive. This primitive is idempotent").
func (t *Table) Keep(propNames, dataNames []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range propNames {
		t.dropPendingLocked(UpdateProp, n, nil)
	}
	for _, n := range dataNames {
		t.dropPendingLocked(UpdateData, n, nil)
	}
}

// admittedLocked reports whether any active waiter admits the update.
func (t *Table) admittedLocked(u Update) bool {
	for _, ws := range t.waiters {
		if ws.admits(u) {
			return true
		}
	}
	return false
}

// BeginWait installs a wait admission set and drains already-queued updates
// that it admits (a wait observes updates that raced ahead of it). Several
// waits may be active at once (parallel composition); the returned handle
// identifies this one for EndWait.
func (t *Table) BeginWait(ws WaitSet) (handle int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	handle = t.nextWid
	t.nextWid++
	t.waiters[handle] = &ws
	kept := t.pending[:0]
	for _, u := range t.pending {
		if ws.admits(u) {
			t.applyLocked(u)
			t.wakeKeyLocked(u.Kind, u.Key)
			continue
		}
		kept = append(kept, u)
	}
	t.pending = kept
	return handle
}

// EndWait removes a wait admission set by handle.
func (t *Table) EndWait(handle int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.waiters, handle)
}

// Snapshot captures table contents for transactional rollback (the ⟨|E|⟩
// block). The pending queue is NOT captured: queued communication from other
// junctions survives a rollback. A snapshot is either full (every key) or
// partial (only the keys a compiled transaction's write-set can touch).
type Snapshot struct {
	props   map[string]bool
	data    map[string]Value
	partial bool
}

// Snapshot returns a deep copy of the current table contents.
func (t *Table) Snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Snapshot{props: make(map[string]bool, len(t.props)), data: make(map[string]Value, len(t.data))}
	for k, v := range t.props {
		s.props[k] = v
	}
	for k, v := range t.data {
		s.data[k] = copyValue(v)
	}
	return s
}

// SnapshotKeys returns a partial deep copy covering only the listed keys
// (undeclared names are skipped). Restoring it rolls back exactly those keys
// and leaves the rest of the table untouched, so it is equivalent to a full
// snapshot/restore whenever the key list over-approximates what the guarded
// block can modify.
func (t *Table) SnapshotKeys(props, data []string) Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Snapshot{
		props:   make(map[string]bool, len(props)),
		data:    make(map[string]Value, len(data)),
		partial: true,
	}
	for _, k := range props {
		if v, ok := t.props[k]; ok {
			s.props[k] = v
		}
	}
	for _, k := range data {
		if v, ok := t.data[k]; ok {
			s.data[k] = copyValue(v)
		}
	}
	return s
}

func copyValue(v Value) Value {
	cp := v
	if v.Data != nil {
		cp.Data = append([]byte(nil), v.Data...)
	}
	return cp
}

// RestoreKeys rolls back only the listed keys to the values a snapshot
// captured for them (keys the snapshot does not hold are left alone), waking
// their subscribers. A transaction that failed part-way uses it to take back
// what its own statements wrote and nothing a concurrent par arm committed.
func (t *Table) RestoreKeys(s Snapshot, props, data []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range props {
		if v, ok := s.props[k]; ok {
			t.props[k] = v
			t.wakeKeyLocked(UpdateProp, k)
		}
	}
	for _, k := range data {
		if v, ok := s.data[k]; ok {
			t.data[k] = copyValue(v)
			t.wakeKeyLocked(UpdateData, k)
		}
	}
}

// Restore rolls table contents back to a snapshot: every key for a full
// snapshot, only the captured keys for a partial one. Subscribers of the
// restored keys are woken — a rollback changes visible values just like a
// write does.
func (t *Table) Restore(s Snapshot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !s.partial {
		t.props = make(map[string]bool, len(s.props))
		t.data = make(map[string]Value, len(s.data))
	}
	for k, v := range s.props {
		t.props[k] = v
		t.wakeKeyLocked(UpdateProp, k)
	}
	for k, v := range s.data {
		t.data[k] = copyValue(v)
		t.wakeKeyLocked(UpdateData, k)
	}
}

// PropNames returns the declared proposition names in sorted order.
func (t *Table) PropNames() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.props))
	for k := range t.props {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DataNames returns the declared data names in sorted order.
func (t *Table) DataNames() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.data))
	for k := range t.data {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ApplyNow applies an update immediately, bypassing the pending queue, and
// wakes any blocked wait. This is the ablation path for disabling the
// local-priority rule; normal delivery goes through Enqueue.
func (t *Table) ApplyNow(u Update) {
	t.mu.Lock()
	u.seq = t.nextSeq
	t.nextSeq++
	t.applyLocked(u)
	t.wakeKeyLocked(u.Kind, u.Key)
	t.mu.Unlock()
	t.ping()
}
