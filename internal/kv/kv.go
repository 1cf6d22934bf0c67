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
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
// junction's assert/retract/write statement, or a run of N identical ones.
//
// N is how many delivered updates the Update stands for; 0 counts as 1. A
// caller delivers a run of identical updates (a delivery group's run member)
// as one Update with its count, and a queued entry counts every delivery it
// coalesced (EnqueueBatch), which ApplyPending reports.
//
// Data is lent to Enqueue and EnqueueBatch for the call, as a compart.Message
// payload is lent to its handler: the table copies what it keeps, into
// buffers of its own, and the caller may reuse the slice once the call
// returns. An Update the table hands out (TableState.Pending, PendingSince)
// carries a copy of its own.
type Update struct {
	Kind UpdateKind
	Key  string
	Bool bool   // proposition value for UpdateProp
	N    uint32 // how many delivered updates this stands for; 0 counts as 1
	Data []byte // serialized payload for UpdateData
	From string // fully-qualified name of the originating junction
	seq  uint64 // arrival order
}

// count is how many delivered updates u stands for.
func (u *Update) count() int { return int(max(u.N, 1)) }

// Value is a named-data slot. Defined is false while the slot holds undef.
type Value struct {
	Defined bool
	Data    []byte
}

// cell is one declared name: what the table's bookkeeping — local priority,
// wait admission, subscriptions — knows it by, and its value. The table
// creates it at declaration and never replaces it, so two references to the
// same name are the same pointer.
type cell struct {
	t    *Table
	kind UpdateKind
	name string
	b    atomic.Bool // the value of a proposition
	d    Value       // the slot of a data variable; guarded by t.mu

	// A data variable's storage, guarded by t.mu. owned is set when d.Data
	// is a buffer the table copied into, which it may rewrite; a slice a
	// local write adopted is the host's and is never written into. spare is
	// an owned buffer the value no longer uses, kept for the next queued
	// copy to the name: one per cell.
	owned bool
	spare []byte
	// loans counts the DataCell.Ref borrowers of d.Data: raised under t.mu,
	// dropped by DataCell.Release without it. A buffer lent when the value
	// is replaced is neither rewritten nor kept.
	loans atomic.Int32
	// batch is the number of the last EnqueueBatch that listed the cell for
	// its wake sweep; guarded by t.mu.
	batch uint64
}

// keepData is the largest buffer a cell keeps for reuse once its value is
// replaced, as the transport keeps its send and outbound buffers: a burst of
// large values must not pin their size on every quiet period after.
const keepData = 64 << 10

// fill returns src's bytes in buf when buf may keep them, in a new buffer
// when it is too small or too large to keep.
func fill(buf, src []byte) []byte {
	if cap(buf) > keepData {
		buf = nil
	}
	return append(buf[:0], src...)
}

// admitLocked gives the cell the value a remote update carries, admitted by
// a blocked wait. The update's data is lent: it is copied into the cell's
// own buffer when nobody borrows it, else into the spare or a new one.
func (c *cell) admitLocked(u Update) {
	switch {
	case c.kind == UpdateProp:
		c.b.Store(u.Bool)
	case c.owned && c.loans.Load() == 0:
		c.d = Value{Defined: true, Data: fill(c.d.Data, u.Data)}
	default:
		c.setLocked(Value{Defined: true, Data: fill(c.takeSpareLocked(), u.Data)}, true)
	}
}

// applyLocked gives the cell the value of a queued update, whose data the
// queue copied: its buffer passes to the cell.
func (c *cell) applyLocked(u Update) {
	if c.kind == UpdateProp {
		c.b.Store(u.Bool)
	} else {
		c.setLocked(Value{Defined: true, Data: u.Data}, true)
	}
}

// setLocked replaces a data variable's value. The buffer it replaces becomes
// the spare when the table owns it, nobody borrows it, it is small enough to
// keep and there is no spare yet.
func (c *cell) setLocked(v Value, owned bool) {
	if c.owned && c.spare == nil && c.d.Data != nil && cap(c.d.Data) <= keepData && c.loans.Load() == 0 {
		c.spare = c.d.Data[:0]
	}
	c.d, c.owned = v, owned
}

// takeSpareLocked hands the spare out; nil when there is none, and for the
// nil cell of a name the table does not declare.
func (c *cell) takeSpareLocked() []byte {
	if c == nil {
		return nil
	}
	b := c.spare
	c.spare = nil
	return b
}

// PropCell is a declared proposition's cell, as Table.PropCell hands it to a
// caller that runs the same statement many times: rollbacks and migration
// installs store into the cell, so whoever binds it once reads and writes the
// proposition from then on without resolving the name.
type PropCell cell

// Get returns the current value. It takes no lock: the value is one atomic
// word, and a reader could never tell a locked read from this one — a write
// that lands "during" either is ordered before or after it.
func (c *PropCell) Get() bool { return c.b.Load() }

// Set is Table.SetProp on the bound proposition. When the table has no
// update queued and no subscription, a local write has nothing to discard
// and nobody to wake, so it is the store alone and takes no lock. DESIGN.md
// ("A local write takes no lock when nobody watches") gives the ordering
// argument.
//
// A write that finds either count raised before its store is the locked
// write, store included: an update queued before the write began must be
// discarded in the same step as the store, or a drain racing the gap could
// apply it over the write. A write whose counts are raised only after its
// store raced the delivery or subscription that raised them; it discards
// what is still queued for the key and wakes subscribers, but does not store
// again, so an update a drain applied in the gap stays ordered after it.
func (c *PropCell) Set(v bool) {
	t := c.t
	if t.npending.Load() != 0 || t.nsubs.Load() != 0 {
		t.mu.Lock()
		t.setPropLocked((*cell)(c), v, nil)
		t.mu.Unlock()
		return
	}
	c.b.Store(v)
	if t.npending.Load() == 0 && t.nsubs.Load() == 0 {
		return
	}
	t.mu.Lock()
	t.afterLocalWriteLocked((*cell)(c), nil)
	t.mu.Unlock()
}

// Swap is Set that can be taken back (Table.UndoProp): the runtime applies
// the local half of a remote assert/retract, in a group, before the
// statements ahead of it are known to have succeeded — it must leave no mark
// when one of them fails.
func (c *PropCell) Swap(v bool) PropUndo {
	t := c.t
	t.mu.Lock()
	u := PropUndo{c: (*cell)(c), prev: c.b.Load()}
	t.setPropLocked(u.c, v, &u.dropped)
	t.mu.Unlock()
	return u
}

// DataCell is a declared data variable's cell, bound like a PropCell. Its
// value is wider than a word, so reads take the table lock too.
type DataCell cell

// Ref lends the table's own bytes of the bound variable, without the copy
// Get makes. The caller treats them as read-only and calls Release once it
// no longer reads them — after a sink's call, after a group's encoding. A
// successful Ref raises the cell's loan count, and until the matching
// Release the table rewrites no buffer of the variable's: a value stored
// meanwhile goes to another buffer, and the lent one is not kept. A Ref that
// fails lends nothing and needs no Release.
func (c *DataCell) Ref() ([]byte, error) {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	b, err := (*cell)(c).refLocked()
	if err == nil {
		c.loans.Add(1)
	}
	return b, err
}

// Release ends a loan Ref began. It takes no lock.
func (c *DataCell) Release() { c.loans.Add(-1) }

func (c *cell) refLocked() ([]byte, error) {
	if !c.d.Defined {
		return nil, fmt.Errorf("%w: data %q", ErrUndef, c.name)
	}
	return c.d.Data, nil
}

// Get is Table.Data on the bound variable: a copy the caller owns, made
// under the lock, so it lends nothing.
func (c *DataCell) Get() ([]byte, error) {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	b, err := (*cell)(c).refLocked()
	if err != nil {
		return nil, err
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp, nil
}

// Set is Table.SetData on the bound variable. The table adopts data, which
// stays the caller's: it is never written into.
func (c *DataCell) Set(data []byte) {
	t := c.t
	t.mu.Lock()
	t.setDataLocked((*cell)(c), data)
	t.mu.Unlock()
}

// Keys is a set of one table's declared names, resolved to their cells once
// (Bind) so that a wait or a subscription armed on every execution of a
// statement is matched by pointer and builds no set of its own.
type Keys struct {
	cells []*cell
}

func (ks *Keys) has(c *cell) bool { return slices.Contains(ks.cells, c) }

// Bind resolves proposition and data names to a key set. Names the table does
// not declare are left out: nothing can change them.
func (t *Table) Bind(props, data []string) *Keys {
	t.mu.Lock()
	defer t.mu.Unlock()
	ks := &Keys{cells: make([]*cell, 0, len(props)+len(data))}
	add := func(c *cell) {
		if c != nil && !ks.has(c) {
			ks.cells = append(ks.cells, c)
		}
	}
	for _, n := range props {
		add(t.props[n])
	}
	for _, n := range data {
		add(t.data[n])
	}
	return ks
}

// Table is one junction's KV table. It is safe for concurrent use: the
// owning junction's scheduling goroutine performs local reads/writes and
// scheduling-time pending application, while any other junction may Enqueue
// updates at any time.
//
// The paper fixes a junction's key set at its init prop / init data
// declarations (§6), so the table stores one cell per declared name and the
// cells are the only value store. Everything reaches a value through its
// cell: callers that name the key on every call (Prop, SetProp, Data, …, and
// remote updates, keyed by wire name) resolve it under the lock first; callers
// that run the same statement many times resolve it once (PropCell, DataCell,
// Bind) and keep the cell. A held cell stays the name's cell for the table's
// lifetime — RestoreKeys, UndoProp and RestoreAll store into cells,
// never replace them — so a binding taken before a rollback or a migration
// install reads the restored value after it.
//
// Every write takes the lock, bound or not, when it has something to do
// beside the store: discarding the pending updates to the key (local
// priority), admitting an update into a blocked wait and waking the key's
// subscribers must be atomic with the store. A bound proposition write to a
// table with an empty queue and no subscription has none of that and takes
// no lock
// (PropCell.Set); nor does reading a bound proposition (PropCell.Get), or
// ApplyPending on an empty queue.
type Table struct {
	mu sync.Mutex
	// props and data index the cells by name. They gain entries at
	// declaration (and when RestoreAll installs a name the table lacks) and
	// never lose one.
	props   map[string]*cell
	data    map[string]*cell
	pending []Update
	nextSeq uint64
	// batch numbers the EnqueueBatch calls, and batchCells is the scratch
	// each lists its distinct cells in; both guarded by mu.
	batch      uint64
	batchCells []*cell
	// npending is len(pending), republished under mu at every change, for
	// the lock-free checks of PropCell.Set and ApplyPending.
	npending atomic.Int64

	// waiters holds the admission sets of all currently-blocked wait
	// statements (parallel composition can block several waits at once).
	waiters []waiter
	nextWid int

	// subs holds the keyed subscriptions of event-driven waiters and
	// schedulers: a subscription is woken only when one of its registered keys
	// changes.
	subs []*Subscription
	// nsubs is len(subs), republished under mu at every change, for the
	// lock-free check of PropCell.Set.
	nsubs atomic.Int64

	// wakeHook, when set, is invoked after a key mutation woke at least one
	// subscriber, with the key and how many were woken. It runs under the
	// table lock: implementations must be fast and must not call back into
	// the table.
	wakeHook func(kind UpdateKind, key string, woken int)
}

// waiter is one blocked wait statement's admission set.
type waiter struct {
	id   int
	keys *Keys
}

// NewTable returns an empty table with no declared names.
func NewTable() *Table {
	return &Table{
		props: map[string]*cell{},
		data:  map[string]*cell{},
	}
}

// Subscription is a keyed wake registration. The holder is woken (a token is
// placed on Ch) whenever one of its registered propositions or data keys
// changes — by a remote enqueue, a local write, a wait-time admission, or a
// transactional rollback. The channel has capacity one, so wakes that race ahead of the holder's
// re-evaluation are retained, never lost.
type Subscription struct {
	ch   chan struct{}
	keys *Keys
}

// Ch returns the wake channel. A received token means "one of your keys may
// have changed since you last looked"; spurious wakes are possible, missed
// wakes are not.
func (s *Subscription) Ch() <-chan struct{} { return s.ch }

func (s *Subscription) wake() {
	select {
	case s.ch <- struct{}{}:
	default:
	}
}

// Subscribe registers interest in the given proposition and data keys.
// The caller must Unsubscribe when done.
func (t *Table) Subscribe(props, data []string) *Subscription {
	s := NewSubscription(t.Bind(props, data))
	t.Arm(s)
	return s
}

// NewSubscription returns a subscription to a key set bound earlier (the set
// is shared, not copied), not yet armed. A holder that waits on the same keys
// again and again — a compiled wait, once per entry — keeps one and re-arms
// it, so a wait allocates nothing; one that is armed is used by one holder.
func NewSubscription(ks *Keys) *Subscription {
	return &Subscription{ch: make(chan struct{}, 1), keys: ks}
}

// Share returns a subscription to ks, bound on this table or another, that
// wakes s's channel, for a holder that waits on several tables at once. Arm
// each on its keys' table before looking: arming drops a pending wake.
func (s *Subscription) Share(ks *Keys) *Subscription {
	return &Subscription{ch: s.ch, keys: ks}
}

// Arm registers s, which is not armed, with the table: until Unsubscribe, a
// change to one of its keys wakes it. A wake left from an earlier arming is
// dropped first, so the holder starts from what the table now reads.
func (t *Table) Arm(s *Subscription) {
	select {
	case <-s.ch:
	default:
	}
	t.mu.Lock()
	t.subs = append(t.subs, s)
	t.nsubs.Store(int64(len(t.subs)))
	t.mu.Unlock()
}

// Unsubscribe removes a subscription; its channel is never signalled again
// unless it is armed again.
func (t *Table) Unsubscribe(s *Subscription) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i := slices.Index(t.subs, s); i >= 0 {
		last := len(t.subs) - 1
		t.subs[i] = t.subs[last]
		t.subs[last] = nil
		t.subs = t.subs[:last]
		t.nsubs.Store(int64(len(t.subs)))
	}
}

// wakeLocked wakes every subscription registered for the key and returns how
// many it woke. Sends are non-blocking (capacity-one channels), so calling
// under t.mu is safe.
func (t *Table) wakeLocked(c *cell) int {
	woken := 0
	for _, s := range t.subs {
		if s.keys.has(c) {
			s.wake()
			woken++
		}
	}
	if woken > 0 && t.wakeHook != nil {
		t.wakeHook(c.kind, c.name, woken)
	}
	return woken
}

// wakeEveryLocked wakes every subscription, whatever its keys.
func (t *Table) wakeEveryLocked() {
	for _, s := range t.subs {
		s.wake()
	}
}

// WakeAll wakes every subscription. The runtime uses it for events that can change what a formula reads without
// touching the table itself (an idx or subset reassignment redirects which
// key an indexed proposition resolves to).
func (t *Table) WakeAll() {
	t.mu.Lock()
	t.wakeEveryLocked()
	t.mu.Unlock()
}

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
	t.declareLocked(UpdateProp, name).b.Store(init)
}

// DeclareData declares a data variable initialized to undef.
func (t *Table) DeclareData(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.declareLocked(UpdateData, name).setLocked(Value{}, false)
}

// index returns the name→cell map of one kind (nil, which resolves no name,
// for a kind no update should carry).
func (t *Table) index(kind UpdateKind) map[string]*cell {
	switch kind {
	case UpdateProp:
		return t.props
	case UpdateData:
		return t.data
	}
	return nil
}

// declareLocked returns the name's cell, creating it when missing.
func (t *Table) declareLocked(kind UpdateKind, name string) *cell {
	idx := t.index(kind)
	c := idx[name]
	if c == nil {
		c = &cell{t: t, kind: kind, name: name}
		idx[name] = c
	}
	return c
}

// PropCell binds a declared proposition: the returned cell is the name's
// storage for the table's lifetime. Nil when the name was never declared.
func (t *Table) PropCell(name string) *PropCell {
	t.mu.Lock()
	defer t.mu.Unlock()
	return (*PropCell)(t.props[name])
}

// DataCell binds a declared data variable; nil when it was never declared.
func (t *Table) DataCell(name string) *DataCell {
	t.mu.Lock()
	defer t.mu.Unlock()
	return (*DataCell)(t.data[name])
}

// Prop returns the current value of a declared proposition.
func (t *Table) Prop(name string) (bool, error) {
	c := t.PropCell(name)
	if c == nil {
		return false, fmt.Errorf("%w: prop %q", ErrUndeclared, name)
	}
	return c.Get(), nil
}

// SetProp performs a *local* assert/retract. Per the local-priority rule it
// discards any pending remote updates to the same proposition.
func (t *Table) SetProp(name string, v bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.props[name]
	if c == nil {
		return fmt.Errorf("%w: prop %q", ErrUndeclared, name)
	}
	t.setPropLocked(c, v, nil)
	return nil
}

func (t *Table) setPropLocked(c *cell, v bool, dropped *[]Update) {
	c.b.Store(v)
	t.afterLocalWriteLocked(c, dropped)
}

// afterLocalWriteLocked is what makes a store a local write: the pending
// remote updates to the key are discarded (local priority) and its
// subscribers woken. A junction between requests has neither, and the write
// is on every scheduling's path, so both are looked at before being called.
func (t *Table) afterLocalWriteLocked(c *cell, dropped *[]Update) {
	if len(t.pending) > 0 {
		t.dropPendingLocked(c.kind, c.name, dropped)
	}
	if len(t.subs) > 0 {
		t.wakeLocked(c)
	}
}

// PropUndo is what taking back one local assert/retract needs: the value the
// proposition held before it and the pending remote updates the
// local-priority rule discarded on its behalf. The zero value undoes nothing.
type PropUndo struct {
	c       *cell
	prev    bool
	dropped []Update
}

// UndoProp takes a PropCell.Swap back as if it had never run: the previous value
// returns, the pending updates it discarded rejoin the queue at their arrival
// positions, and updates that arrived since stay queued (an undo is not a
// local write, so it discards nothing).
func (t *Table) UndoProp(u PropUndo) {
	if u.c == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	u.c.b.Store(u.prev)
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
		t.setPendingLocked(append(merged, d...))
	}
	t.wakeLocked(u.c)
}

// Data returns a copy of the current value of a declared, defined data
// variable. Callers own the returned slice: mutating it cannot corrupt table
// state behind the lock. A caller that only forwards the bytes binds the
// variable (DataCell) and reads them through DataCell.Ref without the copy.
func (t *Table) Data(name string) ([]byte, error) {
	c := t.DataCell(name)
	if c == nil {
		return nil, fmt.Errorf("%w: data %q", ErrUndeclared, name)
	}
	return c.Get()
}

// Defined reports whether the data variable holds a valid (non-undef) value.
func (t *Table) Defined(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.data[name]
	return c != nil && c.d.Defined
}

// SetData performs a *local* save. Per the local-priority rule it discards
// pending remote updates to the same key. The table adopts data without
// copying it and never writes into it.
func (t *Table) SetData(name string, data []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.data[name]
	if c == nil {
		return fmt.Errorf("%w: data %q", ErrUndeclared, name)
	}
	t.setDataLocked(c, data)
	return nil
}

func (t *Table) setDataLocked(c *cell, data []byte) {
	c.setLocked(Value{Defined: true, Data: data}, false)
	t.afterLocalWriteLocked(c, nil)
}

// dropPendingLocked discards the queued updates to one key, appending them to
// *dropped when the caller wants them back later.
func (t *Table) dropPendingLocked(kind UpdateKind, name string, dropped *[]Update) {
	kept := t.pending[:0]
	for _, u := range t.pending {
		if u.Kind == kind && u.Key == name {
			if dropped != nil {
				*dropped = append(*dropped, u)
			}
			continue
		}
		kept = append(kept, u)
	}
	t.setPendingLocked(kept)
}

// deliverLocked delivers a run of n updates to one key, u the last of them:
// the run takes n arrival numbers, and u, whose value is the one the run
// leaves, is applied if a blocked wait admits its key, or queued. Queued, it
// coalesces: when the queue's last entry is for the same key, u replaces it —
// value, sender and arrival number — and the entry stands for the deliveries
// of both. Only that adjacent entry merges, so an interleaving of keys stays
// in the queue as it arrived.
//
// u.Data is lent. Admitted, it is copied into the cell's storage; queued, into
// the entry's: a new entry takes the cell's spare, a coalesced one rewrites
// the buffer it holds. Either way a delivered write allocates only while the
// cell has not yet grown the buffers it cycles through.
//
// Coalescing is sound because the queue means, per key, only whether the key
// has entries and what its last one holds: a drain applies every entry under
// t.mu, leaving each key its last entry's value; a local write, keep or
// admitting wait takes all of one key's entries; an undo puts a key's
// discarded entries back by arrival number, behind none that arrived later.
// Replacing a key's last entry with a later update to the key changes
// neither, for any key, and no other junction reads the queue itself.
//
// It returns the cell to wake; nil for a name the table does not declare,
// which nobody can be waiting on.
func (t *Table) deliverLocked(u Update, n int) *cell {
	t.nextSeq += uint64(n)
	u.seq = t.nextSeq - 1
	u.N = uint32(n)
	c := t.index(u.Kind)[u.Key]
	if c != nil && t.admittedLocked(c) {
		c.admitLocked(u)
		return c
	}
	if last := len(t.pending) - 1; last >= 0 && t.pending[last].Kind == u.Kind && t.pending[last].Key == u.Key {
		p := &t.pending[last]
		if u.Kind == UpdateData {
			u.Data = fill(p.Data, u.Data)
		}
		u.N += p.N
		*p = u
	} else {
		if u.Kind == UpdateData {
			u.Data = fill(c.takeSpareLocked(), u.Data)
		}
		t.setPendingLocked(append(t.pending, u))
	}
	return c
}

// setPendingLocked replaces the queue and publishes its length.
func (t *Table) setPendingLocked(p []Update) {
	t.pending = p
	t.npending.Store(int64(len(p)))
}

// Enqueue delivers a remote update, or a run of u.N identical ones. If the
// junction is currently blocked in a wait whose admission set covers the
// update, the update is applied immediately; otherwise it queues until the
// next scheduling. u.Data is lent for the call: the table copies it into
// storage it owns and reuses. Keyed subscribers of the key are woken either
// way: a queued update becomes visible at the junction's next ApplyPending,
// so a guard watcher must re-evaluate (which is what triggers that
// scheduling).
func (t *Table) Enqueue(u Update) {
	t.mu.Lock()
	if c := t.deliverLocked(u, u.count()); c != nil {
		t.wakeLocked(c)
	}
	t.mu.Unlock()
}

// EnqueueBatch delivers a group of remote updates that arrived together (one
// decoded transport batch) under a single lock acquisition. The updates are
// admitted or queued exactly as Enqueue would, in slice order, but per run of
// same-key updates: the run's key is resolved once and only its last update,
// the one whose value the run leaves, is stored or queued, standing for the
// deliveries of the whole run — the sum of its updates' counts, so a delivery
// group's run member arrives as one Update with its N. Keyed subscribers
// are woken once per distinct key instead of once per update — the
// subscription-wake sweep cost of absorbing a batch is bounded by its key
// set, not its length. It reports whether it woke any subscriber. The
// updates' data is lent for the call, as to Enqueue, and only a run's last
// update is copied.
func (t *Table) EnqueueBatch(us []Update) bool {
	if len(us) == 0 {
		return false
	}
	// Distinct keys in first-appearance order: a cell is listed when the
	// batch first reaches it (its mark is not yet this batch's number), in the
	// table's own scratch, so a batch of any width allocates nothing.
	t.mu.Lock()
	t.batch++
	distinct := t.batchCells[:0]
	for len(us) > 0 {
		run, n := 1, us[0].count()
		for run < len(us) && us[run].Kind == us[0].Kind && us[run].Key == us[0].Key {
			n += us[run].count()
			run++
		}
		k := t.deliverLocked(us[run-1], n)
		us = us[run:]
		if k == nil || k.batch == t.batch {
			continue
		}
		k.batch = t.batch
		distinct = append(distinct, k)
	}
	t.batchCells = distinct
	woke := false
	for _, k := range distinct {
		if t.wakeLocked(k) > 0 {
			woke = true
		}
	}
	t.mu.Unlock()
	return woke
}

// applyLocked stores a queued update's value and wakes its key's subscribers;
// an update to an undeclared name changes nothing.
func (t *Table) applyLocked(u Update) {
	if c := t.index(u.Kind)[u.Key]; c != nil {
		c.applyLocked(u)
		t.wakeLocked(c)
	}
}

// ApplyPending applies all queued updates in arrival order and returns how
// many delivered updates it absorbed (a coalesced entry counts every delivery
// it stands for). The runtime calls it when the junction is scheduled (paper
// §8: updates "take effect after the junction finishes executing, and before
// it is scheduled to execute again").
//
// An empty queue is seen without the lock. An update racing that check
// arrived after the scheduling began, and applies at the next one, as it
// would had it lost the race for the lock.
func (t *Table) ApplyPending() int {
	if t.npending.Load() == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, u := range t.pending {
		t.applyLocked(u)
		n += int(u.N)
	}
	// The queue keeps its backing array (emptied, so no payload stays
	// reachable through it): a junction that absorbs a few updates per
	// scheduling would otherwise regrow it from nothing every time. A drain
	// of more than keepPending entries gives the array back — it is the
	// high-water mark of a junction that went unscheduled for a long stretch,
	// and keeping it would charge every quiet period after for that one
	// backlog. The bound is on what the queue held, not on its capacity:
	// append rounds a queue of 154–256 entries up to more than keepPending
	// slots, and a table that absorbs that many per scheduling must not
	// regrow its queue every time.
	if len(t.pending) > keepPending {
		t.setPendingLocked(nil)
		return n
	}
	clear(t.pending)
	t.setPendingLocked(t.pending[:0])
	return n
}

// keepPending is the most entries a drained queue may have held for
// ApplyPending to keep its array: a few delivery groups' worth of updates.
const keepPending = 256

// PendingLen reports how many entries the queue holds; a run of same-key
// updates is one entry.
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

// admittedLocked reports whether any active waiter admits updates to the key.
func (t *Table) admittedLocked(c *cell) bool {
	for _, w := range t.waiters {
		if w.keys.has(c) {
			return true
		}
	}
	return false
}

// BeginWait installs a wait's admission set, bound earlier (Bind), and drains
// already-queued updates that it admits (a wait observes updates that raced
// ahead of it). Several waits may be active at once (parallel composition);
// the returned handle identifies this one for EndWait.
func (t *Table) BeginWait(ks *Keys) (handle int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	handle = t.nextWid
	t.nextWid++
	t.waiters = append(t.waiters, waiter{id: handle, keys: ks})
	kept := t.pending[:0]
	for _, u := range t.pending {
		if ks.has(t.index(u.Kind)[u.Key]) {
			t.applyLocked(u)
			continue
		}
		kept = append(kept, u)
	}
	t.setPendingLocked(kept)
	return handle
}

// EndWait removes a wait admission set by handle.
func (t *Table) EndWait(handle int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.waiters = slices.DeleteFunc(t.waiters, func(w waiter) bool { return w.id == handle })
}

// Snapshot captures table contents for transactional rollback (the ⟨|E|⟩
// block): only the keys a compiled transaction's write-set can touch. The
// pending queue is NOT captured: queued communication from other junctions
// survives a rollback.
type Snapshot struct {
	props map[string]bool
	data  map[string]Value
}

// SnapshotKeys returns a deep copy of the listed keys (undeclared names are
// skipped). Restoring it rolls back exactly those keys and leaves the rest of
// the table untouched, so it is equivalent to a whole-table snapshot and
// restore whenever the key list over-approximates what the guarded block can
// modify. Empty lists take nothing and allocate nothing.
func (t *Table) SnapshotKeys(props, data []string) Snapshot {
	var s Snapshot
	if len(props) == 0 && len(data) == 0 {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.props = make(map[string]bool, len(props))
	s.data = make(map[string]Value, len(data))
	for _, k := range props {
		if c := t.props[k]; c != nil {
			s.props[k] = c.b.Load()
		}
	}
	for _, k := range data {
		if c := t.data[k]; c != nil {
			s.data[k] = copyValue(c.d)
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

// restorePropLocked and restoreDataLocked put one captured value back into
// the name's cell and wake its subscribers — a rollback changes visible
// values just like a write does. A name the table does not declare is skipped.
func (t *Table) restorePropLocked(name string, v bool) {
	if c := t.props[name]; c != nil {
		c.b.Store(v)
		t.wakeLocked(c)
	}
}

func (t *Table) restoreDataLocked(name string, v Value) {
	if c := t.data[name]; c != nil {
		c.setLocked(copyValue(v), true)
		t.wakeLocked(c)
	}
}

// RestoreKeys rolls back only the listed keys to the values a snapshot
// captured for them (keys the snapshot does not hold are left alone), waking
// their subscribers, in place: the cells stay, so bindings taken before the
// rollback read the restored values. A transaction that failed part-way uses
// it to take back what its own statements wrote and nothing a concurrent par
// arm committed.
func (t *Table) RestoreKeys(s Snapshot, props, data []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range props {
		if v, ok := s.props[k]; ok {
			t.restorePropLocked(k, v)
		}
	}
	for _, k := range data {
		if v, ok := s.data[k]; ok {
			t.restoreDataLocked(k, v)
		}
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
