package kv

// TableState is a whole-table export used by live instance migration: the
// declared propositions, the data slots, and — unlike the transactional
// Snapshot — the pending remote-update queue. Pending updates were delivered
// and acknowledged, so their senders' statements already completed; dropping
// them at migration would silently lose updates the protocol promised.
// All fields are exported so the state rides internal/serial's compiled
// codec plans (the same fast path remote writes use). An Update's unexported
// arrival sequence is not encoded (its count N is); RestoreAll re-sequences
// the queue in slice order, preserving application order.
type TableState struct {
	Props   map[string]bool
	Data    map[string]Value
	Pending []Update

	// next is the arrival number the table's next delivery was to take when
	// the state was exported (not encoded): PendingSince finds what arrived
	// after the export by it.
	next uint64
}

// SnapshotAll deep-copies the complete table state for transfer. The copy
// shares no memory with the table, so it can be serialized after the table
// resumes mutating.
func (t *Table) SnapshotAll() TableState {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TableState{
		Props:   make(map[string]bool, len(t.props)),
		Data:    make(map[string]Value, len(t.data)),
		Pending: make([]Update, 0, len(t.pending)),
		next:    t.nextSeq,
	}
	for k, c := range t.props {
		st.Props[k] = c.b.Load()
	}
	for k, c := range t.data {
		st.Data[k] = copyValue(c.d)
	}
	for _, u := range t.pending {
		if u.Data != nil {
			u.Data = append([]byte(nil), u.Data...)
		}
		u.seq = 0
		st.Pending = append(st.Pending, u)
	}
	return st
}

// PendingSince returns the queued updates that arrived after st was exported
// from this table, in arrival order: the tail of the queue that st does not
// hold. An update that coalesced into an entry st does hold carries its own
// arrival number into that entry, so it is found too. The result is exact
// only while nothing has drained, kept or locally overwritten the queue since
// the export — the migration quiesce holding the junction's schedMu
// guarantees that. The updates carry copies of their data: a queued entry's
// buffer is the table's, rewritten when a later delivery coalesces into it.
func (t *Table) PendingSince(st TableState) []Update {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := len(t.pending)
	for i > 0 && t.pending[i-1].seq >= st.next {
		i--
	}
	if i == len(t.pending) {
		return nil
	}
	out := append([]Update(nil), t.pending[i:]...)
	for k := range out {
		if out[k].Data != nil {
			out[k].Data = append([]byte(nil), out[k].Data...)
		}
	}
	return out
}

// RestoreAll installs an exported state: every value st carries and the
// pending queue come from st. It is meant for a freshly built table on the
// migration destination — installed state replaces the declaration-time
// initial values before the junction processes anything — but works on any
// table. Values are stored into the cells the table already has, so cells
// bound before the install (the destination junction is compiled first) read
// the installed values; a name st carries and the table lacks is declared; a
// declared name st does not carry keeps its value, the key set being fixed by
// the declarations. Waiters and subscriptions survive, and every subscriber is
// woken since any key may have changed. Each installed queue entry counts the
// deliveries it stood for (Update.N).
func (t *Table) RestoreAll(st TableState) {
	t.mu.Lock()
	for k, v := range st.Props {
		t.declareLocked(UpdateProp, k).b.Store(v)
	}
	for k, v := range st.Data {
		t.declareLocked(UpdateData, k).setLocked(copyValue(v), true)
	}
	pending := t.pending[:0]
	for _, u := range st.Pending {
		if u.Data != nil {
			u.Data = append([]byte(nil), u.Data...)
		}
		u.N = uint32(u.count())
		t.nextSeq += uint64(u.N)
		u.seq = t.nextSeq - 1
		pending = append(pending, u)
	}
	t.setPendingLocked(pending)
	t.wakeEveryLocked()
	t.mu.Unlock()
}
