// Live instance migration: System.MigrateInstance moves a running instance
// between deployment locations without losing a single acknowledged update.
// This is the runtime half of the reconfiguration story — the cost optimizer
// (internal/cost) decides where instances should live; this file makes the
// moves executable while the system keeps serving traffic.
//
// The protocol, per migration (one at a time — migrateMu):
//
//	quiesce    stop the instance's drivers, then take every junction's
//	           schedMu. Remote sends happen inside schedulings, so holding
//	           all schedMus means no update from this instance is mid-send.
//	park       swap each junction endpoint on the source network for a
//	           buffering Parked endpoint (compart/park.go): frames keep
//	           being delivered — and counted — but queue instead of landing
//	           in a table that is about to be snapshotted.
//	transfer   snapshot each junction (KV table including the pending
//	           remote-update queue, idx/subset state, per-sender receive
//	           frontiers), encode with internal/serial, and ship it to the
//	           destination location's migration control endpoint over the
//	           deployment uplink, each frame tagged with the round's epoch.
//	           The destination stages the round and acks it once, when it
//	           holds every frame, over the reverse uplink; the source waits
//	           for that ack under the system's AckTimeout. Any failure
//	           aborts: parked endpoints are released back into the old
//	           junction's handlers, drivers restart, and the source keeps
//	           running untouched.
//	cutover    build fresh junctions at the destination from the staged
//	           state, register their real handlers on the destination
//	           network, then flip the placement map, and only then release
//	           the parked source endpoints into forwarding proxies. The
//	           ordering is the correctness pivot: once the map says "dest",
//	           a proxy resolving the destination finds real handlers there,
//	           and the dest==self short-circuit in Deployment.forward can
//	           never meet another proxy.
//	resume     restart drivers on the new junctions; retire the old ones
//	           (moved flag → ErrMigrated → Invoke re-resolves).
//
// Updates delivered to the source after the snapshot but before the park
// took effect are recovered by a delta pass at cutover: the old table's
// pending entries whose arrival numbers are past the snapshot's mark (taken
// with the snapshot, under the table lock) are enqueued into the new table,
// so an acknowledged update is never dropped — not even one that coalesced
// into the entry the snapshot ended with.
package runtime

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"csaw/internal/compart"
	"csaw/internal/kv"
	"csaw/internal/obsv"
	"csaw/internal/serial"
)

// migrateEndpointPrefix namespaces the per-location migration control
// endpoints; the NUL byte keeps them outside any legal "instance::junction"
// name, so programs cannot collide with or address them.
const migrateEndpointPrefix = "\x00csaw:migrate:"

func migrateEndpoint(loc string) string { return migrateEndpointPrefix + loc }

const epochLen = 8 // the big-endian round epoch leading every transfer frame

// junctionState is the serialized form of one junction crossing the wire.
type junctionState struct {
	// Table is the whole-table KV export, pending queue included.
	Table kv.TableState
	// Idxs and Subsets carry the reconfiguration variables ("" / nil-elems
	// = undef). Sets are static declarations and are rebuilt from the
	// program, not transferred.
	Idxs    map[string]string
	Subsets map[string]subsetState
	// Recv carries the per-sender delivery frontiers so the new incarnation
	// keeps acking each pair's sequence space where the old one left off.
	Recv map[string]recvState
}

// subsetState distinguishes an undef subset (Defined=false) from a defined
// empty one — a nil slice cannot, once serialized.
type subsetState struct {
	Defined bool
	Elems   []string
}

type recvState struct {
	Contig uint64
	OO     []uint64
}

// exportState deep-copies the junction's transferable state. Callers hold
// the junction's schedMu, so no scheduling mutates under the copy.
func (j *Junction) exportState() junctionState {
	st := junctionState{Table: j.table.SnapshotAll()}
	j.idxMu.Lock()
	st.Idxs = make(map[string]string, len(j.idxs))
	for k, v := range j.idxs {
		st.Idxs[k] = v
	}
	st.Subsets = make(map[string]subsetState, len(j.subsets))
	for k, v := range j.subsets {
		ss := subsetState{Defined: v != nil, Elems: append([]string(nil), v...)}
		st.Subsets[k] = ss
	}
	j.idxMu.Unlock()
	j.recvMu.Lock()
	st.Recv = make(map[string]recvState, len(j.recvFrom))
	for from, tr := range j.recvFrom {
		rs := recvState{Contig: tr.contig}
		for seq := range tr.oo {
			rs.OO = append(rs.OO, seq)
		}
		sort.Slice(rs.OO, func(a, b int) bool { return rs.OO[a] < rs.OO[b] })
		st.Recv[from] = rs
	}
	j.recvMu.Unlock()
	return st
}

// importState installs transferred state into a freshly built junction,
// before it processes any traffic.
func (j *Junction) importState(st junctionState) {
	j.table.RestoreAll(st.Table)
	j.idxMu.Lock()
	for k, v := range st.Idxs {
		if _, ok := j.idxs[k]; ok {
			j.idxs[k] = v
		}
	}
	for k, v := range st.Subsets {
		if _, ok := j.subsets[k]; !ok {
			continue
		}
		if !v.Defined {
			j.subsets[k] = nil
		} else if v.Elems == nil {
			j.subsets[k] = []string{}
		} else {
			j.subsets[k] = v.Elems
		}
	}
	j.idxMu.Unlock()
	j.recvMu.Lock()
	j.recvFrom = make(map[string]*recvTrack, len(st.Recv))
	for from, rs := range st.Recv {
		tr := &recvTrack{contig: rs.Contig}
		if len(rs.OO) > 0 {
			tr.oo = make(map[uint64]struct{}, len(rs.OO))
			for _, seq := range rs.OO {
				tr.oo[seq] = struct{}{}
			}
		}
		j.recvFrom[from] = tr
	}
	j.recvMu.Unlock()
}

// migRound is one migration's transfer. MigrateInstance publishes it in
// System.round for as long as it runs, so nothing of a round outlives it.
// Every frame of the round carries its epoch; a frame of any other round
// finds no match and is dropped.
type migRound struct {
	epoch uint64
	want  int // state frames the round sends, one per junction

	mu     sync.Mutex
	staged map[string][]byte // junction → encoded junctionState

	ackOnce sync.Once
	acked   chan struct{} // closed when the destination has staged every frame
}

// handleMigrateFrame is the destination/source side of the transfer
// handshake, registered per location at Deployment.bind. A state frame of the
// live round is staged in it; the frame that completes the round is answered
// with the round's one ack over the reverse uplink, and the ack releases the
// source's wait. A frame that is not the live round's is dropped.
func (s *System) handleMigrateFrame(loc string, m compart.Message) {
	r := s.round.Load()
	if r == nil || m.Kind != compart.KindControl || len(m.Payload) < epochLen ||
		binary.BigEndian.Uint64(m.Payload) != r.epoch {
		return
	}
	switch {
	case m.Key == "ack":
		r.ackOnce.Do(func() { close(r.acked) })
	case strings.HasPrefix(m.Key, "state:"):
		fq := strings.TrimPrefix(m.Key, "state:")
		r.mu.Lock()
		_, dup := r.staged[fq]
		if !dup {
			// The payload is lent for this call (compart.Handler); the
			// round keeps it until the cutover decodes it.
			r.staged[fq] = bytes.Clone(m.Payload[epochLen:])
		}
		complete := !dup && len(r.staged) == r.want
		r.mu.Unlock()
		if !complete {
			return
		}
		srcLoc := strings.TrimPrefix(m.From, migrateEndpointPrefix)
		_ = s.deploy.uplink(loc, srcLoc)(compart.Message{
			From:    migrateEndpoint(loc),
			To:      migrateEndpoint(srcLoc),
			Kind:    compart.KindControl,
			Key:     "ack",
			Payload: m.Payload[:epochLen:epochLen],
		})
	}
}

// MigrateInstance moves a running instance to another deployment location,
// live: in-flight traffic toward the instance is buffered during the
// transfer and replayed to the new incarnation, acknowledged updates are
// never lost, and senders keep addressing the same names throughout.
// Migrating to the instance's current location is a no-op. Pinned instances
// refuse. On any transfer failure the source resumes untouched and the
// error is returned.
func (s *System) MigrateInstance(name, dest string) error {
	d := s.deploy
	if d.loc(dest) == nil {
		return fmt.Errorf("runtime: migrate %q: unknown location %q", name, dest)
	}
	if d.Pinned(name) {
		return fmt.Errorf("runtime: migrate %q: instance is pinned", name)
	}

	// One migration at a time: concurrent migrations could deadlock on
	// schedMu ordering and interleave placement flips.
	s.migrateMu.Lock()
	defer s.migrateMu.Unlock()

	inst, ok := s.instanceMap()[name]
	if !ok || !inst.running.Load() {
		return fmt.Errorf("%w: %q", ErrNotRunning, name)
	}

	src := d.LocationOf(name)
	if src == dest {
		return nil
	}
	srcNet := d.loc(src).net
	destLoc := d.loc(dest)

	tracing := s.obs.Tracing()
	begin := time.Now()
	if tracing {
		s.obs.Emit(obsv.Event{Kind: obsv.EvMigrateBegin, Junction: name, Key: dest})
	}

	// --- quiesce ---------------------------------------------------------
	// Junction order is deterministic (sorted) so a hypothetical second
	// quiescer could never deadlock against us.
	oldJs := inst.junctionMap()
	names := make([]string, 0, len(oldJs))
	for jn := range oldJs {
		names = append(names, jn)
	}
	sort.Strings(names)
	js := make([]*Junction, 0, len(names))
	for _, jn := range names {
		js = append(js, oldJs[jn])
	}
	for _, j := range js {
		j.stopDriver(false)
	}
	for _, j := range js {
		j.schedMu.Lock()
	}
	unlockAll := func() {
		for _, j := range js {
			j.schedMu.Unlock()
		}
	}
	if tracing {
		s.obs.Emit(obsv.Event{Kind: obsv.EvMigrateQuiesce, Junction: name, Key: dest, Dur: time.Since(begin)})
	}

	// --- park + snapshot -------------------------------------------------
	parked := make([]*compart.Parked, len(js))
	for i, j := range js {
		parked[i] = srcNet.Park(j.FQName)
	}
	snaps := make([]junctionState, len(js))
	for i, j := range js {
		snaps[i] = j.exportState()
	}

	abort := func(cause error) error {
		// Put the source back exactly as it was: parked endpoints release
		// into the old junction handlers (buffered frames replay in order),
		// schedulings unblock, drivers restart.
		for i, j := range js {
			parked[i].Release(j.handleMessage)
		}
		unlockAll()
		s.startDrivers(inst)
		if tracing {
			s.obs.Emit(obsv.Event{Kind: obsv.EvMigrateAbort, Junction: name, Key: dest, Err: cause.Error()})
		}
		return fmt.Errorf("runtime: migrate %q to %q aborted: %w", name, dest, cause)
	}

	// --- transfer --------------------------------------------------------
	s.epoch++
	r := &migRound{epoch: s.epoch, want: len(js), staged: make(map[string][]byte, len(js)), acked: make(chan struct{})}
	s.round.Store(r)
	defer s.round.Store(nil)
	up := d.uplink(src, dest)
	for i, j := range js {
		payload, err := serial.AppendMarshal(binary.BigEndian.AppendUint64(nil, r.epoch), snaps[i])
		if err != nil {
			return abort(fmt.Errorf("encode %s: %w", j.FQName, err))
		}
		if tracing {
			s.obs.Emit(obsv.Event{Kind: obsv.EvMigrateTransfer, Junction: j.FQName, Key: dest, N: int64(len(payload) - epochLen)})
		}
		if err := up(compart.Message{
			From:    migrateEndpoint(src),
			To:      migrateEndpoint(dest),
			Kind:    compart.KindControl,
			Key:     "state:" + j.FQName,
			Payload: payload,
		}); err != nil {
			return abort(fmt.Errorf("transfer %s: %w", j.FQName, err))
		}
	}
	timer := time.NewTimer(s.opts.AckTimeout)
	defer timer.Stop()
	select {
	case <-r.acked:
	case <-timer.C:
		var missing []string
		r.mu.Lock()
		for _, j := range js {
			if _, ok := r.staged[j.FQName]; !ok {
				missing = append(missing, j.FQName)
			}
		}
		r.mu.Unlock()
		return abort(fmt.Errorf("no transfer ack for %s within %s", strings.Join(missing, ", "), s.opts.AckTimeout))
	}

	// --- cutover ---------------------------------------------------------
	t := s.prog.Types[inst.TypeName]
	newJs := make(map[string]*Junction, len(js))
	for i, j := range js {
		def := t.Junctions[j.def.Name]
		nj := newJunction(s, inst, def, destLoc.net)
		// Acked, the round's map is whole, and no frame writes it again.
		var st junctionState
		if err := serial.Unmarshal(r.staged[j.FQName], &st); err != nil {
			return abort(fmt.Errorf("decode %s: %w", j.FQName, err))
		}
		nj.importState(st)
		// Delta pass: updates that slipped into the old table between the
		// snapshot and the park taking effect (a zero-latency handler
		// resolved before the park) were acknowledged to their senders and
		// must not be lost. Nothing drains the old queue while schedMu is
		// held, so the entries numbered past the snapshot's mark are exactly
		// the late arrivals — including one that coalesced into the entry
		// the snapshot ended with.
		nj.table.EnqueueBatch(j.table.PendingSince(snaps[i].Table))
		newJs[j.def.Name] = nj
	}
	// Destination handlers first, then the placement flip, then the parked
	// release: every frame replayed through a proxy finds a real handler.
	// The source location is skipped here — its endpoint stays the parked
	// buffer until Release installs the forwarding proxy, so no frame can
	// overtake the buffered ones.
	for _, nj := range newJs {
		destLoc.net.Register(nj.FQName, nj.handleMessage)
		d.registerProxiesExcept(dest, src, nj.FQName)
		s.obs.ResetJunction(nj.FQName)
		if tracing {
			s.obs.Emit(obsv.Event{Kind: obsv.EvMigrateCutover, Junction: nj.FQName, Key: dest})
		}
	}
	d.setLoc(name, dest)
	for i, j := range js {
		parked[i].Release(d.proxyHandler(src))
		j.moved.Store(true)
		j.clock.retire()
	}
	s.mu.Lock()
	inst.junctions.Store(&newJs)
	s.mu.Unlock()
	unlockAll()
	// Waiters blocked on an old table (InvokeWhenReady subscriptions armed
	// before the migration) re-check, hit ErrMigrated, and re-resolve.
	for _, j := range js {
		j.table.WakeAll()
	}

	// --- resume ----------------------------------------------------------
	s.startDrivers(inst)
	if tracing {
		s.obs.Emit(obsv.Event{Kind: obsv.EvMigrateResume, Junction: name, Key: dest, Dur: time.Since(begin)})
	}
	return nil
}

// startDrivers starts the driver loop of every guarded junction of inst that
// is not Manual, unless the system runs without drivers. The loops start in
// no particular order (paper §6); an unguarded junction is scheduled by
// application logic through Invoke.
func (s *System) startDrivers(inst *Instance) {
	if s.opts.DisableDrivers {
		return
	}
	for _, j := range inst.junctionMap() {
		if j.def.Guard != nil && !j.def.Manual {
			j.startDriver()
		}
	}
}
