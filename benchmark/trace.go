package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csaw/internal/obsv"
)

// Spans are recorded by the benchmark around its own calls into the system:
// the Invoke, every host hook the runtime calls back, the codec and
// application calls inside the hooks, the uplink function the deployment
// forwards frames through, and MigrateInstance. Nothing inside internal/ is
// instrumented.

type spanKind uint8

const (
	spInvoke  spanKind = iota // sys.Invoke, one per request
	spChoose                  // sharding front: ⌊Choose⌉
	spCheck                   // caching front: ⌊CheckCacheable⌉
	spLookup                  // caching front: ⌊LookupCache⌉
	spCapture                 // front: save(..., n)
	spHandle                  // back-end: restore(n); ⌊H⌉; save(m)
	spDeliver                 // front: restore(m, ...)
	spUpdate                  // caching front: ⌊UpdateCache⌉
	spEncode                  // serial.Marshal / AppendMarshal inside a hook
	spDecode                  // serial.Unmarshal inside a hook
	spApp                     // miniredis call inside a hook
	spUplink                  // Deployment uplink func (ReconnectClient.Send)
	spMigrate                 // sys.MigrateInstance
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"invoke", "hook.choose", "hook.check", "hook.lookup", "hook.capture",
	"hook.handle", "hook.deliver", "hook.update", "serial.encode",
	"serial.decode", "app.op", "uplink.send", "migrate",
}

func (k spanKind) isHook() bool { return k >= spChoose && k <= spUpdate }

// span is one timed interval. parent is the index of the enclosing span, -1
// for an Invoke and for spans that run beside the request's hook chain
// (uplink sends, migrations). Times are nanoseconds since the tracer's base.
type span struct {
	start, end int64
	req        uint32
	parent     int32
	aux        uint32 // bytes moved, where the kind has a size
	kind       spanKind
	client     uint8
}

const maxClients = 2

// tracer keeps spans in a preallocated buffer; slots are claimed with one
// atomic add, so recording takes no lock, and a slot is written only by the
// goroutine that claimed it: the spans are read once every goroutine of the
// system has exited. A nil tracer records nothing: the untraced passes run
// the same glue with tr == nil.
type tracer struct {
	base  time.Time
	on    atomic.Bool // spans are recorded only while set
	buf   []span
	n     atomic.Int64
	cur   [maxClients]atomic.Uint32 // request in flight per client
	inv   [maxClients]atomic.Int32  // its Invoke span
	names [maxClients]string        // junction owning each client, for uplink attribution
}

func newTracer(capacity int) *tracer {
	t := &tracer{base: time.Now(), buf: make([]span, capacity)}
	for c := range t.inv {
		t.inv[c].Store(-1)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// full reports whether the buffer has no room for another request's spans.
func (t *tracer) full() bool { return int(t.n.Load())+64 > len(t.buf) }

func (t *tracer) begin(kind spanKind, client int, parent int32) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	i := t.n.Add(1) - 1
	if int(i) >= len(t.buf) {
		return -1
	}
	s := &t.buf[i]
	s.kind, s.client, s.parent, s.req = kind, uint8(client), parent, t.cur[client].Load()
	s.start = t.now()
	return int32(i)
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.buf[id].end = t.now()
	}
}

// endSized ends a span that moved n bytes.
func (t *tracer) endSized(id int32, n int) {
	if id >= 0 {
		t.buf[id].end = t.now()
		t.buf[id].aux = uint32(n)
	}
}

// beginInvoke opens the next request of a client.
func (t *tracer) beginInvoke(client int) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	t.cur[client].Add(1)
	id := t.begin(spInvoke, client, -1)
	t.inv[client].Store(id)
	return id
}

// hook opens a host-hook span under client 0's Invoke: the key-value
// workloads have one client, and the fan-out workload has no hooks.
func (t *tracer) hook(kind spanKind) int32 {
	if t == nil {
		return -1
	}
	return t.begin(kind, 0, t.inv[0].Load())
}

func (t *tracer) child(kind spanKind, parent int32) int32 {
	if t == nil || parent < 0 {
		return -1
	}
	return t.begin(kind, 0, parent)
}

// clientOf attributes an uplink frame to the client whose junction sent it or
// is addressed by it (acks travel toward the sender).
func (t *tracer) clientOf(from, to string) int {
	for c := 1; c < maxClients; c++ {
		if n := t.names[c]; n != "" && (n == from || n == to) {
			return c
		}
	}
	return 0
}

func (t *tracer) spans() []span {
	n := int(t.n.Load())
	if n > len(t.buf) {
		n = len(t.buf)
	}
	return t.buf[:n]
}

// eventSink is the obsv sink of the traced pass: counts per kind, exact
// scheduling and ack-wait latencies, and the remote.queued count of the
// request in flight (read and reset by the single client after each Invoke).
type eventSink struct {
	counts    [64]atomic.Uint64
	curQueued atomic.Uint32

	mu    sync.Mutex
	sched hist
	ack   hist
}

// Emit implements obsv.Sink.
func (s *eventSink) Emit(e obsv.Event) {
	if int(e.Kind) < len(s.counts) {
		s.counts[e.Kind].Add(1)
	}
	switch e.Kind {
	case obsv.EvRemoteQueued:
		s.curQueued.Add(1)
	case obsv.EvSchedFire:
		s.mu.Lock()
		s.sched.add(int64(e.Dur))
		s.mu.Unlock()
	case obsv.EvRemoteAcked:
		s.mu.Lock()
		s.ack.add(int64(e.Dur))
		s.mu.Unlock()
	}
}

func (s *eventSink) count(k obsv.Kind) uint64 { return s.counts[k].Load() }

// reset forgets everything counted so far.
func (s *eventSink) reset() {
	for i := range s.counts {
		s.counts[i].Store(0)
	}
	s.curQueued.Store(0)
	s.mu.Lock()
	s.sched.reset()
	s.ack.reset()
	s.mu.Unlock()
}

func (s *eventSink) total() uint64 {
	var n uint64
	for i := range s.counts {
		n += s.counts[i].Load()
	}
	return n
}

// reqStats is what the span tree of one request yields.
type reqStats struct {
	invoke, hooks           int64 // Invoke duration, summed hook durations
	firstHook, lastHookEnd  int64
	captureEnd, handleStart int64
	handleEnd, deliverStart int64
	encode, decode, app     int64
	selfSum                 int64 // sum of self times over the request's tree
	nHooks                  int
}

// spanDigest folds a traced pass's spans into the per-layer figures.
type spanDigest struct {
	requests int

	invokeSelf, dispatch, complete hist
	hopRequest, hopResponse        hist
	uplink, migrate                hist
	overlapLat                     hist // requests overlapping a MigrateInstance call

	encodeNs, decodeNs, appNs, hookNs int64
	serialBytes                       int64
	appCalls                          int64
	wireBytes                         int64
	migrateMaxNs                      int64
	maxCoverErr                       float64 // worst |Σself − invoke| ÷ invoke
}

func digestSpans(spans []span) *spanDigest {
	d := &spanDigest{}
	// covered[i] is the part of span i's interval its children cover. A child
	// reaching outside its parent is clipped, so the self times of a request
	// add up to its Invoke span only if the spans really nest.
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 && s.end > 0 {
			p := spans[s.parent]
			if c := min(s.end, p.end) - max(s.start, p.start); c > 0 {
				covered[s.parent] += c
			}
		}
	}
	// Per-request accumulators live at the Invoke span's index.
	stats := map[int32]*reqStats{}
	root := func(i int32) int32 {
		for spans[i].parent >= 0 {
			i = spans[i].parent
		}
		return i
	}
	var migs []span
	for i, s := range spans {
		if s.end == 0 {
			continue // cut off by the end of the pass
		}
		dur := s.end - s.start
		switch s.kind {
		case spUplink:
			d.uplink.add(dur)
			d.wireBytes += int64(s.aux)
			continue
		case spMigrate:
			d.migrate.add(dur)
			if dur > d.migrateMaxNs {
				d.migrateMaxNs = dur
			}
			migs = append(migs, s)
			continue
		}
		r := root(int32(i))
		if spans[r].kind != spInvoke || spans[r].end == 0 {
			continue
		}
		st := stats[r]
		if st == nil {
			st = &reqStats{}
			stats[r] = st
		}
		st.selfSum += dur - covered[i]
		switch {
		case s.kind == spInvoke:
			st.invoke = dur
		case s.kind.isHook():
			st.hooks += dur
			if st.nHooks == 0 || s.start < st.firstHook {
				st.firstHook = s.start
			}
			if s.end > st.lastHookEnd {
				st.lastHookEnd = s.end
			}
			st.nHooks++
			switch s.kind {
			case spCapture:
				st.captureEnd = s.end
			case spHandle:
				st.handleStart, st.handleEnd = s.start, s.end
			case spDeliver:
				st.deliverStart = s.start
			}
		case s.kind == spEncode:
			st.encode += dur
			d.serialBytes += int64(s.aux)
		case s.kind == spDecode:
			st.decode += dur
			d.serialBytes += int64(s.aux)
		case s.kind == spApp:
			st.app += dur
			d.appCalls++
		}
	}
	sort.Slice(migs, func(i, k int) bool { return migs[i].start < migs[k].start })
	for r, st := range stats {
		inv := spans[r]
		d.requests++
		d.invokeSelf.add(st.invoke - st.hooks)
		if st.nHooks > 0 {
			d.dispatch.add(st.firstHook - inv.start)
			d.complete.add(inv.end - st.lastHookEnd)
		}
		if st.handleStart > 0 && st.captureEnd > 0 {
			d.hopRequest.add(st.handleStart - st.captureEnd)
		}
		if st.deliverStart > 0 && st.handleEnd > 0 {
			d.hopResponse.add(st.deliverStart - st.handleEnd)
		}
		d.encodeNs += st.encode
		d.decodeNs += st.decode
		d.appNs += st.app
		d.hookNs += st.hooks
		if st.invoke > 0 {
			e := float64(st.selfSum-st.invoke) / float64(st.invoke)
			if e < 0 {
				e = -e
			}
			if e > d.maxCoverErr {
				d.maxCoverErr = e
			}
		}
		k := sort.Search(len(migs), func(i int) bool { return migs[i].end > inv.start })
		if k < len(migs) && migs[k].start < inv.end {
			d.overlapLat.add(st.invoke)
		}
	}
	return d
}

// writeTrace writes the spans up to the end of each client's maxReq-th
// request as JSON lines, at most maxLines of them.
func writeTrace(path string, spans []span, maxReq uint32, maxLines int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var horizon int64
	for _, s := range spans {
		if s.kind == spInvoke && s.req <= maxReq && s.end > horizon {
			horizon = s.end
		}
	}
	for i, s := range spans {
		if s.end == 0 || s.end > horizon {
			continue
		}
		if maxLines--; maxLines < 0 {
			break
		}
		fmt.Fprintf(w, `{"req":%d,"client":%d,"span":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d`,
			s.req, s.client, i, s.parent, spanNames[s.kind], s.start, s.end)
		if s.aux > 0 {
			fmt.Fprintf(w, `,"bytes":%d`, s.aux)
		}
		w.WriteString("}\n")
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
