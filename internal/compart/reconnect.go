package compart

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The reconnecting client makes the cross-machine substrate survive the
// failures the paper's evaluation injects (§7.3 fail-over, Fig 23a): a
// remote server crash or partition no longer kills the sender permanently.
// Instead the client transparently redials with exponential backoff plus
// jitter, buffers outbound messages in a bounded queue while disconnected
// (overflow is counted as dropped, never lost silently), and optionally
// exchanges application-level heartbeats so connection health — not just
// TCP connect state — feeds remote-liveness reporting (Notify).

// Errors reported by the reconnecting client.
var (
	// ErrQueueFull is returned by Send when the bounded outbound queue is
	// full (typically because the remote has been unreachable for a while).
	ErrQueueFull = errors.New("compart: outbound queue full")
	// ErrClientClosed is returned by Send after Close.
	ErrClientClosed = errors.New("compart: client closed")
)

// Fixed redial and liveness tuning of a reconnecting client.
const (
	// backoffFactor multiplies the redial delay after each failed dial.
	backoffFactor = 2
	// backoffJitter adds a uniformly random fraction of the delay in
	// [0, backoffJitter) to desynchronize reconnect storms.
	backoffJitter = 0.2
	// heartbeatMiss is the number of heartbeat intervals without a pong
	// before the connection is declared dead.
	heartbeatMiss = 3
)

// ReconnectConfig tunes DialReconnect. The zero value gives usable
// defaults; Heartbeat is opt-in.
type ReconnectConfig struct {
	// QueueSize bounds the outbound queue (default 1024). Messages sent
	// while disconnected wait here; overflow fails with ErrQueueFull and
	// counts as Dropped.
	QueueSize int
	// BackoffMin is the first redial delay (default 50ms).
	BackoffMin time.Duration
	// BackoffMax caps the redial delay (default 2s). The delay grows by
	// backoffFactor after each failed dial, plus up to backoffJitter of
	// itself at random.
	BackoffMax time.Duration
	// Heartbeat enables transport-level pings at this interval; 0 disables.
	// Missing heartbeatMiss consecutive pongs tears the connection down so
	// half-open connections are detected and redialed.
	Heartbeat time.Duration
	// Dial overrides the connection factory (default: net.Dial("tcp", addr)).
	// Lets tests and non-TCP deployments (unix sockets) reuse the machinery.
	Dial func() (net.Conn, error)
	// Jitter overrides the jitter source: each call returns a uniform value
	// in [0, 1) that scales backoffJitter for one redial delay. The default
	// is a clock-seeded RNG; injecting a fixed source makes backoff
	// schedules deterministic in tests. Must be safe for use from the
	// client's connection goroutine.
	Jitter func() float64
}

func (c *ReconnectConfig) fill(addr string) {
	if c.QueueSize <= 0 {
		c.QueueSize = 1024
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.Dial == nil {
		c.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if c.Jitter == nil {
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		var mu sync.Mutex
		c.Jitter = func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return rng.Float64()
		}
	}
}

// ClientStats is a snapshot of a reconnecting client's counters. At any
// quiescent point Enqueued == Sent + Dropped - (rejected before enqueue);
// more precisely: every message accepted is eventually counted Sent
// (written to a socket) or Dropped (write error, or still queued at Close).
type ClientStats struct {
	// Enqueued counts messages accepted: written by the sender itself on an
	// idle connection, or queued for the connection goroutine.
	Enqueued uint64
	// Direct counts the accepted messages a sending goroutine wrote to the
	// socket itself rather than the connection goroutine: its own frame, and
	// the held acks that rode in front of it or that their own sender
	// wrote, wholly or (rarely) all but a tail the connection goroutine
	// finished. Always 0 over connections without a file descriptor
	// (net.Pipe), whose messages all queue.
	Direct uint64
	// Sent counts frames written to a socket (handed to the OS; TCP may
	// still lose them on a crash, which heartbeats surface as a reconnect).
	Sent uint64
	// Dropped counts messages rejected on a full queue, lost to a write
	// error, or abandoned in the queue at Close.
	Dropped uint64
	// BatchesSent counts the writes that carried two or more frames: a run
	// the pump drained under one flush, or held acks written together or in
	// front of another frame. Every frame is one message — a KindGroup
	// message is one however many updates it holds — so Enqueued, Sent and
	// Dropped count frames, and batching never perturbs the
	// Enqueued == Sent + Dropped conservation invariant.
	BatchesSent uint64
	// MsgsPerBatch summarizes batch sizes (frames per write counted in
	// BatchesSent).
	MsgsPerBatch SizeHist
	// Dials counts dial attempts; Connects counts the successful ones, so
	// Connects-1 is the number of reconnections and Dials-Connects the
	// failed attempts backed off from.
	Dials    uint64
	Connects uint64
	// HeartbeatsSent / HeartbeatsAcked count pings written and pongs seen.
	HeartbeatsSent  uint64
	HeartbeatsAcked uint64
	// QueueLen is the current outbound queue depth.
	QueueLen int
	// Connected reports current connection state.
	Connected bool
	// SendLatency summarizes enqueue-to-socket-write latency, which spikes
	// during disconnections and so exposes queueing delay to experiments. A
	// whole direct write is a sample of 0 for its own frame; a held ack's
	// sample runs from when it was held.
	SendLatency LatencySummary
}

type outFrame struct {
	body []byte
	at   time.Time
}

// ReconnectClient is a self-healing sender to a remote compart server. It
// is safe for concurrent use; Send never blocks on the network.
type ReconnectClient struct {
	cfg   ReconnectConfig
	queue chan outFrame
	done  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once

	// sendMu excludes Send during Close's final drain: Close takes the write
	// side before counting leftover queue entries as Dropped, so no frame can
	// slip into the queue after the drain and escape the stats conservation
	// invariant (Enqueued == Sent + Dropped at quiescence).
	sendMu sync.RWMutex

	// wmu is the one writer lock: every write to the live socket — the
	// pump's runs and heartbeats, a sender's direct write — holds it, so
	// frames never interleave. pending counts the frames accepted but not yet
	// written (queued, held by the pump, or a partial write's tail); a sender
	// writes directly only when it is 0, behind nothing, which keeps every
	// sender's FIFO order.
	wmu     sync.Mutex
	pending atomic.Int64
	// raw is the live socket's handle for direct writes, detached while
	// down. partial is the bytes of partialN frames a direct write got only
	// its first partialOff bytes of onto the socket; kick wakes the pump to
	// write the rest before anything else. raw and the partial fields are
	// guarded by wmu.
	raw        rawWriter
	partial    []byte
	partialOff int
	partialN   int
	partialAt  time.Time
	kick       chan struct{}
	// held is the encoded KindAck frames waiting to go out in front of the
	// next frame written, heldAt when each was held; guarded by wmu. An ack
	// is held only while nothing is pending, so held frames are older than
	// every pending one, and every write — direct, the pump's, a heartbeat —
	// puts them first. They are not counted in pending, so a frame sent
	// after them still takes the direct path, carrying them along. A write
	// that leaves a partial tail takes them into it, and none are held
	// again until the tail is written or dropped, so held is empty while
	// partial is set.
	held   []byte
	heldAt []time.Time

	enqueued, sent, dropped atomic.Uint64
	directs                 atomic.Uint64
	batchesSent             atomic.Uint64
	dials, connects         atomic.Uint64
	hbSent, hbAcked         atomic.Uint64
	connected               atomic.Bool

	mu         sync.Mutex
	sendLat    LatencySummary
	batchSizes SizeHist

	// notifyMu orders connection-state changes with listener registration:
	// setConnected holds it across its store and its listener calls, Notify
	// across its append and its first call, so a listener sees every state
	// exactly once and in order, its first call included.
	notifyMu  sync.Mutex
	listeners []func(up bool)
}

// DialReconnect returns a client that maintains a connection to addr in the
// background: it connects, reconnects with exponential backoff and jitter
// after any failure, and drains the outbound queue whenever connected. It
// never fails at construction — the first dial happens asynchronously.
func DialReconnect(addr string, cfg ReconnectConfig) *ReconnectClient {
	cfg.fill(addr)
	c := &ReconnectClient{
		cfg:   cfg,
		queue: make(chan outFrame, cfg.QueueSize),
		done:  make(chan struct{}),
		kick:  make(chan struct{}, 1),
	}
	c.wg.Add(1)
	go c.run()
	return c
}

// Send frames the message and hands it to the connection: when the
// connection is idle — up, no other write in progress, nothing accepted
// before still unwritten — the calling goroutine writes it itself, else it
// is enqueued for the connection goroutine. Either way Send never blocks on
// the network. It fails fast with ErrFieldTooLong/ErrFrameTooLarge on
// unframeable messages, counting neither, ErrQueueFull (counted Dropped)
// when the bounded queue is saturated, and ErrClientClosed after Close. A
// nil error means the message was accepted, not that the remote received it
// — delivery confirmation stays an application concern (the runtime's acks).
//
// A KindAck message on an idle connection is held, to leave in the same
// write(2) as whatever frame is written next. With Flag clear the caller
// writes it at once, with any acks held before it. With Flag set the caller
// first yields the processor once, so that a frame the ack's receipt is
// about to produce can carry it, and then writes whatever is still held.
func (c *ReconnectClient) Send(msg Message) error {
	c.sendMu.RLock()
	defer c.sendMu.RUnlock()
	// done is re-checked as a case of the enqueue select below: the
	// standalone check alone left a window where a Send racing Close could
	// enqueue a frame after the closed check passed.
	select {
	case <-c.done:
		return ErrClientClosed
	default:
	}
	if msg.Kind == KindAck && c.hold(&msg) {
		if msg.Flag {
			runtime.Gosched()
			c.flushHeld()
		}
		return nil
	}
	frame, err := encodeFrame(&msg)
	if err != nil {
		return err
	}
	if c.writeDirect(frame, msg.Kind) {
		return nil
	}
	c.pending.Add(1)
	select {
	case c.queue <- outFrame{body: frame[4:], at: time.Now()}:
		c.enqueued.Add(1)
		return nil
	case <-c.done:
		c.pending.Add(-1)
		return ErrClientClosed
	default:
		c.pending.Add(-1)
		c.dropped.Add(1)
		return ErrQueueFull
	}
}

// hold encodes an ack into the held buffer when the connection is idle and
// reports whether it took the ack; with Flag clear it also writes the held
// acks at once. Like writeDirect it only tries the writer lock, and an ack
// it does not take is sent as any other frame.
func (c *ReconnectClient) hold(m *Message) bool {
	if !c.wmu.TryLock() {
		return false
	}
	defer c.wmu.Unlock()
	if !c.raw.attached() || c.pending.Load() != 0 {
		return false
	}
	held, err := appendFrame(c.held, m)
	if err != nil {
		return false
	}
	c.held = held
	c.heldAt = append(c.heldAt, time.Now())
	c.enqueued.Add(1)
	if !m.Flag && !c.directLocked(nil) {
		c.kickPump()
	}
	return true
}

// flushHeld writes what a flagged ack left held after its sender yielded:
// nothing, when a frame written meanwhile carried it. A write in progress,
// or a socket that takes none of the bytes, leaves them to the pump, which
// is woken; a lost connection leaves them for the next one.
func (c *ReconnectClient) flushHeld() {
	if !c.wmu.TryLock() {
		c.kickPump()
		return
	}
	defer c.wmu.Unlock()
	if len(c.heldAt) > 0 && c.raw.attached() && !c.directLocked(nil) {
		c.kickPump()
	}
}

// writeDirect writes frame from the calling goroutine when the connection
// is idle and reports whether it took the frame. It never blocks: it only
// tries the writer lock, and makes one non-blocking write. A socket that
// takes none of the frame leaves it to the queue; one that takes part of it
// leaves the tail counted pending, so later frames queue behind it, and
// wakes the pump to finish it. Held acks go out in the same write, the
// frame copied in behind them — except a KindControl frame, which may be a
// migration's state blob, and a frame larger than the pump's buffer: the
// held acks take a write of their own first, so the held buffer never grows
// to hold such a frame.
func (c *ReconnectClient) writeDirect(frame []byte, kind MessageKind) bool {
	if !c.wmu.TryLock() {
		return false
	}
	defer c.wmu.Unlock()
	if !c.raw.attached() || c.pending.Load() != 0 {
		return false
	}
	if len(c.heldAt) > 0 && (kind == KindControl || len(frame) > frameBufSize) {
		if !c.directLocked(nil) || c.partial != nil {
			return false
		}
	}
	if !c.directLocked(frame) {
		return false
	}
	c.enqueued.Add(1)
	return true
}

// directLocked makes one non-blocking write(2) of the held acks followed by
// frame (nil for the held acks alone) and reports whether the socket took
// any of it. The caller holds wmu with the socket attached and no partial
// tail, and sends a frame only with nothing pending ahead of it; the held
// acks are older than anything pending. Bytes the socket refuses stay where
// they were: the acks held, the frame the caller's. A part taken leaves the
// rest as the partial tail, counted pending, and wakes the pump to finish it.
func (c *ReconnectClient) directLocked(frame []byte) bool {
	k := len(c.heldAt)
	buf := frame
	if k > 0 {
		buf = append(c.held, frame...)
	}
	frames := k
	if frame != nil {
		frames++
	}
	n, err := c.raw.write(buf)
	if err != nil || n <= 0 {
		if k > 0 {
			c.held = buf[:len(c.held)]
		}
		return false
	}
	c.directs.Add(uint64(frames))
	if n < len(buf) {
		c.partial, c.partialOff, c.partialN, c.partialAt = buf, n, frames, time.Now()
		if k > 0 {
			// The tail owns the held buffer's bytes now.
			c.held, c.heldAt = nil, c.heldAt[:0]
		}
		c.pending.Add(1)
		c.kickPump()
		return true
	}
	c.sent.Add(uint64(frames))
	c.mu.Lock()
	if k > 0 {
		c.observeHeldLocked(time.Now())
		c.held, c.heldAt = buf[:0], c.heldAt[:0]
	}
	if frame != nil {
		c.sendLat.observe(0)
	}
	if frames > 1 {
		c.batchesSent.Add(1)
		c.batchSizes.observe(frames)
	}
	c.mu.Unlock()
	return true
}

// observeHeldLocked records the send latency of every held ack, written at
// now; the caller holds mu and wmu.
func (c *ReconnectClient) observeHeldLocked(now time.Time) {
	for _, at := range c.heldAt {
		c.sendLat.observe(now.Sub(at))
	}
}

// writeHeld hands the held acks to the pump's buffered writer and reports
// how many it wrote; the caller holds wmu. On an error they stay held, for
// the next connection.
func (c *ReconnectClient) writeHeld(w io.Writer) (int, error) {
	k := len(c.heldAt)
	if k == 0 {
		return 0, nil
	}
	if _, err := w.Write(c.held); err != nil {
		return 0, err
	}
	c.sent.Add(uint64(k))
	c.mu.Lock()
	c.observeHeldLocked(time.Now())
	c.mu.Unlock()
	c.held, c.heldAt = c.held[:0], c.heldAt[:0]
	return k, nil
}

// kickPump wakes the pump to write what a sender could not: a partial
// write's tail, or held acks.
func (c *ReconnectClient) kickPump() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// finishPartial writes the tail a partial direct write left, blocking like
// the pump's other writes; the pump calls it with wmu held before anything
// else it writes, so the frames stay whole on the wire.
func (c *ReconnectClient) finishPartial(conn net.Conn) error {
	if c.partial == nil {
		return nil
	}
	tail, n, at := c.partial[c.partialOff:], c.partialN, c.partialAt
	c.partial = nil
	_, err := conn.Write(tail)
	c.pending.Add(-1)
	if err != nil {
		c.dropped.Add(uint64(n))
		return err
	}
	c.sent.Add(uint64(n))
	c.mu.Lock()
	c.sendLat.observeN(time.Since(at), n)
	c.mu.Unlock()
	return nil
}

// Connected reports whether the client currently holds a live connection.
func (c *ReconnectClient) Connected() bool { return c.connected.Load() }

// Stats returns a snapshot of the client's counters.
func (c *ReconnectClient) Stats() ClientStats {
	c.mu.Lock()
	lat := c.sendLat
	sizes := c.batchSizes
	c.mu.Unlock()
	return ClientStats{
		Enqueued:        c.enqueued.Load(),
		Direct:          c.directs.Load(),
		Sent:            c.sent.Load(),
		Dropped:         c.dropped.Load(),
		BatchesSent:     c.batchesSent.Load(),
		MsgsPerBatch:    sizes,
		Dials:           c.dials.Load(),
		Connects:        c.connects.Load(),
		HeartbeatsSent:  c.hbSent.Load(),
		HeartbeatsAcked: c.hbAcked.Load(),
		QueueLen:        len(c.queue),
		Connected:       c.connected.Load(),
		SendLatency:     lat,
	}
}

// Notify registers a connection-state listener and immediately invokes it
// with the current state; from then on it sees every change, in order.
// Listeners run on the client's connection goroutine (the first call on
// Notify's caller) with connection-state changes held off, so they must not
// block or call Notify.
func (c *ReconnectClient) Notify(f func(up bool)) {
	c.notifyMu.Lock()
	defer c.notifyMu.Unlock()
	c.listeners = append(c.listeners, f)
	f(c.connected.Load())
}

// Close stops the client. Messages still queued or held are counted as
// Dropped. After Close returns, Send fails with ErrClientClosed.
func (c *ReconnectClient) Close() error {
	c.once.Do(func() { close(c.done) })
	c.wg.Wait()
	// Excluding concurrent Sends during the drain guarantees every frame a
	// racing Send managed to enqueue or hold is still counted here.
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.wmu.Lock()
	c.dropped.Add(uint64(len(c.heldAt)))
	c.held, c.heldAt = nil, nil
	c.wmu.Unlock()
	for {
		select {
		case <-c.queue:
			c.pending.Add(-1)
			c.dropped.Add(1)
		default:
			return nil
		}
	}
}

func (c *ReconnectClient) setConnected(up bool) {
	c.notifyMu.Lock()
	defer c.notifyMu.Unlock()
	c.connected.Store(up)
	for _, f := range c.listeners {
		f(up)
	}
}

// nextBackoff advances the redial schedule after a failed dial: it returns
// the jittered delay to sleep now and the base backoff for the next failure.
// Factored out of run so tests can pin the schedule with an injected Jitter.
func (c *ReconnectClient) nextBackoff(cur time.Duration) (delay, next time.Duration) {
	delay = cur + time.Duration(float64(cur)*backoffJitter*c.cfg.Jitter())
	next = cur * backoffFactor
	if next > c.cfg.BackoffMax {
		next = c.cfg.BackoffMax
	}
	return delay, next
}

func (c *ReconnectClient) run() {
	defer c.wg.Done()
	backoff := c.cfg.BackoffMin
	for {
		select {
		case <-c.done:
			return
		default:
		}
		c.dials.Add(1)
		conn, err := c.cfg.Dial()
		if err != nil {
			delay, next := c.nextBackoff(backoff)
			select {
			case <-c.done:
				return
			case <-time.After(delay):
			}
			backoff = next
			continue
		}
		backoff = c.cfg.BackoffMin
		c.connects.Add(1)
		c.wmu.Lock()
		c.raw.attach(conn)
		// Acks held when the last connection died go out first on this one.
		if len(c.heldAt) > 0 && !(c.raw.attached() && c.directLocked(nil)) {
			c.kickPump()
		}
		c.wmu.Unlock()
		c.setConnected(true)
		c.pump(conn)
		c.setConnected(false)
	}
}

// pump drains the queue over one connection until it dies, Close is called,
// or heartbeats go unanswered. Every write it makes holds wmu and first
// finishes a partial direct write's tail. On the way out it detaches the
// socket from direct writes before closing it, and counts a tail it did not
// finish as Dropped.
func (c *ReconnectClient) pump(conn net.Conn) {
	w := newFrameWriter(conn)
	var lastPong atomic.Int64
	lastPong.Store(time.Now().UnixNano())
	readDead := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		// The read side only carries heartbeat pongs; any read error means
		// the connection is gone (detects remote close even without
		// heartbeats enabled).
		defer rwg.Done()
		defer close(readDead)
		r := bufio.NewReader(conn)
		for {
			body, err := readFrame(r)
			if err != nil {
				return
			}
			if m, err := DecodeMessage(body); err == nil &&
				m.Kind == KindControl && m.Key == heartbeatKey {
				c.hbAcked.Add(1)
				lastPong.Store(time.Now().UnixNano())
			}
		}
	}()
	defer func() {
		c.wmu.Lock()
		c.raw.detach()
		if c.partial != nil {
			c.partial = nil
			c.pending.Add(-1)
			c.dropped.Add(uint64(c.partialN))
		}
		c.wmu.Unlock()
		_ = conn.Close()
		rwg.Wait()
	}()

	var hb <-chan time.Time
	if c.cfg.Heartbeat > 0 {
		t := time.NewTicker(c.cfg.Heartbeat)
		defer t.Stop()
		hb = t.C
	}
	var hbSeq uint64

	bodies := make([][]byte, 0, maxCoalesce)
	ats := make([]time.Time, 0, maxCoalesce)
	// writeRun writes the held acks and then the drained frames behind one
	// another into the buffered writer and flushes once, so a run of small
	// frames costs one system call, and keeps the accounting exact: on a
	// write error the frames already handed to the writer count Sent, the
	// rest of the run counts Dropped — they were dequeued and will not be
	// retried on the next connection — and acks not handed over stay held.
	// The run may be empty: a kick only finishes a partial write or writes
	// held acks.
	writeRun := func() bool {
		c.wmu.Lock()
		defer c.wmu.Unlock()
		err := c.finishPartial(conn)
		acks := 0
		if err == nil {
			acks, err = c.writeHeld(w)
		}
		written := 0
		for err == nil && written < len(bodies) {
			if err = writeFrame(w, bodies[written]); err == nil {
				written++
			}
		}
		c.sent.Add(uint64(written))
		c.mu.Lock()
		if err == nil && acks+written > 1 {
			c.batchesSent.Add(1)
			c.batchSizes.observe(acks + written)
		}
		for _, at := range ats[:written] {
			c.sendLat.observe(time.Since(at))
		}
		c.mu.Unlock()
		if err == nil {
			err = w.Flush()
		}
		c.pending.Add(-int64(len(bodies)))
		if err != nil {
			c.dropped.Add(uint64(len(bodies) - written))
			return false
		}
		return true
	}

	for {
		select {
		case <-c.done:
			return
		case <-readDead:
			return
		case <-c.kick:
			bodies, ats = bodies[:0], ats[:0]
			if !writeRun() {
				return
			}
		case f := <-c.queue:
			// Drain whatever else is queued into one coalesced run — the
			// bulk path after a reconnection and under pipelined senders.
			bodies = append(bodies[:0], f.body)
			ats = append(ats[:0], f.at)
		drain:
			for len(bodies) < maxCoalesce {
				select {
				case f := <-c.queue:
					bodies = append(bodies, f.body)
					ats = append(ats, f.at)
				default:
					break drain
				}
			}
			if !writeRun() {
				return
			}
		case <-hb:
			miss := heartbeatMiss * c.cfg.Heartbeat
			if time.Since(time.Unix(0, lastPong.Load())) > miss {
				// Half-open connection: no pong for heartbeatMiss
				// intervals. Tear down and redial.
				return
			}
			hbSeq++
			var seq [8]byte
			binary.BigEndian.PutUint64(seq[:], hbSeq)
			ping, err := EncodeMessage(Message{Kind: KindControl, Key: heartbeatKey, Payload: seq[:]})
			if err != nil {
				return
			}
			c.wmu.Lock()
			err = c.finishPartial(conn)
			if err == nil {
				_, err = c.writeHeld(w)
			}
			if err == nil {
				err = writeFrame(w, ping)
			}
			if err == nil {
				err = w.Flush()
			}
			c.wmu.Unlock()
			if err != nil {
				return
			}
			c.hbSent.Add(1)
		}
	}
}

// maxCoalesce bounds how many frames the pump drains into one flush. It caps
// per-run latency and the transient [][]byte scratch, while staying far above
// the in-flight window any one sender sustains.
const maxCoalesce = 256

// sizeHistBuckets is the number of power-of-two batch-size buckets: bucket b
// counts batches of 2^b .. 2^(b+1)-1 frames.
const sizeHistBuckets = 16

// SizeHist is a small power-of-two histogram of batch sizes (frames per
// write of two or more) — the MsgsPerBatch summary of the
// conserved-stats layer. It is a plain value; owners mutate it under their
// own lock and expose copies in stats snapshots.
type SizeHist struct {
	Count   uint64
	Sum     uint64
	Min     uint64
	Max     uint64
	Buckets [sizeHistBuckets]uint64
}

// observe records one batch of n frames.
func (h *SizeHist) observe(n int) {
	if n <= 0 {
		return
	}
	u := uint64(n)
	if h.Count == 0 || u < h.Min {
		h.Min = u
	}
	if u > h.Max {
		h.Max = u
	}
	h.Count++
	h.Sum += u
	b := bits.Len64(u) - 1
	if b >= sizeHistBuckets {
		b = sizeHistBuckets - 1
	}
	h.Buckets[b]++
}

// Mean returns the mean batch size, or 0 when no batches were observed.
func (h SizeHist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}
