package compart

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The reconnecting client makes the cross-machine substrate survive the
// failures the paper's evaluation injects (§7.3 fail-over, Fig 23a): a
// remote server crash or partition no longer kills the sender permanently.
// Instead the client transparently redials with exponential backoff plus
// jitter, buffers outbound messages in one bounded outbound buffer while
// disconnected (overflow is counted as dropped, never lost silently), and
// optionally
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
	// keepOut is the most outbound buffer capacity a drained client keeps;
	// a larger buffer, grown by a backlog or a migration's state blob, is
	// released.
	keepOut = 64 << 10
)

// ReconnectConfig tunes DialReconnect. The zero value gives usable
// defaults; Heartbeat is opt-in.
type ReconnectConfig struct {
	// QueueSize bounds the outbound queue: the frames accepted and not yet
	// wholly written (default 1024). Messages sent while disconnected wait
	// here; overflow fails with ErrQueueFull and counts as Dropped.
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
// (written to a socket) or Dropped (still unwritten at Close).
type ClientStats struct {
	// Enqueued counts messages accepted into the outbound buffer.
	Enqueued uint64
	// Direct counts the messages whose last byte a sending goroutine's own
	// write put on the socket, rather than the connection goroutine's. Always
	// 0 over connections without a file descriptor (net.Pipe), which only the
	// connection goroutine writes.
	Direct uint64
	// Sent counts frames written to a socket (handed to the OS; TCP may
	// still lose them on a crash, which heartbeats surface as a reconnect).
	Sent uint64
	// Dropped counts messages rejected on a full queue or abandoned unwritten
	// at Close. A frame a dying connection took only part of is not dropped:
	// it is written again, whole, on the next connection.
	Dropped uint64
	// BatchesSent counts the writes that finished two or more frames: a
	// backlog the connection goroutine wrote at once, or an ack and the frame
	// behind it. Every frame is one message — a KindGroup message is one
	// however many updates it holds — so Enqueued, Sent and Dropped count
	// frames, and batching never perturbs the Enqueued == Sent + Dropped
	// conservation invariant.
	BatchesSent uint64
	// MsgsPerBatch summarizes batch sizes (frames finished per write counted
	// in BatchesSent).
	MsgsPerBatch SizeHist
	// Dials counts dial attempts; Connects counts the successful ones, so
	// Connects-1 is the number of reconnections and Dials-Connects the
	// failed attempts backed off from.
	Dials    uint64
	Connects uint64
	// HeartbeatsSent / HeartbeatsAcked count pings written and pongs seen.
	HeartbeatsSent  uint64
	HeartbeatsAcked uint64
	// QueueLen is the number of frames accepted and not yet wholly written.
	QueueLen int
	// Connected reports current connection state.
	Connected bool
	// SendLatency summarizes accept-to-last-byte-written latency, which
	// spikes during disconnections and so exposes queueing delay to
	// experiments.
	SendLatency LatencySummary
}

// outFrame is one frame in the outbound buffer: its size on the wire, when
// it was accepted, and whether it is a heartbeat, which the message counters
// do not see.
type outFrame struct {
	size      int
	at        time.Time
	heartbeat bool
}

// ReconnectClient is a self-healing sender to a remote compart server. It
// is safe for concurrent use; Send never blocks on the network.
type ReconnectClient struct {
	cfg  ReconnectConfig
	done chan struct{}
	kick chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	// mu guards the one outbound buffer and the counters after it. out holds
	// the encoded frames accepted and not yet wholly written, in acceptance
	// order, with one entry in frames each; the live connection has taken the
	// first head bytes. Every write takes out[head:]: a sender's one
	// non-blocking write(2) through raw, made under mu while writing is clear,
	// or the pump's blocking write, made with writing set and mu released, so
	// senders append behind it meanwhile and nothing rewrites the bytes it
	// writes. A frame leaves the buffer once its last byte is written; when a
	// connection dies head returns to 0, so a frame it took only part of goes
	// out whole on the next one.
	mu      sync.Mutex
	out     []byte
	frames  []outFrame
	head    int
	writing bool
	raw     rawWriter
	stats   ClientStats

	dials, connects atomic.Uint64
	hbAcked         atomic.Uint64
	connected       atomic.Bool

	// notifyMu orders connection-state changes with listener registration:
	// setConnected holds it across its store and its listener calls, Notify
	// across its append and its first call, so a listener sees every state
	// exactly once and in order, its first call included.
	notifyMu  sync.Mutex
	listeners []func(up bool)
}

// DialReconnect returns a client that maintains a connection to addr in the
// background: it connects, reconnects with exponential backoff and jitter
// after any failure, and drains the outbound buffer whenever connected. It
// never fails at construction — the first dial happens asynchronously.
func DialReconnect(addr string, cfg ReconnectConfig) *ReconnectClient {
	cfg.fill(addr)
	c := &ReconnectClient{
		cfg:  cfg,
		done: make(chan struct{}),
		kick: make(chan struct{}, 1),
	}
	c.wg.Add(1)
	go c.run()
	return c
}

// Send frames the message into the outbound buffer and, when the connection
// is up and the connection goroutine is not writing, writes what the buffer
// holds with one non-blocking write(2) from the calling goroutine; whatever
// that leaves, the connection goroutine writes. Either way Send never blocks
// on the network. It fails with ErrClientClosed after Close, ErrQueueFull
// (counted Dropped) when QueueSize frames are already unwritten, and
// ErrFieldTooLong/ErrFrameTooLarge on unframeable messages, counting
// neither. A nil error means the message was accepted, not that the remote
// received it — delivery confirmation stays an application concern (the
// runtime's acks).
//
// A KindAck message with Flag set says a frame back is likely to follow, so
// its sender yields the processor once before it writes: a frame another
// goroutine sends meanwhile carries the ack in its own write.
func (c *ReconnectClient) Send(msg Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.appendLocked(&msg, false); err != nil {
		return err
	}
	if msg.Kind == KindAck && msg.Flag && c.raw.attached() && !c.writing {
		c.mu.Unlock()
		runtime.Gosched()
		c.mu.Lock()
	}
	c.writeLocked()
	return nil
}

// appendLocked appends m's frame to the outbound buffer without writing it.
// A heartbeat is appended even past QueueSize and counted by no message
// counter.
func (c *ReconnectClient) appendLocked(m *Message, heartbeat bool) error {
	select {
	case <-c.done:
		return ErrClientClosed
	default:
	}
	if !heartbeat && len(c.frames) >= c.cfg.QueueSize {
		c.stats.Dropped++
		return ErrQueueFull
	}
	n := len(c.out)
	if size := frameSize(m); size <= maxFrame {
		c.out = slices.Grow(c.out, 4+size)
	}
	out, err := appendFrame(c.out, m)
	if err != nil {
		return err
	}
	c.out = out
	c.frames = append(c.frames, outFrame{size: len(out) - n, at: time.Now(), heartbeat: heartbeat})
	if !heartbeat {
		c.stats.Enqueued++
	}
	return nil
}

// writeLocked is a sender's write: one non-blocking write(2) of out[head:]
// when the socket has a raw handle and the pump is not writing. It wakes the
// pump for whatever it leaves; a writing pump takes it without being woken.
func (c *ReconnectClient) writeLocked() {
	if c.writing || c.head == len(c.out) {
		return
	}
	if c.raw.attached() {
		if n, err := c.raw.write(c.out[c.head:]); err == nil {
			c.head += n
			c.retireLocked(true)
		}
	}
	if c.head < len(c.out) {
		c.kickPump()
	}
}

// kickPump wakes the pump to write what the buffer holds.
func (c *ReconnectClient) kickPump() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// retireLocked removes the frames whose last byte has been written from the
// front of the outbound buffer and counts them; direct says a sender's write
// finished them. A drained buffer grown past keepOut is released.
func (c *ReconnectClient) retireLocked(direct bool) {
	now := time.Now()
	written, i, msgs := 0, 0, 0
	for ; i < len(c.frames) && written+c.frames[i].size <= c.head; i++ {
		f := c.frames[i]
		written += f.size
		if f.heartbeat {
			c.stats.HeartbeatsSent++
			continue
		}
		msgs++
		c.stats.SendLatency.observe(now.Sub(f.at))
	}
	if i == 0 {
		return
	}
	c.stats.Sent += uint64(msgs)
	if direct {
		c.stats.Direct += uint64(msgs)
	}
	if msgs > 1 {
		c.stats.BatchesSent++
		c.stats.MsgsPerBatch.observe(msgs)
	}
	c.head -= written
	c.out = c.out[:copy(c.out, c.out[written:])]
	c.frames = c.frames[:copy(c.frames, c.frames[i:])]
	if len(c.out) == 0 && cap(c.out) > keepOut {
		c.out = nil
	}
}

// Connected reports whether the client currently holds a live connection.
func (c *ReconnectClient) Connected() bool { return c.connected.Load() }

// Stats returns a snapshot of the client's counters.
func (c *ReconnectClient) Stats() ClientStats {
	c.mu.Lock()
	st := c.stats
	st.QueueLen = len(c.frames)
	c.mu.Unlock()
	st.Dials = c.dials.Load()
	st.Connects = c.connects.Load()
	st.HeartbeatsAcked = c.hbAcked.Load()
	st.Connected = c.connected.Load()
	return st
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

// Close stops the client. Messages still unwritten are counted as Dropped.
// After Close returns, Send fails with ErrClientClosed.
func (c *ReconnectClient) Close() error {
	c.once.Do(func() { close(c.done) })
	c.wg.Wait()
	// Sends check done under mu, so none appends after this drain.
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.frames {
		if !f.heartbeat {
			c.stats.Dropped++
		}
	}
	c.out, c.frames, c.head = nil, nil, 0
	return nil
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
		c.mu.Lock()
		c.raw.attach(conn)
		if len(c.out) > 0 {
			c.kickPump()
		}
		c.mu.Unlock()
		c.setConnected(true)
		c.pump(conn)
		c.setConnected(false)
	}
}

// pump writes the outbound buffer over one connection until it dies, Close
// is called, or heartbeats go unanswered. It writes when woken: by run for
// what the buffer holds at connection, by a sender for what its write left,
// by its heartbeat ticker for the ping. On the way out it detaches the
// socket from senders' writes before closing it, and rewinds head so the
// next connection starts at the first frame not wholly written.
func (c *ReconnectClient) pump(conn net.Conn) {
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
		fr := newFrameReader(conn)
		si := make(strIntern)
		for {
			body, err := fr.next()
			if err != nil {
				return
			}
			var m Message
			if decodeMessageIn(&m, body, si, true) == nil &&
				m.Kind == KindControl && m.Key == heartbeatKey {
				c.hbAcked.Add(1)
				lastPong.Store(time.Now().UnixNano())
			}
		}
	}()
	defer func() {
		c.mu.Lock()
		c.raw.detach()
		c.head = 0
		c.mu.Unlock()
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
	for {
		select {
		case <-c.done:
			return
		case <-readDead:
			return
		case <-c.kick:
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
			c.mu.Lock()
			_ = c.appendLocked(&Message{Kind: KindControl, Key: heartbeatKey, Payload: seq[:]}, true)
			c.mu.Unlock()
		}
		if c.flush(conn) != nil {
			return
		}
	}
}

// flush writes out[head:] to conn until the buffer is empty. Each write
// blocks with writing set and mu released, so senders append behind it and
// the next round takes what they appended.
func (c *ReconnectClient) flush(conn net.Conn) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.head < len(c.out) {
		buf := c.out[c.head:]
		c.writing = true
		c.mu.Unlock()
		n, err := conn.Write(buf)
		c.mu.Lock()
		c.writing = false
		c.head += n
		c.retireLocked(false)
		if err != nil {
			return err
		}
	}
	return nil
}

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
