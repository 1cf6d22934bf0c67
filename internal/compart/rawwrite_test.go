//go:build unix

package compart

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tcpClient connects a client to a fresh loopback peer and returns both once
// the client is up. sndbuf > 0 shrinks the client socket's send buffer, for
// a test that needs one write far larger than the socket takes; heavy
// traffic through shrunk buffers can stall loopback TCP for seconds, with or
// without direct writes. The client dials once: a connection that dies stays
// dead.
func tcpClient(t *testing.T, sndbuf int, cfg ReconnectConfig) (*ReconnectClient, *net.TCPConn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	if sndbuf > 0 {
		if err := conn.(*net.TCPConn).SetWriteBuffer(sndbuf); err != nil {
			t.Fatal(err)
		}
	}
	cfg.BackoffMin = time.Hour
	cfg.Dial = dialConn(conn)
	c := DialReconnect("", cfg)
	waitFor(t, 2*time.Second, "the client to connect", c.Connected)
	return c, peer.(*net.TCPConn)
}

// orderMsg is sender s's i-th frame: 1 B to ~20 KiB of payload that spells
// both numbers, so a frame torn, duplicated or misplaced cannot pass for
// another. Every third frame is an ack, every other one of those flagged.
func orderMsg(s, i int) Message {
	p := make([]byte, 1+(s*7919+i*104729)%20000)
	for j := range p {
		p[j] = byte(s + 3*i + j)
	}
	m := Message{From: fmt.Sprintf("sender%d", s), To: "sink", Kind: KindData, Key: fmt.Sprint(i), Payload: p}
	if i%3 == 1 {
		m.Kind, m.Flag = KindAck, i%2 == 0
	}
	return m
}

// TestDirectAndQueuedFramesKeepOrder: concurrent senders share a TCP
// connection whose peer stops reading for a while, so their frames leave
// every way — finished by the sender's own write while the socket is idle, a
// flagged ack carried by another sender's write or written by its own sender
// after it yields; left behind EAGAIN, a partial write or the pump's write
// in progress, and finished by the pump — and the peer then drains
// everything. Every frame must arrive exactly once, byte for byte, in its
// sender's order, and the client's ledger must balance (closeDrained waits
// for QueueLen 0).
func TestDirectAndQueuedFramesKeepOrder(t *testing.T) {
	const senders, before, during, after = 4, 40, 150, 40
	const perSender = before + during + after
	const total = senders * perSender
	c, peer := tcpClient(t, 0, ReconnectConfig{QueueSize: total})

	var pause sync.Mutex // held while the peer must not read
	got := make(chan error, 1)
	go func() {
		r := bufio.NewReader(peer)
		var next [senders]int
		for seen := 0; seen < total; {
			pause.Lock()
			pause.Unlock()
			_ = peer.SetReadDeadline(time.Now().Add(10 * time.Second))
			msgs, err := readMessages(r, 1)
			if err != nil {
				got <- fmt.Errorf("after %d messages: %w", seen, err)
				return
			}
			for _, m := range msgs {
				var s int
				if _, err := fmt.Sscanf(m.From, "sender%d", &s); err != nil || s < 0 || s >= senders {
					got <- fmt.Errorf("message %d from %q", seen, m.From)
					return
				}
				want := orderMsg(s, next[s])
				if m.Key != want.Key || m.To != want.To || m.Kind != want.Kind || m.Flag != want.Flag || !bytes.Equal(m.Payload, want.Payload) {
					got <- fmt.Errorf("sender %d: got frame %s (%d B), want frame %s (%d B)", s, m.Key, len(m.Payload), want.Key, len(want.Payload))
					return
				}
				next[s]++
				seen++
			}
		}
		got <- nil
	}()

	phase := func(from, to int) {
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := from; i < to; i++ {
					if err := c.Send(orderMsg(s, i)); err != nil {
						t.Errorf("sender %d frame %d: %v", s, i, err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
	}
	phase(0, before)
	pause.Lock()
	phase(before, before+during) // ~6 MB against a few hundred KB of socket buffers
	pause.Unlock()
	phase(before+during, perSender)

	closeDrained(t, c)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Enqueued != total || st.Sent != total || st.Dropped != 0 {
		t.Fatalf("client ledger: %+v", st)
	}
	if st.Direct == 0 || st.Direct == st.Enqueued {
		t.Fatalf("%d of %d frames written directly: both paths must have run", st.Direct, st.Enqueued)
	}
	if st.BatchesSent == 0 {
		t.Fatalf("no write carried two frames: %+v", st)
	}
}

// heldAck appends an ack to c's outbound buffer without writing it, as a
// flagged ack's sender does before it yields.
func heldAck(t *testing.T, c *ReconnectClient, key string) Message {
	t.Helper()
	m := Message{From: "B::j", To: "A::j", Kind: KindAck, Key: key, Flag: true, Payload: make([]byte, 8)}
	c.mu.Lock()
	err := c.appendLocked(&m, false)
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// markWriting sets or clears c's write-in-progress mark, as the pump does
// around its write; clearing it wakes the pump, as the end of its write
// would have it look again.
func markWriting(c *ReconnectClient, on bool) {
	c.mu.Lock()
	c.writing = on
	c.mu.Unlock()
	if !on {
		c.kickPump()
	}
}

// TestHeldAckSurvivesReconnection: acks still held when their connection
// dies are written first on the next connection — unprompted, and ahead of a
// frame queued while the client was down — and each is counted Sent once.
func TestHeldAckSurvivesReconnection(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conns := make(chan net.Conn, 3)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conns <- conn
		}
	}()
	accept := func() net.Conn {
		t.Helper()
		select {
		case conn := <-conns:
			t.Cleanup(func() { conn.Close() })
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			return conn
		case <-time.After(5 * time.Second):
			t.Fatal("the client did not connect")
			return nil
		}
	}
	read := func(conn net.Conn, groups ...[]Message) {
		t.Helper()
		n := 0
		for _, g := range groups {
			n += len(g)
		}
		msgs, err := readMessages(conn, n)
		if err != nil {
			t.Fatalf("after %d messages: %v", len(msgs), err)
		}
		keys := make([]string, len(msgs))
		for i, m := range msgs {
			keys[i] = m.Key
		}
		wantKeys(t, keys, groups...)
	}
	// The third dial waits for release, so a frame can be sent while the
	// client is down.
	var dials atomic.Int32
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	c := DialReconnect("", ReconnectConfig{Dial: func() (net.Conn, error) {
		if dials.Add(1) == 3 {
			<-release
		}
		return net.Dial("tcp", l.Addr().String())
	}})
	defer c.Close()
	defer unblock()
	first := accept()
	waitFor(t, 5*time.Second, "the client to connect", c.Connected)

	acks := []Message{heldAck(t, c, "a1"), heldAck(t, c, "a2")}
	first.Close()
	second := accept()
	read(second, acks)

	// A pump still writing a1 and a2 would take an ack appended now with
	// them; once the buffer is empty it writes again only when woken.
	waitFor(t, 5*time.Second, "the client to reconnect and drain", func() bool {
		return c.Connected() && c.Stats().QueueLen == 0
	})
	acks = []Message{heldAck(t, c, "a3")}
	second.Close()
	waitFor(t, 5*time.Second, "the client to see the connection die", func() bool { return !c.Connected() })
	data := []Message{{From: "A::j", To: "B::j", Kind: KindData, Key: "d", Payload: []byte("x")}}
	if err := c.Send(data[0]); err != nil {
		t.Fatal(err)
	}
	unblock()
	read(accept(), acks, data)

	closeDrained(t, c)
	if st := c.Stats(); st.Enqueued != 4 || st.Sent != 4 || st.Dropped != 0 || st.Connects != 3 || st.SendLatency.Count != 4 {
		t.Fatalf("client ledger: %+v", st)
	}
}

// TestQueuedFrameFollowsHeldAcks: a frame sent while acks sit unwritten in
// the buffer and a write is in progress is appended behind them, and the
// pump writes them ahead of it, in one write.
func TestQueuedFrameFollowsHeldAcks(t *testing.T) {
	c, peer := tcpClient(t, 0, ReconnectConfig{})
	acks := []Message{heldAck(t, c, "a1"), heldAck(t, c, "a2")}
	data := []Message{{From: "A::j", To: "B::j", Kind: KindData, Key: "d", Payload: []byte("x")}}
	markWriting(c, true)
	err := c.Send(data[0])
	markWriting(c, false)
	if err != nil {
		t.Fatal(err)
	}
	_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	msgs, err := readMessages(bufio.NewReader(peer), len(acks)+len(data))
	if err != nil {
		t.Fatalf("after %d messages: %v", len(msgs), err)
	}
	keys := make([]string, len(msgs))
	for i, m := range msgs {
		keys[i] = m.Key
	}
	wantKeys(t, keys, acks, data)
	closeDrained(t, c)
	if st := c.Stats(); st.Enqueued != 3 || st.Sent != 3 || st.Direct != 0 || st.BatchesSent != 1 || st.MsgsPerBatch.Max != 3 {
		t.Fatalf("client ledger: %+v", st)
	}
}

// TestCloseDropsHeldAcks: an ack written at once leaves the queue empty;
// acks still unwritten when the client closes are counted Dropped, so
// Enqueued == Sent + Dropped still holds.
func TestCloseDropsHeldAcks(t *testing.T) {
	c, _ := tcpClient(t, 0, ReconnectConfig{})
	if err := c.Send(Message{To: "sink", Kind: KindAck, Payload: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.QueueLen != 0 {
		t.Fatalf("a drained client: %+v", st)
	}
	heldAck(t, c, "a1")
	heldAck(t, c, "a2")
	if st := c.Stats(); st.QueueLen != 2 {
		t.Fatalf("two acks unwritten: %+v", st)
	}
	c.Close()
	if st := c.Stats(); st.Enqueued != 3 || st.Sent != 1 || st.Dropped != 2 || st.Direct != 1 || st.QueueLen != 0 {
		t.Fatalf("client ledger: %+v", st)
	}
	if err := c.Send(Message{To: "sink", Kind: KindAck, Payload: make([]byte, 8)}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("an ack sent after Close: %v", err)
	}
}

// TestSendNeverBlocksOnStalledPeer: the peer accepts and never reads. Sends
// of 64 KiB frames fill its socket and then the queue, and each must return
// at once — a direct write may take part of a frame, never wait for room.
// Close returns once the peer goes away, and the ledger balances.
func TestSendNeverBlocksOnStalledPeer(t *testing.T) {
	c, peer := tcpClient(t, 0, ReconnectConfig{QueueSize: 32})
	payload := make([]byte, 64<<10)
	accepted := 0
	for i := 0; ; i++ {
		if i == 10000 {
			t.Fatal("the queue never filled")
		}
		start := time.Now()
		err := c.Send(Message{To: "sink", Key: "k", Payload: payload})
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("send %d took %v", i, d)
		}
		if errors.Is(err, ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		accepted++
	}
	if st := c.Stats(); st.Direct == 0 {
		t.Fatalf("no frame written directly: %+v", st)
	}
	// The pump is stuck writing into the full socket until the peer leaves.
	peer.Close()
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	st := c.Stats()
	if st.Enqueued != uint64(accepted) || st.Sent+st.Dropped != st.Enqueued+1 {
		t.Fatalf("ledger after %d accepted sends and one rejected: %+v", accepted, st)
	}
}

// TestPartialDirectWriteCompletes: on an idle connection a group message is
// written by its sender, whole, as one message and no batch; a frame far
// larger than the socket's buffers gets only its head out from the sender,
// and the pump writes the tail before the frames another goroutine sent
// meanwhile, which wait behind it. The peer must read every frame intact,
// the large one before the small ones. Direct counts only the group: the
// pump wrote the large frame's last byte.
func TestPartialDirectWriteCompletes(t *testing.T) {
	c, peer := tcpClient(t, 16<<10, ReconnectConfig{})

	group := []Message{groupMsg("g", 3)}
	if err := c.Send(group[0]); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Direct != 1 || st.Sent != 1 || st.BatchesSent != 0 || st.SendLatency.Count != 1 {
		t.Fatalf("a directly written group: %+v", st)
	}

	big := Message{From: "src", To: "sink", Kind: KindData, Key: "big", Payload: make([]byte, 1<<20)}
	for i := range big.Payload {
		big.Payload[i] = byte(i * 13)
	}
	if err := c.Send(big); err != nil {
		t.Fatal(err)
	}
	// The peer reads nothing yet, so the tail cannot have gone out.
	if st := c.Stats(); st.Direct != 1 || st.Sent != 1 {
		t.Fatalf("after the large frame: %+v", st)
	}

	small := keyed("s", 10)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, m := range small {
			if err := c.Send(m); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	if st := c.Stats(); st.Direct != 1 || st.Sent != 1 {
		t.Fatalf("a small frame was written ahead of the large frame's tail: %+v", st)
	}

	_ = peer.SetReadDeadline(time.Now().Add(10 * time.Second))
	msgs, err := readMessages(bufio.NewReader(peer), len(group)+1+len(small))
	if err != nil {
		t.Fatalf("after %d messages: %v", len(msgs), err)
	}
	keys := make([]string, len(msgs))
	for i, m := range msgs {
		keys[i] = m.Key
	}
	wantKeys(t, keys, group, []Message{big}, small)
	if m := msgs[len(group)]; !bytes.Equal(m.Payload, big.Payload) {
		t.Fatalf("the large frame arrived with %d B of payload, not the %d B sent", len(m.Payload), len(big.Payload))
	}

	closeDrained(t, c)
	st := c.Stats()
	if st.Enqueued != 12 || st.Sent != 12 || st.Dropped != 0 || st.Direct != 1 || st.SendLatency.Count != 12 {
		t.Fatalf("client ledger: %+v", st)
	}
}

// TestCutFrameIsWrittenWholeOnTheNextConnection: a connection dies with only
// the head of a 4 MiB frame taken — the peer reads 1 KiB and closes — and a
// second frame is sent while the client is down. The next connection
// carries the large frame again, whole and byte for byte, then the second
// frame; each is counted Sent once and neither Dropped.
func TestCutFrameIsWrittenWholeOnTheNextConnection(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conns := make(chan net.Conn, 2)
	go func() {
		for first := true; ; first = false {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if first {
				_ = conn.(*net.TCPConn).SetReadBuffer(16 << 10)
			}
			conns <- conn
		}
	}()
	accept := func() net.Conn {
		t.Helper()
		select {
		case conn := <-conns:
			t.Cleanup(func() { conn.Close() })
			_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			return conn
		case <-time.After(5 * time.Second):
			t.Fatal("the client did not connect")
			return nil
		}
	}
	// The first connection's send buffer is shrunk; the second dial waits
	// for release, so the second frame is sent while the client is down.
	var dials atomic.Int32
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	c := DialReconnect("", ReconnectConfig{Dial: func() (net.Conn, error) {
		n := dials.Add(1)
		if n == 2 {
			<-release
		}
		conn, err := net.Dial("tcp", l.Addr().String())
		if err == nil && n == 1 {
			_ = conn.(*net.TCPConn).SetWriteBuffer(16 << 10)
		}
		return conn, err
	}})
	defer c.Close()
	defer unblock()
	first := accept()
	waitFor(t, 5*time.Second, "the client to connect", c.Connected)

	big := Message{From: "A::j", To: "B::j", Kind: KindControl, Key: "big", Payload: make([]byte, 4<<20)}
	for i := range big.Payload {
		big.Payload[i] = byte(i * 13)
	}
	if err := c.Send(big); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(first, make([]byte, 1<<10)); err != nil {
		t.Fatal(err)
	}
	first.Close()
	waitFor(t, 5*time.Second, "the client to see the connection die", func() bool { return !c.Connected() })
	if st := c.Stats(); st.Sent != 0 || st.Dropped != 0 || st.QueueLen != 1 {
		t.Fatalf("the cut frame after its connection died: %+v", st)
	}
	small := Message{From: "A::j", To: "B::j", Kind: KindData, Key: "small", Payload: []byte("x")}
	if err := c.Send(small); err != nil {
		t.Fatal(err)
	}
	unblock()

	msgs, err := readMessages(bufio.NewReader(accept()), 2)
	if err != nil {
		t.Fatalf("after %d messages: %v", len(msgs), err)
	}
	keys := []string{msgs[0].Key, msgs[1].Key}
	wantKeys(t, keys, []Message{big, small})
	if !bytes.Equal(msgs[0].Payload, big.Payload) {
		t.Fatalf("the cut frame arrived with %d B of payload, not the %d B sent", len(msgs[0].Payload), len(big.Payload))
	}
	closeDrained(t, c)
	if st := c.Stats(); st.Enqueued != 2 || st.Sent != 2 || st.Dropped != 0 || st.Connects != 2 {
		t.Fatalf("client ledger: %+v", st)
	}
}
