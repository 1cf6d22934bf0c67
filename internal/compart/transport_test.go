package compart

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestEncodeRejectsOversizedFields pins the appendStr truncation fix:
// fields whose length does not fit the uint16 wire encoding must be
// rejected, not silently truncated into undecodable frames.
func TestEncodeRejectsOversizedFields(t *testing.T) {
	big := strings.Repeat("x", maxFieldLen+1)
	for _, m := range []Message{
		{From: big},
		{To: big},
		{Key: big},
	} {
		if _, err := EncodeMessage(m); !errors.Is(err, ErrFieldTooLong) {
			t.Fatalf("oversized field accepted: %v", err)
		}
	}
	// Exactly at the limit is fine.
	edge := strings.Repeat("x", maxFieldLen)
	frame, err := EncodeMessage(Message{From: edge, To: edge, Key: edge})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(frame)
	if err != nil || got.From != edge || got.To != edge || got.Key != edge {
		t.Fatalf("boundary-length round trip failed: %v", err)
	}
}

// TestSendRejectsOversizedFrame pins the send-side maxFrame enforcement: a
// frame the receiver is guaranteed to reject must fail with
// ErrFrameTooLarge before any bytes hit the socket (previously the
// receiver killed the whole connection).
func TestSendRejectsOversizedFrame(t *testing.T) {
	if _, err := EncodeMessage(Message{Payload: make([]byte, maxFrame)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame accepted by codec: %v", err)
	}

	remote := newTestNetwork(t, 1)
	got := make(chan Message, 1)
	remote.Register("sink", func(m Message) { got <- kept(m) })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(remote, l)
	defer srv.Close()
	client := DialReconnect(srv.Addr().String(), ReconnectConfig{})
	defer client.Close()

	if err := client.Send(Message{To: "sink", Payload: make([]byte, maxFrame)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("client accepted oversized frame: %v", err)
	}
	// The connection survived the rejected send.
	if err := client.Send(Message{To: "sink", Key: "after"}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Key != "after" {
			t.Fatalf("received %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("connection did not survive rejected oversized send")
	}
	if cs := client.Stats(); cs.Connects != 1 || cs.Enqueued != 1 || cs.Dropped != 0 {
		t.Fatalf("rejected send touched the connection or the ledger: %+v", cs)
	}
}

// TestServerCountsDecodeErrorsAndKeepsDraining pins the serveConn fix: a
// well-framed but undecodable body is counted and skipped; later frames on
// the same connection still arrive (the outer length prefix keeps the
// stream in sync).
func TestServerCountsDecodeErrorsAndKeepsDraining(t *testing.T) {
	remote := newTestNetwork(t, 1)
	got := make(chan Message, 1)
	remote.Register("sink", func(m Message) { got <- kept(m) })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(remote, l)
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A 1-byte body is a valid frame but an undecodable message.
	if err := writeFrame(conn, []byte{0xff}); err != nil {
		t.Fatal(err)
	}
	good, err := EncodeMessage(Message{To: "sink", Key: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, good); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Key != "ok" {
			t.Fatalf("received %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("frame after decode error not drained")
	}
	st := srv.Stats()
	if st.DecodeErrors != 1 {
		t.Fatalf("DecodeErrors = %d, want 1 (stats %+v)", st.DecodeErrors, st)
	}
	if st.Frames != 1 || st.Conns != 1 {
		t.Fatalf("server stats = %+v", st)
	}
}

// TestServerInternsAckAddresses: a connection decodes a frame's From/To/Key
// through its intern table and reads the frame in place, so a repeated ack
// frame costs the server no allocation after the first, as the same frame
// with From and Key empty costs none.
func TestServerInternsAckAddresses(t *testing.T) {
	remote := newTestNetwork(t, 1)
	got := make(chan struct{}, 1)
	remote.Register("A::Fnt", func(Message) { got <- struct{}{} })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(remote, l)
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	allocs := func(m Message) float64 {
		frame, err := appendFrame(nil, &m)
		if err != nil {
			t.Fatal(err)
		}
		deliver := func() {
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			<-got
		}
		deliver() // first sight
		return testing.AllocsPerRun(100, deliver)
	}
	payload := make([]byte, 16)
	bare := allocs(Message{To: "A::Fnt", Kind: KindControl, Payload: payload})
	ack := allocs(Message{From: "B::Bck1", To: "A::Fnt", Kind: KindAck, Key: "ack", Payload: payload})
	if ack != 0 || bare != 0 {
		t.Fatalf("a repeated ack frame costs %v allocations, one without From and Key %v: want 0 each", ack, bare)
	}
}

// TestAcksReadTogetherResumeSendersInOrder pins the server's yield between
// acks: at one P, two acks the server reads in one go wake the goroutines
// they complete in the order they were acknowledged. Without the yield the
// goroutine readied last runs first, so two senders in lockstep swap places
// every round and their latencies alternate between a short and a long one.
// The race detector sometimes skips the run-next slot, so the check counts
// rounds in order rather than requiring every one.
func TestAcksReadTogetherResumeSendersInOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	remote := newTestNetwork(t, 1)
	var wake [2]chan struct{}
	var frames []byte
	for i, to := range []string{"A::s0", "A::s1"} {
		ch := make(chan struct{}, 1)
		wake[i] = ch
		remote.Register(to, func(Message) { ch <- struct{}{} })
		var err error
		if frames, err = appendFrame(frames, &Message{From: "B::sink", To: to, Kind: KindAck, Payload: make([]byte, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(remote, l)
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const rounds = 200
	inOrder := 0
	for r := 0; r < rounds; r++ {
		resumed := make(chan int, 2)
		for i := range wake {
			go func() {
				<-wake[i]
				resumed <- i
			}()
		}
		runtime.Gosched() // both waiters park on their channels
		if _, err := conn.Write(frames); err != nil {
			t.Fatal(err)
		}
		if first := <-resumed; first == 0 {
			inOrder++
		}
		<-resumed
	}
	if inOrder < rounds*9/10 {
		t.Fatalf("the first-acknowledged waiter ran first in %d of %d rounds", inOrder, rounds)
	}
}

// TestServerAnswersHeartbeats checks the transport-level ping/pong that
// reconnecting clients use for liveness: the server echoes heartbeat frames
// on the same connection and never injects them into the network.
func TestServerAnswersHeartbeats(t *testing.T) {
	remote := newTestNetwork(t, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(remote, l)
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ping, err := EncodeMessage(Message{Kind: KindControl, Key: heartbeatKey, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, ping); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	body, err := newFrameReader(conn).next()
	if err != nil {
		t.Fatal(err)
	}
	pong, err := DecodeMessage(body)
	if err != nil || pong.Kind != KindControl || pong.Key != heartbeatKey {
		t.Fatalf("pong = %+v, %v", pong, err)
	}
	if st := srv.Stats(); st.Heartbeats != 1 || st.Frames != 0 {
		t.Fatalf("server stats = %+v", st)
	}
	if st := remote.Stats(); st.Sent != 0 {
		t.Fatalf("heartbeat leaked into the network: %+v", st)
	}
}

// TestInternDecodeAliasesAndDedups covers serveConn's decode path
// (decodeMessageIn with an intern cache and aliasing): repeated frames share
// string memory, the payload aliases the frame buffer instead of being
// copied out, and the cache cap degrades to plain allocation instead of
// growing without bound.
func TestInternDecodeAliasesAndDedups(t *testing.T) {
	body, err := EncodeMessage(Message{From: "a::j", To: "b::k", Key: "prop", Kind: KindProp, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	si := make(strIntern)
	msgs := make([]Message, 3)
	bufs := make([][]byte, len(msgs))
	for i := range msgs {
		bufs[i] = append([]byte(nil), body...) // each frame in its own read buffer
		if err := decodeMessageIn(&msgs[i], bufs[i], si, true); err != nil {
			t.Fatal(err)
		}
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	for i, m := range msgs[1:] {
		if m.From != "a::j" || m.To != "b::k" || m.Key != "prop" ||
			!same(m.From, msgs[0].From) || !same(m.To, msgs[0].To) || !same(m.Key, msgs[0].Key) {
			t.Fatalf("frame %d = %+v: its addresses were not shared with the first frame's", i+1, m)
		}
	}
	if len(si) != 3 {
		t.Fatalf("intern cache holds %d entries, want 3 (From, To, Key)", len(si))
	}
	// Aliasing is observable by mutation: scribbling on a frame's buffer must
	// show through its decoded payload, and leave the other frames' alone.
	p := msgs[1].Payload
	orig := p[0]
	for i := range bufs[1] {
		bufs[1][i] ^= 0xff
	}
	if p[0] == orig {
		t.Fatal("payload was copied; expected an alias into the frame buffer")
	}
	if msgs[0].Payload[0] != orig || msgs[2].Payload[0] != orig {
		t.Fatal("scribbling on one frame's buffer changed another frame's payload")
	}
	// Cap: a flood of unique keys stops growing the cache at maxIntern.
	for i := 0; i < maxIntern+100; i++ {
		si.get([]byte(fmt.Sprintf("unique-%d", i)))
	}
	if len(si) > maxIntern {
		t.Fatalf("intern cache grew to %d, cap is %d", len(si), maxIntern)
	}
}

// TestInternCapKeyFlood complements the cap check with the strings actually
// flowing through a server connection: a flood of unique keys must not grow
// the per-connection cache past its bound.
func TestInternCapKeyFlood(t *testing.T) {
	si := make(strIntern)
	for i := 0; i < 3*maxIntern; i++ {
		s := si.get([]byte(strings.Repeat("k", 3) + fmt.Sprint(i)))
		if s == "" {
			t.Fatal("empty intern result")
		}
	}
	if len(si) > maxIntern {
		t.Fatalf("cache size %d exceeds cap %d", len(si), maxIntern)
	}
}
