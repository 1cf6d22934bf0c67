//go:build unix

package compart

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// TestFramingAllocations: a Send on an idle TCP connection — the frame
// appended to the client's outbound buffer and written from there by the
// sender — allocates nothing, and neither does reading a frame, which is
// read in place.
func TestFramingAllocations(t *testing.T) {
	c, peer := tcpClient(t, 0, ReconnectConfig{})
	go func() { _, _ = io.Copy(io.Discard, peer) }()
	m := Message{From: "B::j", To: "A::j", Kind: KindGroup, Key: "g", Payload: make([]byte, 100)}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a Send allocates %v objects, want 0", n)
	}
	if st := c.Stats(); st.Direct != st.Enqueued {
		t.Errorf("%d of %d frames written by their sender: the connection was not idle", st.Direct, st.Enqueued)
	}

	small := make([]byte, 100)
	var stream bytes.Buffer
	for i := 0; i < 101; i++ { // AllocsPerRun's warm-up call plus 100 runs
		if err := writeFrame(&stream, small); err != nil {
			t.Fatal(err)
		}
	}
	fr := newFrameReader(&stream)
	if n := testing.AllocsPerRun(100, func() {
		if body, err := fr.next(); err != nil || len(body) != len(small) {
			t.Fatalf("read %d bytes: %v", len(body), err)
		}
	}); n != 0 {
		t.Errorf("reading a frame allocates %v objects, want 0", n)
	}
}

// TestLargeFrameRoundTripsThroughClient: a KindControl frame just under the
// 16 MiB limit — the size of a large migration state blob — goes through a
// ReconnectClient and arrives byte for byte, and the drained client keeps at
// most keepOut bytes of outbound buffer.
func TestLargeFrameRoundTripsThroughClient(t *testing.T) {
	c, peer := tcpClient(t, 0, ReconnectConfig{})
	m := Message{From: "A::j", To: "B::j", Kind: KindControl, Key: "state"}
	m.Payload = make([]byte, maxFrame-64-frameSize(&m))
	for i := range m.Payload {
		m.Payload[i] = byte(i * 7)
	}
	got := make(chan []byte, 1)
	go func() {
		_ = peer.SetReadDeadline(time.Now().Add(10 * time.Second))
		body, _ := newFrameReader(peer).next()
		got <- body
	}()
	if err := c.Send(m); err != nil {
		t.Fatal(err)
	}
	body := <-got
	if len(body) != maxFrame-64 {
		t.Fatalf("read a %d B frame, want %d B", len(body), maxFrame-64)
	}
	var back Message
	if err := decodeMessageIn(&back, body, nil, true); err != nil {
		t.Fatal(err)
	}
	if back.Kind != m.Kind || back.From != m.From || back.To != m.To || back.Key != m.Key || !bytes.Equal(back.Payload, m.Payload) {
		t.Fatalf("the frame did not round-trip: %s %q→%q with %d B of payload", back.Key, back.From, back.To, len(back.Payload))
	}
	waitFor(t, 5*time.Second, "the client to drain", func() bool { return c.Stats().QueueLen == 0 })
	c.mu.Lock()
	held := cap(c.out)
	c.mu.Unlock()
	if held > keepOut {
		t.Fatalf("a drained client holds %d B of buffer, want at most %d", held, keepOut)
	}
	closeDrained(t, c)
	if st := c.Stats(); st.Enqueued != 1 || st.Sent != 1 || st.Dropped != 0 {
		t.Fatalf("client ledger: %+v", st)
	}
}

// tcpCounter counts the Write calls that reach a TCP connection. It embeds
// the concrete connection, so the client still finds its raw handle and a
// sender's write(2) goes round Write.
type tcpCounter struct {
	*net.TCPConn
	writes int
}

func (c *tcpCounter) Write(p []byte) (int, error) { c.writes++; return c.TCPConn.Write(p) }

// TestLargeFrameIsOneWrite: a frame near the 16 MiB limit leaves the client
// in one piece of the outbound buffer, never chunked: the sender's one
// non-blocking write(2) takes what the socket will, and either that write
// finishes the frame or one blocking Write by the pump writes the rest. The
// frame round-trips byte for byte.
func TestLargeFrameIsOneWrite(t *testing.T) {
	t.Run("near the frame limit", func(t *testing.T) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		dialed, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		peer, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		conn := &tcpCounter{TCPConn: dialed.(*net.TCPConn)}
		c := DialReconnect("", ReconnectConfig{BackoffMin: time.Hour, Dial: dialConn(conn)})
		waitFor(t, 2*time.Second, "the client to connect", c.Connected)

		m := Message{From: "A::j", To: "B::j", Kind: KindControl, Key: "state"}
		m.Payload = make([]byte, maxFrame-64-frameSize(&m))
		for i := range m.Payload {
			m.Payload[i] = byte(i * 7)
		}
		got := make(chan []byte, 1)
		go func() {
			_ = peer.SetReadDeadline(time.Now().Add(10 * time.Second))
			body, _ := newFrameReader(peer).next()
			got <- body
		}()
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
		body := <-got
		var back Message
		if err := decodeMessageIn(&back, body, nil, true); err != nil {
			t.Fatalf("read a %d B frame: %v", len(body), err)
		}
		if !bytes.Equal(back.Payload, m.Payload) {
			t.Fatalf("the frame did not round-trip: %d of %d payload bytes", len(back.Payload), len(m.Payload))
		}
		closeDrained(t, c)
		st := c.Stats()
		if st.Sent != 1 || st.Dropped != 0 {
			t.Fatalf("client ledger: %+v", st)
		}
		if pumped := uint64(conn.writes); pumped+st.Direct != 1 {
			t.Fatalf("a %d B frame took %d Write calls by the pump with Direct %d, want exactly one of the two",
				len(body), pumped, st.Direct)
		}
	})
}
