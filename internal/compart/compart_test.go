package compart

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// newTestNetwork returns a network that, at test cleanup, is closed and
// checked for exact counter conservation:
// Sent == Delivered + Dropped + Rejected + LostInFlight.
func newTestNetwork(t *testing.T, seed int64) *Network {
	t.Helper()
	n := NewNetwork(seed)
	t.Cleanup(func() {
		n.Close()
		if st := n.Stats(); !st.Conserved() {
			t.Errorf("network counters not conserved: %+v", st)
		}
	})
	return n
}

// kept is what a handler that keeps m past its call holds: the message with
// a payload of its own, since the delivered one is only lent (Handler).
func kept(m Message) Message {
	m.Payload = bytes.Clone(m.Payload)
	return m
}

// dialConn is a ReconnectConfig.Dial that hands out one established
// connection (unix socket, net.Pipe) and fails every later dial, so the
// client under test lives and dies with that connection. Pair it with a long
// BackoffMin. Only the client's connection goroutine calls it.
func dialConn(conn net.Conn) func() (net.Conn, error) {
	used := false
	return func() (net.Conn, error) {
		if used {
			return nil, errors.New("connection already used")
		}
		used = true
		return conn, nil
	}
}

// closeDrained closes the client once everything it accepted has been handed
// to the socket writer or dropped. ReconnectClient.Close abandons what is
// still queued but waits for the pump, which flushes the run it holds before
// it looks at done, so after this wait Close loses no accepted frame.
func closeDrained(t *testing.T, c *ReconnectClient) {
	t.Helper()
	waitFor(t, 5*time.Second, "the client to drain", func() bool {
		cs := c.Stats()
		return cs.QueueLen == 0 && cs.Sent+cs.Dropped >= cs.Enqueued
	})
	c.Close()
}

func TestSendDelivers(t *testing.T) {
	n := newTestNetwork(t, 1)
	got := make(chan Message, 1)
	n.Register("b", func(m Message) { got <- kept(m) })
	if err := n.Send(Message{From: "a", To: "b", Kind: KindData, Key: "n", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Key != "n" || string(m.Payload) != "x" {
			t.Fatalf("delivered %+v", m)
		}
	default:
		t.Fatal("zero-latency delivery should be synchronous")
	}
}

// TestDelayedDeliveryOwnsItsPayload: a link with latency delivers after Send
// has returned, when the sender may have rewritten the buffer it lent; the
// handler must see the bytes as they were sent.
func TestDelayedDeliveryOwnsItsPayload(t *testing.T) {
	n := newTestNetwork(t, 1)
	n.SetLink("a", "b", LinkConfig{Latency: 5 * time.Millisecond})
	got := make(chan Message, 1)
	n.Register("b", func(m Message) { got <- kept(m) })
	buf := []byte("sent")
	if err := n.Send(Message{From: "a", To: "b", Kind: KindData, Payload: buf}); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXX")
	select {
	case m := <-got:
		if string(m.Payload) != "sent" {
			t.Fatalf("the delayed delivery carried %q, want %q", m.Payload, "sent")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the delayed message was not delivered")
	}
}

func TestSendToUnknownEndpoint(t *testing.T) {
	n := newTestNetwork(t, 1)
	err := n.Send(Message{From: "a", To: "nobody"})
	if !errors.Is(err, ErrEndpointDown) {
		t.Fatalf("err = %v", err)
	}
}

func TestCrashAndRevive(t *testing.T) {
	n := newTestNetwork(t, 1)
	var count atomic.Int32
	n.Register("b", func(Message) { count.Add(1) })

	n.Crash("b")
	if n.Up("b") {
		t.Fatal("crashed endpoint reports up")
	}
	if err := n.Send(Message{From: "a", To: "b"}); !errors.Is(err, ErrEndpointDown) {
		t.Fatalf("send to crashed: %v", err)
	}
	n.Revive("b")
	if !n.Up("b") {
		t.Fatal("revived endpoint reports down")
	}
	if err := n.Send(Message{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 1 {
		t.Fatalf("delivered %d", count.Load())
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := newTestNetwork(t, 1)
	n.Register("a", func(Message) {})
	n.Register("b", func(Message) {})
	n.Partition("a", "b")
	if err := n.Send(Message{From: "a", To: "b"}); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned send: %v", err)
	}
	if err := n.Send(Message{From: "b", To: "a"}); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partition must be bidirectional: %v", err)
	}
	// Unrelated links unaffected.
	n.Register("c", func(Message) {})
	if err := n.Send(Message{From: "a", To: "c"}); err != nil {
		t.Fatalf("unrelated link affected: %v", err)
	}
	n.Heal("a", "b")
	if err := n.Send(Message{From: "a", To: "b"}); err != nil {
		t.Fatalf("healed send: %v", err)
	}
}

func TestDropProbability(t *testing.T) {
	n := newTestNetwork(t, 7)
	var count atomic.Int32
	n.Register("b", func(Message) { count.Add(1) })
	n.SetLink("a", "b", LinkConfig{DropProb: 0.5})
	const total = 2000
	for i := 0; i < total; i++ {
		if err := n.Send(Message{From: "a", To: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	got := int(count.Load())
	if got < total*35/100 || got > total*65/100 {
		t.Fatalf("with p=0.5 delivered %d/%d", got, total)
	}
	st := n.Stats()
	if st.Sent != total || st.Dropped+st.Delivered != total {
		t.Fatalf("stats inconsistent: %+v", st)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	n := newTestNetwork(t, 1)
	got := make(chan time.Time, 1)
	n.Register("b", func(Message) { got <- time.Now() })
	n.SetLink("a", "b", LinkConfig{Latency: 30 * time.Millisecond})
	start := time.Now()
	if err := n.Send(Message{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-got:
		if d := at.Sub(start); d < 20*time.Millisecond {
			t.Fatalf("delivered after %v, want ≥ ~30ms", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message never delivered")
	}
}

func TestCrashDuringFlightLosesMessage(t *testing.T) {
	n := newTestNetwork(t, 1)
	var count atomic.Int32
	n.Register("b", func(Message) { count.Add(1) })
	n.SetLink("a", "b", LinkConfig{Latency: 30 * time.Millisecond})
	if err := n.Send(Message{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	n.Crash("b")
	n.Close() // waits for the in-flight delivery attempt
	if count.Load() != 0 {
		t.Fatal("message delivered to crashed endpoint")
	}
}

func TestClosedNetworkRejectsSends(t *testing.T) {
	n := newTestNetwork(t, 1)
	n.Register("b", func(Message) {})
	n.Close()
	if err := n.Send(Message{From: "a", To: "b"}); !errors.Is(err, ErrNetworkClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestDefaultLinkApplies(t *testing.T) {
	n := newTestNetwork(t, 3)
	var count atomic.Int32
	n.Register("b", func(Message) { count.Add(1) })
	n.SetDefaultLink(LinkConfig{DropProb: 1})
	for i := 0; i < 50; i++ {
		_ = n.Send(Message{From: "a", To: "b"})
	}
	if count.Load() != 0 {
		t.Fatal("default drop-all link did not apply")
	}
	// Specific link overrides the default.
	n.SetLink("a", "b", LinkConfig{})
	if err := n.Send(Message{From: "a", To: "b"}); err != nil || count.Load() != 1 {
		t.Fatalf("override link failed: %v, %d", err, count.Load())
	}
}

func TestConcurrentSendsRace(t *testing.T) {
	n := newTestNetwork(t, 1)
	var count atomic.Int64
	n.Register("b", func(Message) { count.Add(1) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = n.Send(Message{From: "a", To: "b"})
			}
		}()
	}
	wg.Wait()
	if count.Load() != 8*500 {
		t.Fatalf("delivered %d", count.Load())
	}
}

func TestMessageCodecRoundTrip(t *testing.T) {
	m := Message{
		From: "f::junction", To: "g::junction", Kind: KindProp,
		Key: "Work", Flag: true, Payload: []byte{0, 1, 2, 255},
	}
	frame, err := AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != m.From || got.To != m.To || got.Kind != m.Kind ||
		got.Key != m.Key || got.Flag != m.Flag || string(got.Payload) != string(m.Payload) {
		t.Fatalf("round trip: %+v != %+v", got, m)
	}
}

func TestMessageCodecProperty(t *testing.T) {
	roundTrips := func(m Message) bool {
		frame, err := AppendMessage(nil, m)
		if err != nil {
			// Oversized fields must be rejected, never truncated.
			return len(m.From) > maxFieldLen || len(m.To) > maxFieldLen || len(m.Key) > maxFieldLen
		}
		got, err := DecodeMessage(frame)
		if err != nil {
			return false
		}
		return got.From == m.From && got.To == m.To && got.Key == m.Key &&
			got.Kind == m.Kind && got.Flag == m.Flag && string(got.Payload) == string(m.Payload)
	}
	f := func(from, to, key string, kind uint8, flag bool, payload []byte) bool {
		return roundTrips(Message{From: from, To: to, Key: key, Kind: MessageKind(kind), Flag: flag, Payload: payload})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Boundary lengths around the uint16 field-length encoding.
	long := func(n int) string { return strings.Repeat("x", n) }
	for _, m := range []Message{
		{}, // all fields empty
		{From: long(maxFieldLen), To: long(maxFieldLen), Key: long(maxFieldLen)},
		{Payload: []byte{}},
		{Payload: make([]byte, 1<<16)},
	} {
		if !roundTrips(m) {
			t.Fatalf("boundary message failed round trip: From/To/Key lens %d/%d/%d payload %d",
				len(m.From), len(m.To), len(m.Key), len(m.Payload))
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	m := Message{From: "a", To: "b", Key: "k", Payload: []byte("payload")}
	frame, err := AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, err := DecodeMessage(frame[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestTCPTransport(t *testing.T) {
	// Remote network with a receiving endpoint.
	remote := newTestNetwork(t, 1)
	got := make(chan Message, 1)
	remote.Register("g::junction", func(m Message) { got <- kept(m) })

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(remote, l)
	defer srv.Close()

	client := DialReconnect(srv.Addr().String(), ReconnectConfig{})
	defer client.Close()

	msg := Message{From: "f::junction", To: "g::junction", Kind: KindData, Key: "n", Payload: []byte("over tcp")}
	if err := client.Send(msg); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if string(m.Payload) != "over tcp" || m.From != "f::junction" {
			t.Fatalf("received %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TCP message not delivered")
	}
}

func TestTCPManyMessagesInOrder(t *testing.T) {
	remote := newTestNetwork(t, 1)
	var mu sync.Mutex
	var keys []string
	done := make(chan struct{})
	remote.Register("sink", func(m Message) {
		mu.Lock()
		keys = append(keys, m.Key)
		if len(keys) == 100 {
			close(done)
		}
		mu.Unlock()
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(remote, l)
	defer srv.Close()
	client := DialReconnect(srv.Addr().String(), ReconnectConfig{})
	defer client.Close()
	for i := 0; i < 100; i++ {
		if err := client.Send(Message{To: "sink", Key: string(rune('A' + i%26))}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("only %d/100 messages arrived", len(keys))
	}
	mu.Lock()
	defer mu.Unlock()
	for i, k := range keys {
		if k != string(rune('A'+i%26)) {
			t.Fatalf("message %d out of order: %q", i, k)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	n := newTestNetwork(t, 1)
	n.Register("b", func(Message) {})
	_ = n.Send(Message{From: "a", To: "b"})
	_ = n.Send(Message{From: "a", To: "ghost"})
	st := n.Stats()
	if st.Sent != 2 || st.Delivered != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
	ls := n.LinkStats("a", "b")
	if ls.Sent != 1 || ls.Delivered != 1 || ls.Latency.Count != 1 {
		t.Fatalf("link a→b stats = %+v", ls)
	}
	if ls := n.LinkStats("a", "ghost"); ls.Rejected != 1 {
		t.Fatalf("link a→ghost stats = %+v", ls)
	}
	if es := n.EndpointStats("b"); es.Delivered != 1 {
		t.Fatalf("endpoint b stats = %+v", es)
	}
}

// TestLinkConfigAfterTraffic: a pair's entry, made at its first Send, holds
// both its counters and its configuration, and a configuration made after
// traffic takes effect on the next Send: SetLink, Partition and Heal on the
// pair itself, and SetDefaultLink on a pair with no configuration of its
// own, while a pair with one keeps it. Every message is counted on its pair
// and the network's counters sum up.
func TestLinkConfigAfterTraffic(t *testing.T) {
	n := newTestNetwork(t, 1)
	var got atomic.Int32
	n.Register("b", func(Message) { got.Add(1) })
	send := func(from string) error { return n.Send(Message{From: from, To: "b"}) }
	expect := func(step, from string, wantErr error, wantGot int32) {
		t.Helper()
		if err := send(from); !errors.Is(err, wantErr) {
			t.Fatalf("%s: Send %s→b = %v, want %v", step, from, err, wantErr)
		}
		if g := got.Load(); g != wantGot {
			t.Fatalf("%s: %d delivered, want %d", step, g, wantGot)
		}
	}
	expect("first send", "a", nil, 1)
	expect("first send", "c", nil, 2)

	n.SetLink("a", "b", LinkConfig{DropProb: 1})
	expect("SetLink drop", "a", nil, 2)
	n.SetLink("a", "b", LinkConfig{})
	expect("SetLink clear", "a", nil, 3)
	n.Partition("a", "b")
	expect("Partition", "a", ErrPartitioned, 3)
	n.Heal("a", "b")
	expect("Heal", "a", nil, 4)

	n.SetDefaultLink(LinkConfig{Partitioned: true})
	expect("default on an unconfigured pair", "c", ErrPartitioned, 4)
	expect("default on a configured pair", "a", nil, 5)
	n.SetDefaultLink(LinkConfig{})
	expect("default cleared", "c", nil, 6)

	if ls := n.LinkStats("a", "b"); ls.Sent != 6 || ls.Delivered != 4 || ls.Dropped != 1 || ls.Rejected != 1 {
		t.Fatalf("a→b stats = %+v, want 6 sent: 4 delivered, 1 dropped, 1 rejected", ls)
	}
	if ls := n.LinkStats("c", "b"); ls.Sent != 3 || ls.Delivered != 2 || ls.Rejected != 1 {
		t.Fatalf("c→b stats = %+v, want 3 sent: 2 delivered, 1 rejected", ls)
	}
	if st := n.Stats(); !st.Conserved() || st.Sent != 9 {
		t.Fatalf("network stats = %+v, want 9 sent and conserved", st)
	}
}

// TestLinkLatencySamples: an undelayed delivery is counted as a zero sample,
// and a delayed link still measures send to delivery.
func TestLinkLatencySamples(t *testing.T) {
	n := newTestNetwork(t, 1)
	n.Register("b", func(Message) {})
	for i := 0; i < 3; i++ {
		if err := n.Send(Message{From: "a", To: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	if ls := n.LinkStats("a", "b"); ls.Latency.Count != 3 || ls.Latency.Max != 0 {
		t.Fatalf("undelayed link latency = %+v, want 3 zero samples", ls.Latency)
	}
	const delay = 5 * time.Millisecond
	n.SetLink("a", "c", LinkConfig{Latency: delay})
	delivered := make(chan struct{})
	n.Register("c", func(Message) { close(delivered) })
	if err := n.Send(Message{From: "a", To: "c"}); err != nil {
		t.Fatal(err)
	}
	<-delivered
	n.Close()
	if ls := n.LinkStats("a", "c"); ls.Latency.Count != 1 || ls.Latency.Min < delay {
		t.Fatalf("delayed link latency = %+v, want one sample of at least %v", ls.Latency, delay)
	}
}

// TestLostInFlightCounted pins the delivery-time accounting fix: a delayed
// delivery lost to a crash in flight is LostInFlight, not Delivered, and
// the counters still sum.
func TestLostInFlightCounted(t *testing.T) {
	n := newTestNetwork(t, 1)
	n.Register("b", func(Message) {})
	n.SetLink("a", "b", LinkConfig{Latency: 20 * time.Millisecond})
	if err := n.Send(Message{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	n.Crash("b")
	n.Close()
	st := n.Stats()
	if st.Delivered != 0 || st.LostInFlight != 1 {
		t.Fatalf("stats = %+v, want Delivered=0 LostInFlight=1", st)
	}
	if ls := n.LinkStats("a", "b"); ls.LostInFlight != 1 {
		t.Fatalf("link stats = %+v", ls)
	}
	if es := n.EndpointStats("b"); es.LostInFlight != 1 {
		t.Fatalf("endpoint stats = %+v", es)
	}
}

func TestDeregister(t *testing.T) {
	n := newTestNetwork(t, 1)
	n.Register("b", func(Message) {})
	n.Deregister("b")
	if n.Up("b") {
		t.Fatal("deregistered endpoint reports up")
	}
	if got := n.Endpoints(); len(got) != 0 {
		t.Fatalf("endpoints = %v", got)
	}
}

// TestUnixSocketTransport: the transport is listener-agnostic — the paper's
// libcompart wraps "TCP sockets and pipes", and Unix-domain sockets are the
// modern pipe-like IPC. ServeTCP accepts any net.Listener.
func TestUnixSocketTransport(t *testing.T) {
	dir := t.TempDir()
	sock := dir + "/compart.sock"
	remote := newTestNetwork(t, 1)
	got := make(chan Message, 1)
	remote.Register("g::junction", func(m Message) { got <- kept(m) })

	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(remote, l)
	defer srv.Close()

	// Reuse the client framing over unix connections.
	c := DialReconnect(sock, ReconnectConfig{
		Dial: func() (net.Conn, error) { return net.Dial("unix", sock) },
	})
	defer c.Close()
	if err := c.Send(Message{From: "f::junction", To: "g::junction", Kind: KindData, Key: "n", Payload: []byte("over a pipe")}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if string(m.Payload) != "over a pipe" {
			t.Fatalf("received %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("unix-socket message not delivered")
	}
}

// TestNetPipeTransport drives the server loop over an in-memory net.Pipe —
// the purest "pipe" channel.
func TestNetPipeTransport(t *testing.T) {
	remote := newTestNetwork(t, 1)
	got := make(chan Message, 1)
	remote.Register("sink", func(m Message) { got <- kept(m) })

	client, server := net.Pipe()
	srv := &Server{net: remote, connSet: map[net.Conn]bool{}}
	srv.wg.Add(1)
	go func() {
		srv.mu.Lock()
		srv.connSet[server] = true
		srv.mu.Unlock()
		srv.serveConn(server)
	}()
	defer client.Close()

	c := DialReconnect("pipe", ReconnectConfig{BackoffMin: time.Hour, Dial: dialConn(client)})
	defer c.Close()
	if err := c.Send(Message{To: "sink", Key: "k", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Key != "k" {
			t.Fatalf("received %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pipe message not delivered")
	}
}

// TestObserveNMatchesRepeatedObserve: recording n samples of one latency at
// once leaves Count, Sum, Min and Max exactly where n single observations
// would, negative and zero latencies and empty runs included; and a delivered
// group message, however many updates it holds, is one message and one
// sample on its link.
func TestObserveNMatchesRepeatedObserve(t *testing.T) {
	type run struct {
		d time.Duration
		n int
	}
	for _, runs := range [][]run{
		{{5 * time.Microsecond, 96}},
		{{3, 2}, {-4, 3}, {7, 0}, {1, 1}},
		{{0, 0}, {9, 4}, {2, 5}},
	} {
		var batched, single LatencySummary
		for _, r := range runs {
			batched.observeN(r.d, r.n)
			for i := 0; i < r.n; i++ {
				single.observe(r.d)
			}
		}
		if batched != single {
			t.Fatalf("%v: observeN gives %+v, repeated observe %+v", runs, batched, single)
		}
	}

	n := newTestNetwork(t, 1)
	n.Register("sink", func(Message) {})
	if err := n.Send(groupMsg("k", 96)); err != nil {
		t.Fatal(err)
	}
	if ls := n.LinkStats("src", "sink"); ls.Sent != 1 || ls.Delivered != 1 || ls.Latency.Count != 1 {
		t.Fatalf("a group message of 96 updates recorded %+v on its link, want one message and one sample", ls)
	}
}
