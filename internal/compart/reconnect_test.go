package compart

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReconnectClientResumesAfterServerRestart is the end-to-end recovery
// test the hardening is for: killing and restarting the remote Server
// results in the messages sent meanwhile and after being delivered after
// backoff, with the reconnect visible in the client stats.
func TestReconnectClientResumesAfterServerRestart(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()

	remote := newTestNetwork(t, 1)
	var delivered atomic.Uint64
	remote.Register("sink", func(Message) { delivered.Add(1) })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	srv := ServeTCP(remote, l)

	rc := DialReconnect(addr, ReconnectConfig{
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
	})

	if err := rc.Send(Message{From: "src", To: "sink", Key: "pre"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "pre-crash delivery", func() bool { return delivered.Load() == 1 })

	// Kill the remote server. The client's read side notices, and messages
	// sent while down wait in the bounded queue.
	srv.Close()
	waitFor(t, 2*time.Second, "disconnect detection", func() bool { return !rc.Connected() })
	for i := 0; i < 5; i++ {
		if err := rc.Send(Message{From: "src", To: "sink", Key: "during"}); err != nil {
			t.Fatal(err)
		}
	}

	// Restart on the same address: queued and fresh messages flow again.
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := ServeTCP(remote, l2)
	defer srv2.Close()
	waitFor(t, 5*time.Second, "queued messages after restart", func() bool { return delivered.Load() == 6 })
	if err := rc.Send(Message{From: "src", To: "sink", Key: "post"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "post-restart delivery", func() bool { return delivered.Load() == 7 })

	st := rc.Stats()
	if st.Connects < 2 {
		t.Fatalf("reconnect not visible in stats: %+v", st)
	}
	if st.Dials < st.Connects {
		t.Fatalf("dials (%d) < connects (%d)", st.Dials, st.Connects)
	}
	if st.Enqueued != 7 || st.Sent != 7 {
		t.Fatalf("client counters: %+v, want Enqueued=Sent=7", st)
	}
	if st.SendLatency.Count != 7 || st.SendLatency.Max < st.SendLatency.Min {
		t.Fatalf("send latency summary: %+v", st.SendLatency)
	}
	// The network accounts for every message exactly once across the
	// outage, while still open (newTestNetwork re-checks after Close).
	if rs := remote.Stats(); !rs.Conserved() || rs.Sent != 7 {
		t.Fatalf("counters not conserved after restart: %+v", rs)
	}

	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	srv2.Close()
	// No goroutine leak: everything the client and servers spawned exits.
	waitFor(t, 2*time.Second, "goroutines to drain", func() bool {
		return runtime.NumGoroutine() <= goroutinesBefore+2
	})
}

// TestReconnectQueueBounded: while the remote is unreachable, the outbound
// queue absorbs QueueSize messages; overflow fails with ErrQueueFull and is
// counted Dropped, and Close accounts for abandoned queue entries. Nothing
// is lost silently.
func TestReconnectQueueBounded(t *testing.T) {
	// Dial always fails: nothing ever drains the queue.
	rc := DialReconnect("", ReconnectConfig{
		QueueSize:  4,
		BackoffMin: time.Millisecond,
		BackoffMax: 2 * time.Millisecond,
		Dial:       func() (net.Conn, error) { return nil, errors.New("unreachable") },
	})
	accepted, rejected := 0, 0
	for i := 0; i < 10; i++ {
		switch err := rc.Send(Message{To: "sink"}); {
		case err == nil:
			accepted++
		case errors.Is(err, ErrQueueFull):
			rejected++
		default:
			t.Fatalf("unexpected send error: %v", err)
		}
	}
	if accepted != 4 || rejected != 6 {
		t.Fatalf("accepted %d rejected %d, want 4/6", accepted, rejected)
	}
	// Backoff keeps dialing (and failing) in the background.
	waitFor(t, 2*time.Second, "multiple dial attempts", func() bool { return rc.Stats().Dials >= 3 })
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	st := rc.Stats()
	if st.Sent != 0 || st.Enqueued != 4 || st.Dropped != 10-4+4 {
		t.Fatalf("client counters: %+v, want Sent=0 Enqueued=4 Dropped=10", st)
	}
	if err := rc.Send(Message{To: "sink"}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("send after close: %v", err)
	}
}

// TestNotifyTracksRemoteLiveness: with heartbeats on, a Notify listener
// sees the connection come up, go down when the remote server is killed, and
// come up again when it restarts — the hook that crashes and revives a
// remote junction's proxy so local sends fail fast while the peer is gone.
func TestNotifyTracksRemoteLiveness(t *testing.T) {
	remote := newTestNetwork(t, 1)
	var delivered atomic.Uint64
	remote.Register("g::junction", func(Message) { delivered.Add(1) })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	srv := ServeTCP(remote, l)

	rc := DialReconnect(addr, ReconnectConfig{
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
		Heartbeat:  10 * time.Millisecond,
	})
	defer rc.Close()
	var up atomic.Bool
	rc.Notify(up.Store)

	waitFor(t, 2*time.Second, "initial liveness", up.Load)
	if err := rc.Send(Message{From: "f", To: "g::junction"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "delivery", func() bool { return delivered.Load() == 1 })
	waitFor(t, 2*time.Second, "heartbeats answered", func() bool { return rc.Stats().HeartbeatsAcked >= 1 })

	srv.Close()
	waitFor(t, 2*time.Second, "down detection", func() bool { return !up.Load() })

	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := ServeTCP(remote, l2)
	defer srv2.Close()
	waitFor(t, 5*time.Second, "revival after restart", up.Load)
	if err := rc.Send(Message{From: "f", To: "g::junction"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "post-restart delivery", func() bool { return delivered.Load() == 2 })
}

// TestNotifyNeverLeavesAStaleState: a listener registered while the first
// connection comes up must end believing the connection is up. Dial is gated
// until the listener's first call opens it; that call then waits for the
// connect and gives a racing state change 200 ms to reach the listener before
// recording its own, initial value. If Notify's first call could run beside
// setConnected, the racing true would land first and the stale false last.
func TestNotifyNeverLeavesAStaleState(t *testing.T) {
	ours, theirs := net.Pipe()
	defer ours.Close()
	gate := make(chan struct{})
	rc := DialReconnect("pipe", ReconnectConfig{
		BackoffMin: time.Hour,
		Dial: func() (net.Conn, error) {
			<-gate
			return theirs, nil
		},
	})
	defer rc.Close()

	var mu sync.Mutex
	var seen []bool
	first := true
	rc.Notify(func(up bool) {
		if first {
			first = false
			close(gate)
			waitFor(t, 2*time.Second, "the connect", func() bool { return rc.Stats().Connects == 1 })
			for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				mu.Lock()
				n := len(seen)
				mu.Unlock()
				if n > 0 {
					break
				}
			}
		}
		mu.Lock()
		seen = append(seen, up)
		mu.Unlock()
	})
	waitFor(t, 2*time.Second, "the listener to see the connection", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) >= 2
	})
	mu.Lock()
	defer mu.Unlock()
	if !seen[len(seen)-1] || !rc.Connected() {
		t.Fatalf("listener saw %v while the client is connected=%v; it must end true", seen, rc.Connected())
	}
}

// TestHeartbeatsStayOutOfMessageCounters: heartbeats share the outbound
// buffer with messages, and only HeartbeatsSent counts them, so a client
// that pings while it sends still balances Enqueued == Sent + Dropped on
// its messages alone, and the server injects exactly those.
func TestHeartbeatsStayOutOfMessageCounters(t *testing.T) {
	remote := newTestNetwork(t, 1)
	var delivered atomic.Uint64
	remote.Register("sink", func(Message) { delivered.Add(1) })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(remote, l)
	defer srv.Close()
	rc := DialReconnect(srv.Addr().String(), ReconnectConfig{Heartbeat: 5 * time.Millisecond})
	const n = 3
	for i := 0; i < n; i++ {
		if err := rc.Send(Message{From: "src", To: "sink", Kind: KindProp}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 2*time.Second, "a heartbeat answered", func() bool { return rc.Stats().HeartbeatsAcked > uint64(i) })
	}
	waitFor(t, 2*time.Second, "delivery", func() bool { return delivered.Load() == n })
	closeDrained(t, rc)
	st := rc.Stats()
	if st.Enqueued != n || st.Sent != n || st.Dropped != 0 || st.SendLatency.Count != n || st.HeartbeatsSent < n {
		t.Fatalf("client ledger: %+v", st)
	}
	if ss := srv.Stats(); ss.Frames != n || ss.Heartbeats < n {
		t.Fatalf("server injected %d frames and answered %d heartbeats: %+v", ss.Frames, ss.Heartbeats, ss)
	}
}
