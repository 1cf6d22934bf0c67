package compart

import (
	"errors"
	"net"
	"runtime"
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
// test the hardening is for: with a Bridge between two networks, killing
// and restarting the remote Server results in post-restart messages being
// delivered after backoff, with the reconnect visible in the client stats.
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

	local := newTestNetwork(t, 2)
	rc := DialReconnect(addr, ReconnectConfig{
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
	})
	BridgeReconnect(local, "sink", rc)

	if err := local.Send(Message{From: "src", To: "sink", Key: "pre"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "pre-crash delivery", func() bool { return delivered.Load() == 1 })

	// Kill the remote server. The client's read side notices, and messages
	// sent while down wait in the bounded queue.
	srv.Close()
	waitFor(t, 2*time.Second, "disconnect detection", func() bool { return !rc.Connected() })
	for i := 0; i < 5; i++ {
		if err := local.Send(Message{From: "src", To: "sink", Key: "during"}); err != nil {
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
	if err := local.Send(Message{From: "src", To: "sink", Key: "post"}); err != nil {
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
	// Both networks account for every message exactly once across the
	// outage, while still open (newTestNetwork re-checks after Close).
	if rs, ls := remote.Stats(), local.Stats(); !rs.Conserved() || !ls.Conserved() {
		t.Fatalf("counters not conserved after restart: remote %+v local %+v", rs, ls)
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

// TestBridgeLiveTracksRemoteLiveness: with heartbeats on, killing the
// remote server marks the bridged endpoint down in the local network
// (Network.Up goes false, sends fail fast with ErrEndpointDown); a restart
// revives it.
func TestBridgeLiveTracksRemoteLiveness(t *testing.T) {
	remote := newTestNetwork(t, 1)
	var delivered atomic.Uint64
	remote.Register("g::junction", func(Message) { delivered.Add(1) })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	srv := ServeTCP(remote, l)

	local := newTestNetwork(t, 2)
	rc := DialReconnect(addr, ReconnectConfig{
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
		Heartbeat:  10 * time.Millisecond,
	})
	defer rc.Close()
	BridgeLive(local, "g::junction", rc)

	waitFor(t, 2*time.Second, "initial liveness", func() bool { return local.Up("g::junction") })
	if err := local.Send(Message{From: "f", To: "g::junction"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "delivery", func() bool { return delivered.Load() == 1 })
	waitFor(t, 2*time.Second, "heartbeats answered", func() bool { return rc.Stats().HeartbeatsAcked >= 1 })

	srv.Close()
	waitFor(t, 2*time.Second, "down detection", func() bool { return !local.Up("g::junction") })
	if err := local.Send(Message{From: "f", To: "g::junction"}); !errors.Is(err, ErrEndpointDown) {
		t.Fatalf("send to dead remote: %v, want ErrEndpointDown", err)
	}

	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := ServeTCP(remote, l2)
	defer srv2.Close()
	waitFor(t, 5*time.Second, "revival after restart", func() bool { return local.Up("g::junction") })
	if err := local.Send(Message{From: "f", To: "g::junction"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "post-restart delivery", func() bool { return delivered.Load() == 2 })
}
