package compart

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// TestClientCoalescesBursts pins the pump's drained runs end to end,
// deterministically: the client writes into an unbuffered net.Pipe that
// nobody reads until the whole burst is enqueued (the queue holds all of it:
// Send never blocks), so the backlog must drain as runs of several frames
// under one flush. The reader then decodes the stream — plain frames, one
// message each — and checks order and conservation.
func TestClientCoalescesBursts(t *testing.T) {
	ours, theirs := net.Pipe()
	defer ours.Close()
	client := DialReconnect("pipe", ReconnectConfig{QueueSize: 2048, BackoffMin: time.Hour, Dial: dialConn(theirs)})

	const n = 1000
	for i := 0; i < n; i++ {
		if err := client.Send(Message{To: "sink", Key: fmt.Sprintf("k%d", i), Kind: KindProp}); err != nil {
			t.Fatal(err)
		}
	}
	// Read the stream while the pump drains the backlog.
	type result struct {
		msgs int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		var res result
		fr := newFrameReader(ours)
		for res.msgs < n {
			_ = ours.SetReadDeadline(time.Now().Add(5 * time.Second))
			frame, err := fr.next()
			if err != nil {
				res.err = err
				break
			}
			m, err := DecodeMessage(frame)
			if err != nil {
				res.err = err
				break
			}
			if m.Key != fmt.Sprintf("k%d", res.msgs) {
				res.err = fmt.Errorf("message %d out of order: %q", res.msgs, m.Key)
				break
			}
			res.msgs++
		}
		done <- res
	}()
	closeDrained(t, client)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.msgs != n {
		t.Fatalf("decoded %d/%d messages", res.msgs, n)
	}
	cs := client.Stats()
	if cs.Enqueued != n || cs.Sent != n || cs.Dropped != 0 {
		t.Fatalf("client counters not conserved: %+v", cs)
	}
	// The burst was queued behind a reader that was not reading: it can only
	// have drained in runs of several frames.
	if cs.BatchesSent < 1 || cs.MsgsPerBatch.Sum > n || cs.MsgsPerBatch.Mean() <= 1 {
		t.Fatalf("a blocked-reader burst drained in %d runs of %+v frames", cs.BatchesSent, cs.MsgsPerBatch)
	}
}

// TestBatchingStatsConservationUnderChurn is the transport-conservation
// property test: a sender bursting through the pump's drained runs at a sink
// that crashes and revives repeatedly must keep every counter ledger exact —
// client Enqueued == Sent + Dropped, server Frames == messages injected, and
// the substrate's own conservation across delivered/rejected. Run under
// -race in CI.
func TestBatchingStatsConservationUnderChurn(t *testing.T) {
	remote := newTestNetwork(t, 7)
	var mu sync.Mutex
	var delivered int
	remote.Register("sink", func(m Message) { mu.Lock(); delivered++; mu.Unlock() })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(remote, l)
	defer srv.Close()
	const rounds, perRound = 8, 200
	// Send never blocks, so the queue holds the whole burst: a full queue
	// would be a counted drop, not back-pressure.
	client := DialReconnect(srv.Addr().String(), ReconnectConfig{QueueSize: rounds * perRound})
	sent := 0
	injected := func() uint64 { return srv.Stats().Frames }
	for r := 0; r < rounds; r++ {
		if r%2 == 1 {
			remote.Crash("sink")
		}
		for i := 0; i < perRound; i++ {
			if err := client.Send(Message{To: "sink", Key: "k", Kind: KindProp, Flag: true}); err != nil {
				t.Fatalf("round %d send %d: %v", r, i, err)
			}
			sent++
		}
		if r%2 == 1 {
			// Hold the crash until the server has injected this round's
			// sends, so the crashed epoch actually rejects deliveries
			// (otherwise the TCP pipeline outlives the crash window).
			deadline := time.Now().Add(5 * time.Second)
			for injected() < uint64(sent) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			remote.Revive("sink")
		}
	}
	closeDrained(t, client)

	// Wait for the server to drain everything the client flushed.
	deadline := time.Now().Add(5 * time.Second)
	for injected() != uint64(sent) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}

	cs := client.Stats()
	if cs.Enqueued != uint64(sent) {
		t.Fatalf("client Enqueued = %d, want %d", cs.Enqueued, sent)
	}
	if cs.Sent+cs.Dropped != cs.Enqueued {
		t.Fatalf("client ledger leaks: %+v", cs)
	}
	if ss := srv.Stats(); ss.Frames != cs.Sent {
		t.Fatalf("server injected %d messages but client sent %d (%+v)", ss.Frames, cs.Sent, ss)
	}
	ns := remote.Stats()
	if !ns.Conserved() {
		t.Fatalf("substrate counters not conserved: %+v", ns)
	}
	// Crashed-epoch messages must show up as rejections, not silence.
	if ns.Rejected == 0 {
		t.Fatal("no rejections recorded despite crashed-epoch sends")
	}
	mu.Lock()
	defer mu.Unlock()
	if uint64(delivered) != ns.Delivered {
		t.Fatalf("handler saw %d deliveries, substrate recorded %d", delivered, ns.Delivered)
	}
}
