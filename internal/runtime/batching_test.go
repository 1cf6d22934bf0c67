package runtime

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"csaw/internal/compart"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/obsv"
)

// blackholeProgram: f fires width parallel asserts at g, whose endpoint the
// test replaces with a sink that swallows updates and never acks.
func blackholeProgram(width int) *dsl.Program {
	p := dsl.NewProgram()
	arms := make(dsl.Par, width)
	for i := range arms {
		arms[i] = dsl.Assert{Target: dsl.J("g", "junction"), Prop: dsl.PR("Work")}
	}
	body := dsl.Def(dsl.Decls(dsl.InitProp{Name: "Work", Init: false}), arms)
	if width == 1 {
		body = dsl.Def(dsl.Decls(dsl.InitProp{Name: "Work", Init: false}), arms[0])
	}
	p.Type("tau_f").Junction("junction", body)
	// g exists in the program so references resolve, but is never started:
	// the tests register their own endpoint for it.
	p.Type("tau_g").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}), dsl.Skip{}))
	p.Instance("f", "tau_f").Instance("g", "tau_g")
	p.SetMain(dsl.Start{Instance: "f"})
	return p
}

// TestSendUpdateCtxCancelLeavesNoWaiters is the regression test for the
// remote-update plane's ctx-done path: cancelling the invocation mid-flight
// must return promptly and leave no waiter behind in the ack window.
func TestSendUpdateCtxCancelLeavesNoWaiters(t *testing.T) {
	t.Run("pipelined", func(t *testing.T) {
		netA := compart.NewNetwork(1)
		defer netA.Close()
		s := mustSystem(t, blackholeProgram(1), Options{
			Deploy:     NewDeployment().AddLocation("local", netA),
			AckTimeout: 30 * time.Second, // only ctx can end the wait
		})
		defer s.Close()
		if err := s.StartInstance("f", nil); err != nil {
			t.Fatal(err)
		}
		// g's endpoint swallows every update: no ack will ever arrive.
		netA.Register("g::junction", func(compart.Message) {})

		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		start := time.Now()
		err := s.Invoke(ctx, "f", "junction")
		if err == nil {
			t.Fatal("invoke succeeded against a black-hole peer")
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("ctx-cancelled update took %v to return", elapsed)
		}
		if n := s.pendingAcks("f::junction", "g::junction"); n != 0 {
			t.Fatalf("%d waiters leaked in the ack window after cancellation", n)
		}
	})
}

// TestCumulativeAckPipelining drives a wide par of remote asserts through
// one (sender, receiver) ack window and checks the statement completes with
// the window fully drained and its cumulative frontier advanced to the last
// sequence — i.e. the arms were acknowledged by ranges, not one round trip
// at a time.
func TestCumulativeAckPipelining(t *testing.T) {
	const width = 64
	p := dsl.NewProgram()
	arms := make(dsl.Par, width)
	for i := range arms {
		arms[i] = dsl.Assert{Target: dsl.J("g", "junction"), Prop: dsl.PR("Work")}
	}
	p.Type("tau_f").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}), arms))
	p.Type("tau_g").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}, dsl.InitProp{Name: "Go", Init: false}),
		dsl.Skip{},
	).Guarded(formula.P("Go"))) // never true: updates queue, acks still flow
	p.Instance("f", "tau_f").Instance("g", "tau_g")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}})

	s := mustSystem(t, p, Options{AckTimeout: 10 * time.Second})
	defer s.Close()
	if err := s.StartInstance("f", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.StartInstance("g", nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const rounds = 3
	for i := 0; i < rounds; i++ {
		if err := s.Invoke(ctx, "f", "junction"); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if n := s.pendingAcks("f::junction", "g::junction"); n != 0 {
		t.Fatalf("%d waiters still pending after all pars completed", n)
	}
	w := s.window("f::junction", "g::junction")
	w.mu.Lock()
	cum, next := w.cum, w.nextSeq
	w.mu.Unlock()
	if next != rounds*width {
		t.Fatalf("window issued %d sequences, want %d", next, rounds*width)
	}
	if cum != next {
		t.Fatalf("cumulative frontier %d short of last issued seq %d", cum, next)
	}
}

// TestWatchdogFailsStalledWindow: when a peer accepts updates but never
// acks, the per-window progress watchdog must fail every in-flight update on
// the pair within a small multiple of AckTimeout — and leave no waiters
// behind.
func TestWatchdogFailsStalledWindow(t *testing.T) {
	const width = 8
	netA := compart.NewNetwork(1)
	defer netA.Close()
	s := mustSystem(t, blackholeProgram(width), Options{
		Deploy:     NewDeployment().AddLocation("local", netA),
		AckTimeout: 100 * time.Millisecond,
	})
	defer s.Close()
	if err := s.StartInstance("f", nil); err != nil {
		t.Fatal(err)
	}
	netA.Register("g::junction", func(compart.Message) {})

	start := time.Now()
	err := s.Invoke(context.Background(), "f", "junction")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("invoke succeeded with no acks")
	}
	// The watchdog bounds the oldest unacked update by ~2x AckTimeout; allow
	// generous scheduling slack on a loaded host.
	if elapsed > 2*time.Second {
		t.Fatalf("stalled window held the par for %v (AckTimeout 100ms)", elapsed)
	}
	if n := s.pendingAcks("f::junction", "g::junction"); n != 0 {
		t.Fatalf("%d waiters leaked after window failure", n)
	}
}

// TestMalformedAckFrames feeds the sender side of the ack plane what a socket
// can hand it: short and ragged payloads, an ack for a pair that has no
// window, a frontier behind the window's and extras outside every waiting
// range. One par of four asserts is in flight at a peer that never acks, so
// the pair's window holds one range waiter [1,4]; after each frame
// pendingAcks says exactly what was covered — a completed waiter would drop
// it to zero — and the legitimate ack at the end still completes the par.
func TestMalformedAckFrames(t *testing.T) {
	const width = 4
	netA := compart.NewNetwork(1)
	defer netA.Close()
	s := mustSystem(t, blackholeProgram(width), Options{
		Deploy:     NewDeployment().AddLocation("local", netA),
		AckTimeout: 30 * time.Second, // the watchdog must not end the wait
	})
	defer s.Close()
	if err := s.StartInstance("f", nil); err != nil {
		t.Fatal(err)
	}
	netA.Register("g::junction", func(compart.Message) {})
	const from, to = "f::junction", "g::junction"
	done := make(chan error, 1)
	go func() { done <- s.Invoke(context.Background(), "f", "junction") }()
	waitUntil(t, 5*time.Second, "the par to reach its ack wait", func() bool {
		return s.pendingAcks(from, to) == width
	})

	f := s.junctionQuiet("f", "junction")
	for _, c := range []struct {
		name    string
		peer    string
		payload []byte
		pending int // on the (from, to) pair once the frame is handled
	}{
		{"0 bytes", to, nil, 4},
		{"7 bytes: no whole frontier", to, appendAck(nil, 4, nil)[:7], 4},
		{"pair with no window", "h::junction", appendAck(nil, 4, nil), 4},
		{"8 bytes: frontier where the window's already is", to, appendAck(nil, 0, nil), 4},
		{"12 bytes: frontier, then half an extra", to, append(appendAck(nil, 2, nil), 0xde, 0xad, 0xbe, 0xef), 2},
		{"frontier below the window's", to, appendAck(nil, 1, nil), 2},
		{"16 bytes: extra above every waiting range", to, appendAck(nil, 2, []uint64{99}), 2},
		{"extra the frontier already covered", to, appendAck(nil, 2, []uint64{1}), 2},
		{"extra inside the range, twice", to, appendAck(nil, 2, []uint64{4, 4}), 1},
	} {
		f.handleMessage(compart.Message{From: c.peer, To: from, Kind: compart.KindAck, Payload: c.payload})
		if n := s.pendingAcks(from, to); n != c.pending {
			t.Fatalf("%s: %d acks pending, want %d", c.name, n, c.pending)
		}
		if n := s.pendingAcks(from, "h::junction"); n != 0 {
			t.Fatalf("%s: a window for an unknown pair holds %d waiters", c.name, n)
		}
	}
	select {
	case err := <-done:
		t.Fatalf("par completed with seq 3 never acknowledged: %v", err)
	default:
	}
	f.handleMessage(compart.Message{From: to, To: from, Kind: compart.KindAck, Payload: appendAck(nil, 4, nil)})
	if err := <-done; err != nil {
		t.Fatalf("par failed after its last ack: %v", err)
	}
	if n := s.pendingAcks(from, to); n != 0 {
		t.Fatalf("%d acks pending after the par completed", n)
	}
}

// TestHandleGroupAcksEachSenderOnce: groups from several senders that
// arrive back to back in one TCP write — as a transport pump's drained run
// does — are injected one by one and acknowledged one ack each, in arrival
// order: a's first group up to 2,
// b's up to 1, then a's group at 4 — out of order, so an extra beside the
// frontier — and a's group at 3, which closes the gap. A group whose payload
// does not decode (c's) is neither queued nor acknowledged.
func TestHandleGroupAcksEachSenderOnce(t *testing.T) {
	s := mustSystem(t, groupProgram(nil), Options{DisableDrivers: true})
	defer s.Close()
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var acks []string
	for _, from := range []string{"a::j", "b::j", "c::j"} {
		s.Net().Register(from, func(m compart.Message) {
			mu.Lock()
			acks = append(acks, fmt.Sprintf("%s%v", m.To, ackSeqs(m.Payload)))
			mu.Unlock()
		})
	}
	grp := func(from string, lo uint64, keys ...string) compart.Message {
		ups := make([]remoteUpdate, len(keys))
		for i, k := range keys {
			ups[i] = remoteUpdate{kind: compart.KindProp, key: k, flag: true}
		}
		return compart.Message{From: from, To: "g1::j", Kind: compart.KindGroup, Payload: appendGroup(nil, lo, ups)}
	}
	bad := grp("c::j", 1, "U")
	bad.Payload = bad.Payload[:len(bad.Payload)-1]
	// What a pump writes for a drained run: each message's length-prefixed
	// frame, one behind another.
	var run []byte
	for _, m := range []compart.Message{grp("a::j", 1, "U", "W"), grp("b::j", 1, "U"), bad, grp("a::j", 4, "U"), grp("a::j", 3, "U")} {
		body, err := compart.AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		run = append(binary.BigEndian.AppendUint32(run, uint32(len(body))), body...)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := compart.ServeTCP(s.Net(), l)
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(run); err != nil {
		t.Fatal(err)
	}
	sink := s.junctionQuiet("g1", "j")
	waitUntil(t, 5*time.Second, "the run's groups to be absorbed", func() bool {
		return sink.met.RemoteQueued.Load() == 5
	})
	waitUntil(t, 5*time.Second, "four acks", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(acks) >= 4
	})
	mu.Lock()
	got := fmt.Sprint(acks)
	mu.Unlock()
	if got != "[a::j[2] b::j[1] a::j[2 4] a::j[4]]" {
		t.Fatalf("acks %s, want one per group: a::j up to 2, b::j up to 1, a::j 2 with extra 4, a::j up to 4", got)
	}
	if ss := srv.Stats(); ss.Frames != 5 || ss.DecodeErrors != 0 {
		t.Fatalf("server stats %+v, want five frames", ss)
	}
	if n := sink.Table().ApplyPending(); n != 5 {
		t.Fatalf("the sink absorbed %d updates, want 5", n)
	}
}

// ackSeqs decodes an ack payload into its frontier and extras.
func ackSeqs(p []byte) []uint64 {
	var out []uint64
	for ; len(p) >= 8; p = p[8:] {
		out = append(out, binary.BigEndian.Uint64(p))
	}
	return out
}

// TestParArmFIFOTortureOverTCP is the ordering torture test: eight source
// junctions at location A each fire rounds of parallel asserts at one sink
// table at location B over real TCP uplinks with batching on. §6's
// per-channel FIFO guarantee must survive coalesced runs and cumulative
// acks: in the sink's trace, the remote.queued sequence numbers must be
// strictly increasing per source junction. And the par must cross as a
// group decided at compile time, not as whatever the pump happened to find
// queued: at most two frames per invocation reach either client (one group
// out, one cumulative ack back; the slack allows a split ack).
func TestParArmFIFOTortureOverTCP(t *testing.T) {
	const (
		nSrc   = 8
		width  = 16
		rounds = 5
	)
	build := func() *dsl.Program {
		p := dsl.NewProgram()
		arms := make(dsl.Par, width)
		for i := range arms {
			arms[i] = dsl.Assert{Target: dsl.J("sink", "main"), Prop: dsl.PR("U")}
		}
		p.Type("src").Junction("push", dsl.Def(nil, arms))
		p.Type("sinkT").Junction("main", dsl.Def(
			dsl.Decls(dsl.InitProp{Name: "U", Init: false}, dsl.InitProp{Name: "Go", Init: false}),
			dsl.Skip{},
		).Guarded(formula.P("Go")))
		starts := make(dsl.Par, 0, nSrc+1)
		for i := 0; i < nSrc; i++ {
			name := fmt.Sprintf("s%d", i)
			p.Instance(name, "src")
			starts = append(starts, dsl.Start{Instance: name})
		}
		p.Instance("sink", "sinkT")
		starts = append(starts, dsl.Start{Instance: "sink"})
		p.SetMain(starts)
		return p
	}

	// The ring sees both locations' events; it must not wrap before the
	// sink's last one.
	ring := obsv.NewRingSink(1 << 15)
	tl := newTCPLocations(t, compart.ReconnectConfig{}, nil)
	s := mustSystem(t, build(), Options{Deploy: tl.dep.Place("sink", "B"), AckTimeout: 10 * time.Second, Trace: ring})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, nSrc)
	for i := 0; i < nSrc; i++ {
		name := fmt.Sprintf("s%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := s.Invoke(ctx, name, "push"); err != nil {
					errs <- fmt.Errorf("%s round %d: %w", name, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every acked update was queued at the sink; replay the sink's trace and
	// check per-source sequence monotonicity.
	lastSeq := map[string]int64{}
	queued := map[string]int{}
	for _, e := range ring.Events() {
		if e.Kind != obsv.EvRemoteQueued || e.Junction != "sink::main" || e.Peer == "" {
			continue
		}
		if last, ok := lastSeq[e.Peer]; ok && e.N <= last {
			t.Fatalf("FIFO violated for %s: seq %d arrived after %d", e.Peer, e.N, last)
		}
		lastSeq[e.Peer] = e.N
		queued[e.Peer]++
	}
	if len(queued) != nSrc {
		t.Fatalf("trace saw %d source pairs, want %d (%v)", len(queued), nSrc, queued)
	}
	for peer, n := range queued {
		if n != width*rounds {
			t.Fatalf("%s: %d updates traced at the sink, want %d", peer, n, width*rounds)
		}
	}
	if ring.Dropped() != 0 {
		t.Fatalf("the trace ring wrapped, losing %d events", ring.Dropped())
	}
	if a, b := tl.dep.Net("A").Stats(), tl.dep.Net("B").Stats(); !a.Conserved() || !b.Conserved() {
		t.Fatalf("transport counters not conserved: A %+v B %+v", a, b)
	}
	for dir, c := range map[string]*compart.ReconnectClient{"A->B": tl.up["A"], "B->A": tl.up["B"]} {
		if st := c.Stats(); st.Enqueued == 0 || st.Enqueued > 2*nSrc*rounds {
			t.Fatalf("%s carried %d frames for %d invocations of %d arms, want at most 2 each", dir, st.Enqueued, nSrc*rounds, width)
		}
	}
}

// TestHandleGroupAllocations guards what a delivery group costs its
// receiver: nothing. A request hop — a write and an assert from one sender —
// lends its data to the table, which copies it into a buffer of its own that
// the next hop reuses, and the ack is encoded into a buffer the substrate
// borrows. A 96-member fan-out group of one proposition allocates nothing,
// as a group of two propositions does: no []kv.Update per group, no copy and
// no key string per member.
func TestHandleGroupAllocations(t *testing.T) {
	s := mustSystem(t, groupProgram(nil), Options{DisableDrivers: true})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Net().Register("a::j", func(compart.Message) {})
	sink := s.junctionQuiet("g1", "j")
	prop := func(n int) []remoteUpdate {
		ups := make([]remoteUpdate, n)
		for i := range ups {
			ups[i] = remoteUpdate{kind: compart.KindProp, key: "U", flag: i%2 == 0}
		}
		return ups
	}
	hop := []remoteUpdate{
		{kind: compart.KindData, key: "d", payload: make([]byte, 64)},
		{kind: compart.KindProp, key: "U", flag: true},
	}
	var seq uint64
	allocs := func(ups []remoteUpdate) float64 {
		m := compart.Message{From: "a::j", To: "g1::j", Kind: compart.KindGroup, Payload: appendGroup(nil, 1, ups)}
		return testing.AllocsPerRun(200, func() {
			binary.BigEndian.PutUint64(m.Payload, seq+1)
			seq += uint64(len(ups))
			sink.handleMessage(m)
			sink.Table().ApplyPending()
		})
	}
	if n := allocs(hop); n != 0 {
		t.Errorf("a hop of two allocates %v objects at its receiver, want 0", n)
	}
	two, wide := allocs(prop(2)), allocs(prop(96))
	if two != 0 || wide != 0 {
		t.Errorf("a group of 96 allocates %v objects, a group of two %v: want 0 each", wide, two)
	}
}
