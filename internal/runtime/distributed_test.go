package runtime

import (
	"context"
	"net"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"csaw/internal/compart"
	"csaw/internal/dsl"
	"csaw/internal/events"
	"csaw/internal/formula"
	"csaw/internal/obsv"
)

// tcpLocations is a two-location Deployment in the shape of a TCP ledger
// run: locations A and B, each a compart.Network behind its own loopback
// compart.Server, joined by one compart.ReconnectClient per direction.
type tcpLocations struct {
	dep *Deployment
	srv map[string]*compart.Server          // by location
	up  map[string]*compart.ReconnectClient // by source location: up["A"] carries A→B
}

// newTCPLocations builds a tcpLocations whose clients use cfg. dial names,
// by source location, an address that location's uplink dials instead of the
// other location's server. Servers and clients close when the test ends.
func newTCPLocations(t *testing.T, cfg compart.ReconnectConfig, dial map[string]string) *tcpLocations {
	t.Helper()
	tl := &tcpLocations{dep: NewDeployment(), srv: map[string]*compart.Server{}, up: map[string]*compart.ReconnectClient{}}
	for i, loc := range []string{"A", "B"} {
		nw := compart.NewNetwork(int64(i + 1))
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := compart.ServeTCP(nw, l)
		t.Cleanup(srv.Close)
		tl.srv[loc] = srv
		tl.dep.AddLocation(loc, nw)
	}
	for from, to := range map[string]string{"A": "B", "B": "A"} {
		addr, ok := dial[from]
		if !ok {
			addr = tl.srv[to].Addr().String()
		}
		c := compart.DialReconnect(addr, cfg)
		t.Cleanup(func() { _ = c.Close() })
		tl.up[from] = c
		tl.dep.Connect(from, to, c.Send)
	}
	return tl
}

// TestDistributedFig3OverTCP deploys the Fig. 3 architecture across two
// locations joined by real TCP sockets — instance f at A, instance g at B —
// exercising the full distributed story: serialized junction updates, acks
// and wait wake-ups all cross the wire.
func TestDistributedFig3OverTCP(t *testing.T) {
	var h2Ran atomic.Int32
	var restored atomic.Value

	p := fig3(func(b []byte) { restored.Store(string(b)) }, func() { h2Ran.Add(1) })

	// Location A hosts f and proxies g; location B hosts g and proxies f.
	tl := newTCPLocations(t, compart.ReconnectConfig{}, nil)
	s := mustSystem(t, p, Options{Deploy: tl.dep.Place("f", "A").Place("g", "B")})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Invoke(ctx, "f", "junction"); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if h2Ran.Load() != 5 {
		t.Fatalf("H2 ran %d times on machine B, want 5", h2Ran.Load())
	}
	if got, _ := restored.Load().(string); got != "cross-machine state" {
		t.Fatalf("g restored %q", got)
	}
	if a, b := tl.srv["A"].Stats().Frames, tl.srv["B"].Stats().Frames; a == 0 || b == 0 {
		t.Fatalf("servers read %d frames at A and %d at B: the updates did not cross TCP", a, b)
	}
}

// fig3 builds the Fig. 3 program: f writes n to g, asserts g's Work and
// waits for it to be retracted; g, guarded on Work, restores n, runs H2 and
// retracts f's Work.
func fig3(restore func([]byte), h2 func()) *dsl.Program {
	p := dsl.NewProgram()
	p.Type("tau_f").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}, dsl.InitData{Name: "n"}),
		dsl.Save{Data: "n", From: func(dsl.HostCtx) ([]byte, error) { return []byte("cross-machine state"), nil }},
		dsl.Write{Data: "n", To: dsl.J("g", "junction")},
		dsl.Assert{Target: dsl.J("g", "junction"), Prop: dsl.PR("Work")},
		dsl.Wait{Cond: formula.Not(formula.P("Work"))},
	))
	p.Type("tau_g").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}, dsl.InitData{Name: "n"}),
		dsl.Restore{Data: "n", Into: func(_ dsl.HostCtx, b []byte) error { restore(b); return nil }},
		dsl.Host{Label: "H2", Fn: func(dsl.HostCtx) error { h2(); return nil }},
		dsl.Retract{Target: dsl.J("f", "junction"), Prop: dsl.PR("Work")},
	).Guarded(formula.P("Work")))
	p.Instance("f", "tau_f").Instance("g", "tau_g")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}})
	return p
}

// TestAckRidesReplyOverTCP: in the Fig. 3 deployment over TCP each group's
// ack is flagged — the group wakes its receiver's wait — so the receiving
// location holds it, and the group its receiver sends back carries it in the
// same write: g's retract carries its ack of f's group, and f's next
// invocation its ack of the retract. The uplinks count such writes as
// batches of two frames, frames per invocation stay four, and the run's trace
// is one the §8 denotation allows. It runs at one P, as the request ledger
// does: with an idle P the acking goroutine can be rescheduled before the
// woken junction has sent, and the ack leaves alone.
func TestAckRidesReplyOverTCP(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	const rounds = 20
	var h2Ran atomic.Int32
	p := fig3(func([]byte) {}, func() { h2Ran.Add(1) })
	tl := newTCPLocations(t, compart.ReconnectConfig{}, nil)
	ring := obsv.NewRingSink(1 << 14)
	s := mustSystem(t, p, Options{Deploy: tl.dep.Place("f", "A").Place("g", "B"), Trace: ring})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		if err := s.Invoke(ctx, "f", "junction"); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); s.pendingAcks("g::junction", "f::junction") != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("g's last retract was never acknowledged")
		}
	}
	if h2Ran.Load() != rounds {
		t.Fatalf("H2 ran %d times, want %d", h2Ran.Load(), rounds)
	}
	var sent, batches uint64
	for loc, up := range tl.up {
		st := up.Stats()
		if st.Enqueued != st.Sent || st.Dropped != 0 {
			t.Fatalf("uplink from %s: %+v", loc, st)
		}
		if st.MsgsPerBatch.Count != 0 && st.MsgsPerBatch.Max != 2 {
			t.Fatalf("uplink from %s wrote more than a frame and its ack at once: %+v", loc, st)
		}
		sent += st.Sent
		batches += st.BatchesSent
	}
	if sent != 4*rounds {
		t.Fatalf("uplinks sent %d frames, want 4 per invocation", sent)
	}
	t.Logf("%d of %d frames went out two to a write", 2*batches, sent)
	if batches < rounds {
		t.Fatalf("%d writes carried an ack with another frame over %d invocations, want at least %d", batches, rounds, rounds)
	}
	if err := events.ConformsProgram(s.Plan(), ring.Events()); err != nil {
		t.Fatalf("the run is not one the §8 denotation allows: %v", err)
	}
}

// TestHeldAckNotHostageToHostCode: g's host code spins for 200 ms on every
// scheduling, so the ack of f's assert is flagged (its wait woke, or it is
// mid-scheduling) and held; with a second P the acking goroutine's yield
// returns while g spins, and it writes the ack itself, so f's remote assert
// completes long before g's reply could carry it.
func TestHeldAckNotHostageToHostCode(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	p := dsl.NewProgram()
	p.Type("tau_f").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}),
		dsl.Assert{Target: dsl.J("g", "junction"), Prop: dsl.PR("Work")},
	))
	p.Type("tau_g").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}),
		dsl.Host{Label: "Spin", Fn: func(dsl.HostCtx) error {
			for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
			}
			return nil
		}},
		dsl.Retract{Prop: dsl.PR("Work")},
	).Guarded(formula.P("Work")))
	p.Instance("f", "tau_f").Instance("g", "tau_g")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}})

	tl := newTCPLocations(t, compart.ReconnectConfig{}, nil)
	s := mustSystem(t, p, Options{Deploy: tl.dep.Place("f", "A").Place("g", "B")})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := s.Invoke(ctx, "f", "junction"); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Fatalf("round %d: the remote assert took %v behind g's 200 ms of host code", i, d)
		}
	}
}

// TestDistributedRecoveryAfterServerRestart is the runtime-level fail-over
// story (§7.3, Fig 23a): the Fig. 3 architecture across two TCP-joined
// locations keeps working after location B's server is killed and restarted
// — post-restart invocations are delivered after backoff, and the reconnect
// is visible in the uplink's transport stats.
func TestDistributedRecoveryAfterServerRestart(t *testing.T) {
	var h2Ran atomic.Int32
	build := func() *dsl.Program {
		p := dsl.NewProgram()
		p.Type("tau_f").Junction("junction", dsl.Def(
			dsl.Decls(dsl.InitProp{Name: "Work", Init: false}),
			dsl.Assert{Target: dsl.J("g", "junction"), Prop: dsl.PR("Work")},
			dsl.Wait{Cond: formula.Not(formula.P("Work"))},
		))
		p.Type("tau_g").Junction("junction", dsl.Def(
			dsl.Decls(dsl.InitProp{Name: "Work", Init: false}),
			dsl.Host{Label: "H2", Fn: func(dsl.HostCtx) error { h2Ran.Add(1); return nil }},
			dsl.Retract{Target: dsl.J("f", "junction"), Prop: dsl.PR("Work")},
		).Guarded(formula.P("Work")))
		p.Instance("f", "tau_f").Instance("g", "tau_g")
		p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}})
		return p
	}

	tl := newTCPLocations(t, compart.ReconnectConfig{
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
	}, nil)
	toB, addrB := tl.up["A"], tl.srv["B"].Addr().String()
	s := mustSystem(t, build(), Options{Deploy: tl.dep.Place("f", "A").Place("g", "B"), AckTimeout: 5 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}

	// g's retract ends f's wait, and with it the invocation, before f's ack of
	// the retract is back at g. Killing the connection that carries that ack
	// would leave g's scheduling waiting for it, holding the junction for the
	// whole AckTimeout: let the ack land first.
	settle := func() {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); s.pendingAcks("g::junction", "f::junction") != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("g's retract was never acknowledged")
			}
		}
	}
	if err := s.Invoke(ctx, "f", "junction"); err != nil {
		t.Fatalf("pre-crash invoke: %v", err)
	}
	settle()

	// Kill location B's server, wait until the uplink notices, restart on
	// the same address: the next invocation must go through after backoff.
	tl.srv["B"].Close()
	deadline := time.Now().Add(2 * time.Second)
	for toB.Connected() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if toB.Connected() {
		t.Fatal("the uplink never noticed the server died")
	}
	lB2, err := net.Listen("tcp", addrB)
	if err != nil {
		t.Fatal(err)
	}
	srvB2 := compart.ServeTCP(tl.dep.Net("B"), lB2)
	defer srvB2.Close()

	if err := s.Invoke(ctx, "f", "junction"); err != nil {
		t.Fatalf("post-restart invoke: %v", err)
	}
	settle()
	if h2Ran.Load() != 2 {
		t.Fatalf("H2 ran %d times, want 2 (one per invocation, across the restart)", h2Ran.Load())
	}
	if st := toB.Stats(); st.Connects < 2 {
		t.Fatalf("reconnect not visible in the uplink's stats: %+v", st)
	}
	// The runtime's view of the substrate stays conserved.
	if st := s.TransportStats(); !st.Conserved() {
		t.Fatalf("transport counters not conserved: %+v", st)
	}
}

// TestPeerDownFailsFast: with the uplink's connection state crashing and
// reviving the remote junction's proxy (ReconnectClient.Notify) and a dead
// remote, remote updates fail immediately with ErrPeerDown instead of
// burning the full ack timeout.
func TestPeerDownFailsFast(t *testing.T) {
	var complained atomic.Int32
	p := dsl.NewProgram()
	p.Type("tau_f").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}),
		dsl.OtherwiseT(
			dsl.Assert{Target: dsl.J("g", "junction"), Prop: dsl.PR("Work")},
			10*time.Second,
			dsl.Host{Label: "complain", Fn: func(dsl.HostCtx) error { complained.Add(1); return nil }},
		),
	))
	p.Type("tau_g").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}),
		dsl.Skip{},
	).Guarded(formula.P("Work")))
	p.Instance("f", "tau_f").Instance("g", "tau_g")
	p.SetMain(dsl.Seq{dsl.Start{Instance: "f"}})

	// The A→B uplink dials a dead address.
	tl := newTCPLocations(t, compart.ReconnectConfig{
		BackoffMin: time.Millisecond,
		BackoffMax: 5 * time.Millisecond,
	}, map[string]string{"A": "127.0.0.1:1"})
	// Huge AckTimeout: only transport-level liveness can fail the update
	// quickly.
	s := mustSystem(t, p, Options{Deploy: tl.dep.Place("f", "A").Place("g", "B"), AckTimeout: 10 * time.Second})
	for _, inst := range []string{"f", "g"} {
		if err := s.StartInstance(inst, nil); err != nil {
			t.Fatal(err)
		}
	}
	// g's proxy at A follows the uplink's connection: it stays down.
	netA := tl.dep.Net("A")
	tl.up["A"].Notify(func(up bool) {
		if up {
			netA.Revive("g::junction")
		} else {
			netA.Crash("g::junction")
		}
	})

	start := time.Now()
	if err := s.Invoke(context.Background(), "f", "junction"); err != nil {
		t.Fatal(err)
	}
	if complained.Load() != 1 {
		t.Fatalf("complain ran %d times", complained.Load())
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("peer-down failure took %v; want fast failure, not an ack timeout", elapsed)
	}
	if !s.PeerUp("f", "junction") {
		t.Fatal("local junction should be up")
	}
	if netA.Up("g::junction") {
		t.Fatal("the dead peer's proxy at A should report down")
	}
}

// TestDistributedTimeoutAcrossTCP verifies failure-awareness across the
// wire: when location B stops answering, f's otherwise handler fires.
func TestDistributedTimeoutAcrossTCP(t *testing.T) {
	var complained atomic.Int32
	p := dsl.NewProgram()
	p.Type("tau_f").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}),
		dsl.OtherwiseT(
			dsl.Assert{Target: dsl.J("g", "junction"), Prop: dsl.PR("Work")},
			150*time.Millisecond,
			dsl.Host{Label: "complain", Fn: func(dsl.HostCtx) error { complained.Add(1); return nil }},
		),
	))
	p.Type("tau_g").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}),
		dsl.Skip{},
	).Guarded(formula.P("Work")))
	p.Instance("f", "tau_f").Instance("g", "tau_g")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}})

	// A TCP endpoint that accepts but never acks (a hung peer).
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	// g runs at B, but the A→B uplink dials the hung peer.
	tl := newTCPLocations(t, compart.ReconnectConfig{}, map[string]string{"A": l.Addr().String()})
	s := mustSystem(t, p, Options{Deploy: tl.dep.Place("f", "A").Place("g", "B"), AckTimeout: 150 * time.Millisecond})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}

	if err := s.Invoke(context.Background(), "f", "junction"); err != nil {
		t.Fatal(err)
	}
	if complained.Load() != 1 {
		t.Fatalf("complain ran %d times; a silent remote peer must trip otherwise[t]", complained.Load())
	}
}
