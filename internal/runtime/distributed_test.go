package runtime

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"csaw/internal/compart"
	"csaw/internal/dsl"
	"csaw/internal/formula"
)

// TestDistributedFig3OverTCP deploys the Fig. 3 architecture across two
// separate compart networks bridged by real TCP sockets — instance f on
// "machine A", instance g on "machine B" — exercising the full distributed
// story: serialized junction updates, acks and wait wake-ups all cross the
// wire.
func TestDistributedFig3OverTCP(t *testing.T) {
	var h2Ran atomic.Int32
	var restored atomic.Value

	build := func() *dsl.Program {
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
			dsl.Restore{Data: "n", Into: func(_ dsl.HostCtx, b []byte) error { restored.Store(string(b)); return nil }},
			dsl.Host{Label: "H2", Fn: func(dsl.HostCtx) error { h2Ran.Add(1); return nil }},
			dsl.Retract{Target: dsl.J("f", "junction"), Prop: dsl.PR("Work")},
		).Guarded(formula.P("Work")))
		p.Instance("f", "tau_f").Instance("g", "tau_g")
		p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}})
		return p
	}

	// Two "machines", each with its own substrate network.
	netA := compart.NewNetwork(1)
	netB := compart.NewNetwork(2)

	sysA, err := New(build(), Options{Net: netA})
	if err != nil {
		t.Fatal(err)
	}
	defer sysA.Close()
	sysB, err := New(build(), Options{Net: netB})
	if err != nil {
		t.Fatal(err)
	}
	defer sysB.Close()

	// Expose each network over TCP and bridge the remote junction endpoints.
	lA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvA := compart.ServeTCP(netA, lA)
	defer srvA.Close()
	lB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvB := compart.ServeTCP(netB, lB)
	defer srvB.Close()

	toB := compart.DialReconnect(srvB.Addr().String(), compart.ReconnectConfig{})
	defer toB.Close()
	toA := compart.DialReconnect(srvA.Addr().String(), compart.ReconnectConfig{})
	defer toA.Close()

	// Machine A hosts f and proxies g; machine B hosts g and proxies f.
	if err := sysA.StartInstance("f", nil); err != nil {
		t.Fatal(err)
	}
	if err := sysB.StartInstance("g", nil); err != nil {
		t.Fatal(err)
	}
	compart.BridgeReconnect(netA, "g::junction", toB)
	compart.BridgeReconnect(netB, "f::junction", toA)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if err := sysA.Invoke(ctx, "f", "junction"); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if h2Ran.Load() != 5 {
		t.Fatalf("H2 ran %d times on machine B, want 5", h2Ran.Load())
	}
	if got, _ := restored.Load().(string); got != "cross-machine state" {
		t.Fatalf("g restored %q", got)
	}
}

// TestDistributedRecoveryAfterServerRestart is the runtime-level fail-over
// story (§7.3, Fig 23a): the Fig. 3 architecture bridged over TCP with
// reconnecting clients keeps working after machine B's server is killed and
// restarted — post-restart invocations are delivered after backoff, and the
// reconnect is visible in the client's transport stats.
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

	netA := compart.NewNetwork(1)
	netB := compart.NewNetwork(2)
	sysA, err := New(build(), Options{Net: netA, AckTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer sysA.Close()
	sysB, err := New(build(), Options{Net: netB, AckTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer sysB.Close()

	lA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvA := compart.ServeTCP(netA, lA)
	defer srvA.Close()
	lB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB := lB.Addr().String()
	srvB := compart.ServeTCP(netB, lB)

	rcfg := compart.ReconnectConfig{
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
	}
	toB := compart.DialReconnect(addrB, rcfg)
	defer toB.Close()
	toA := compart.DialReconnect(srvA.Addr().String(), rcfg)
	defer toA.Close()

	if err := sysA.StartInstance("f", nil); err != nil {
		t.Fatal(err)
	}
	if err := sysB.StartInstance("g", nil); err != nil {
		t.Fatal(err)
	}
	compart.BridgeReconnect(netA, "g::junction", toB)
	compart.BridgeReconnect(netB, "f::junction", toA)

	// g's retract ends f's wait, and with it the invocation, before f's ack of
	// the retract is back at g. Killing the connection that carries that ack
	// would leave g's scheduling waiting for it, holding the junction for the
	// whole AckTimeout: let the ack land first.
	settle := func() {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); sysB.pendingAcks("g::junction", "f::junction") != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("g's retract was never acknowledged")
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sysA.Invoke(ctx, "f", "junction"); err != nil {
		t.Fatalf("pre-crash invoke: %v", err)
	}
	settle()

	// Kill machine B's server, wait until the bridge notices, restart on
	// the same address: the next invocation must go through after backoff.
	srvB.Close()
	deadline := time.Now().Add(2 * time.Second)
	for toB.Connected() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if toB.Connected() {
		t.Fatal("bridge never noticed the server died")
	}
	lB2, err := net.Listen("tcp", addrB)
	if err != nil {
		t.Fatal(err)
	}
	srvB2 := compart.ServeTCP(netB, lB2)
	defer srvB2.Close()

	if err := sysA.Invoke(ctx, "f", "junction"); err != nil {
		t.Fatalf("post-restart invoke: %v", err)
	}
	settle()
	if h2Ran.Load() != 2 {
		t.Fatalf("H2 ran %d times, want 2 (one per invocation, across the restart)", h2Ran.Load())
	}
	if st := toB.Stats(); st.Connects < 2 {
		t.Fatalf("reconnect not visible in bridge stats: %+v", st)
	}
	// The runtime's view of the substrate stays conserved.
	for _, s := range []*System{sysA, sysB} {
		if st := s.TransportStats(); !st.Conserved() {
			t.Fatalf("transport counters not conserved: %+v", st)
		}
	}
}

// TestPeerDownFailsFast: with a liveness-tracking bridge (BridgeLive) and a
// dead remote, remote updates fail immediately with ErrPeerDown instead of
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

	netA := compart.NewNetwork(1)
	// Huge AckTimeout: only transport-level liveness can fail the update
	// quickly.
	sysA, err := New(p, Options{Net: netA, AckTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer sysA.Close()
	if err := sysA.StartInstance("f", nil); err != nil {
		t.Fatal(err)
	}

	// A reconnecting client pointed at a dead address, bridged with
	// liveness tracking: the proxy endpoint stays down.
	rc := compart.DialReconnect("127.0.0.1:1", compart.ReconnectConfig{
		BackoffMin: time.Millisecond,
		BackoffMax: 5 * time.Millisecond,
	})
	defer rc.Close()
	compart.BridgeLive(netA, "g::junction", rc)

	start := time.Now()
	if err := sysA.Invoke(context.Background(), "f", "junction"); err != nil {
		t.Fatal(err)
	}
	if complained.Load() != 1 {
		t.Fatalf("complain ran %d times", complained.Load())
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("peer-down failure took %v; want fast failure, not an ack timeout", elapsed)
	}
	if !sysA.PeerUp("f", "junction") {
		t.Fatal("local junction should be up")
	}
	if sysA.PeerUp("g", "junction") {
		t.Fatal("bridged dead peer should report down")
	}
}

// TestDistributedTimeoutAcrossTCP verifies failure-awareness across the
// wire: when machine B's system goes down, f's otherwise handler fires.
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

	netA := compart.NewNetwork(1)
	sysA, err := New(p, Options{Net: netA, AckTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sysA.Close()
	if err := sysA.StartInstance("f", nil); err != nil {
		t.Fatal(err)
	}

	// Bridge g to a TCP endpoint that accepts but never acks (a hung peer).
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
	client := compart.DialReconnect(l.Addr().String(), compart.ReconnectConfig{})
	defer client.Close()
	compart.BridgeReconnect(netA, "g::junction", client)

	if err := sysA.Invoke(context.Background(), "f", "junction"); err != nil {
		t.Fatal(err)
	}
	if complained.Load() != 1 {
		t.Fatalf("complain ran %d times; a silent remote peer must trip otherwise[t]", complained.Load())
	}
}
