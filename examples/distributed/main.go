// Distributed deployment example: the Fig. 3 architecture with its two
// instances at two locations ("machines"), each a substrate network behind
// its own TCP server, joined by one reconnecting client per direction — the
// deployment mode the paper's libcompart runtime targets, where "its
// channels wrap OS-provided IPC, including TCP sockets and pipes" (§3). One
// runtime.Deployment places f at A and g at B and registers each junction's
// proxy at the other location, so every update, write and acknowledgment
// crosses a real socket.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"csaw/internal/compart"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/runtime"
)

func program(onRemote func(state string)) *dsl.Program {
	p := dsl.NewProgram()
	p.Type("tau_f").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}, dsl.InitData{Name: "n"}),
		dsl.Save{Data: "n", From: func(dsl.HostCtx) ([]byte, error) {
			return []byte(fmt.Sprintf("snapshot@%s", time.Now().Format("15:04:05.000"))), nil
		}},
		dsl.Write{Data: "n", To: dsl.J("g", "junction")},
		dsl.Assert{Target: dsl.J("g", "junction"), Prop: dsl.PR("Work")},
		dsl.Wait{Cond: formula.Not(formula.P("Work"))},
	))
	p.Type("tau_g").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}, dsl.InitData{Name: "n"}),
		dsl.Restore{Data: "n", Into: func(_ dsl.HostCtx, b []byte) error {
			onRemote(string(b))
			return nil
		}},
		dsl.Retract{Target: dsl.J("f", "junction"), Prop: dsl.PR("Work")},
	).Guarded(formula.P("Work")))
	p.Instance("f", "tau_f").Instance("g", "tau_g")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}})
	return p
}

func main() {
	// Two machines, each with its own substrate network exposed over TCP.
	// (Here both live in one process; across processes each would serve its
	// own network and dial the other's address.)
	dep := runtime.NewDeployment()
	nets := map[string]*compart.Network{}
	servers := map[string]*compart.Server{}
	for i, loc := range []string{"A", "B"} {
		nets[loc] = compart.NewNetwork(int64(i + 1))
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		servers[loc] = compart.ServeTCP(nets[loc], l)
		defer servers[loc].Close()
		dep.AddLocation(loc, nets[loc])
	}
	fmt.Printf("machine A listening on %s (hosts instance f)\n", servers["A"].Addr())
	fmt.Printf("machine B listening on %s (hosts instance g)\n", servers["B"].Addr())

	// One reconnecting client per direction: a machine restart does not
	// sever the link permanently — the client redials with exponential
	// backoff, queues outbound traffic while down, and heartbeats detect
	// half-open connections.
	rcfg := compart.ReconnectConfig{Heartbeat: 250 * time.Millisecond}
	toB := compart.DialReconnect(servers["B"].Addr().String(), rcfg)
	defer toB.Close()
	toA := compart.DialReconnect(servers["A"].Addr().String(), rcfg)
	defer toA.Close()
	dep.Connect("A", "B", toB.Send).Connect("B", "A", toA.Send)
	dep.Place("f", "A").Place("g", "B")

	onRemote := func(state string) { fmt.Printf("machine B: received %q over TCP\n", state) }
	sys, err := runtime.New(program(onRemote), runtime.Options{Deploy: dep})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.RunMain(ctx); err != nil {
		log.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		fmt.Printf("machine A: invocation %d\n", i)
		if err := sys.Invoke(ctx, "f", "junction"); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("done: every assert/write/retract and its acknowledgment crossed real sockets")

	// The stats layer makes the transport observable: per-client counters,
	// per-server frame counts, per-link delivery latency, and conserved
	// network totals (Sent == Delivered + Dropped + Rejected + LostInFlight),
	// read once the last acknowledgment has landed.
	for deadline := time.Now().Add(time.Second); servers["B"].Stats().Frames < toB.Stats().Sent && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	cb := toB.Stats()
	fmt.Printf("uplink A→B: sent=%d (written by their senders %d) connects=%d heartbeats acked=%d send-latency mean=%s\n",
		cb.Sent, cb.Direct, cb.Connects, cb.HeartbeatsAcked, cb.SendLatency.Mean())
	sb := servers["B"].Stats()
	fmt.Printf("machine B server: frames=%d decode-errors=%d heartbeats=%d\n", sb.Frames, sb.DecodeErrors, sb.Heartbeats)
	for _, loc := range []string{"A", "B"} {
		st := nets[loc].Stats()
		fmt.Printf("network %s: %+v conserved=%v\n", loc, st, st.Conserved())
	}
}
