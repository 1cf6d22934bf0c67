// Distributed deployment example: the Fig. 3 architecture with its two
// instances on two separate substrate networks ("machines") bridged over
// real TCP sockets — the deployment mode the paper's libcompart runtime
// targets, where "its channels wrap OS-provided IPC, including TCP sockets
// and pipes" (§3).
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
	// Two machines, each with its own substrate network. (In a real
	// deployment these are two processes; the bridging code is identical.)
	netA := compart.NewNetwork(1)
	netB := compart.NewNetwork(2)

	onRemote := func(state string) { fmt.Printf("machine B: received %q over TCP\n", state) }
	sysA, err := runtime.New(program(onRemote), runtime.Options{Net: netA})
	if err != nil {
		log.Fatal(err)
	}
	defer sysA.Close()
	sysB, err := runtime.New(program(onRemote), runtime.Options{Net: netB})
	if err != nil {
		log.Fatal(err)
	}
	defer sysB.Close()

	// Expose each machine's junctions over TCP.
	lA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srvA := compart.ServeTCP(netA, lA)
	defer srvA.Close()
	lB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srvB := compart.ServeTCP(netB, lB)
	defer srvB.Close()
	fmt.Printf("machine A listening on %s (hosts instance f)\n", srvA.Addr())
	fmt.Printf("machine B listening on %s (hosts instance g)\n", srvB.Addr())

	// Each machine starts its own instance and proxies the other's junction.
	if err := sysA.StartInstance("f", nil); err != nil {
		log.Fatal(err)
	}
	if err := sysB.StartInstance("g", nil); err != nil {
		log.Fatal(err)
	}
	// Reconnecting clients: a machine restart no longer severs the bridge
	// permanently — the client redials with exponential backoff, queues
	// outbound traffic while down, and heartbeats detect half-open
	// connections.
	rcfg := compart.ReconnectConfig{Heartbeat: 250 * time.Millisecond}
	toB := compart.DialReconnect(srvB.Addr().String(), rcfg)
	defer toB.Close()
	toA := compart.DialReconnect(srvA.Addr().String(), rcfg)
	defer toA.Close()
	compart.BridgeReconnect(netA, "g::junction", toB)
	compart.BridgeReconnect(netB, "f::junction", toA)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 1; i <= 3; i++ {
		fmt.Printf("machine A: invocation %d\n", i)
		if err := sysA.Invoke(ctx, "f", "junction"); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("done: every assert/write/retract and its acknowledgment crossed real sockets")

	// The stats layer makes the transport observable: per-client counters,
	// per-server frame counts, per-link delivery latency, and conserved
	// network totals (Sent == Delivered + Dropped + Rejected + LostInFlight).
	cb := toB.Stats()
	fmt.Printf("bridge A→B: sent=%d (written by their senders %d) connects=%d heartbeats acked=%d send-latency mean=%s\n",
		cb.Sent, cb.Direct, cb.Connects, cb.HeartbeatsAcked, cb.SendLatency.Mean())
	fmt.Printf("machine B server: frames=%d decode-errors=%d heartbeats=%d\n",
		srvB.Stats().Frames, srvB.Stats().DecodeErrors, srvB.Stats().Heartbeats)
	for _, n := range []*compart.Network{netA, netB} {
		st := n.Stats()
		fmt.Printf("network: %+v conserved=%v\n", st, st.Conserved())
	}
}
