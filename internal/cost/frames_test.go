package cost_test

import (
	"context"
	"fmt"
	"net"
	goruntime "runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"csaw/internal/analysis"
	"csaw/internal/compart"
	"csaw/internal/cost"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/patterns"
	"csaw/internal/runtime"
)

// The model's FramesPerFiring says a par's updates to one peer cross as one
// frame. The runtime decides that grouping when it compiles the par, so what
// reaches an uplink per firing is a property of the program, not of which
// senders the scheduler happened to run before the transport pump: these
// tests count frames where a deployment hands them to its uplink and require
// the prediction exactly, at one P and at the default.

// frameTally counts the update-carrying frames each junction hands to an
// uplink: a plain update is one frame, an envelope is one frame however many
// updates it holds. Acks and anything not junction-addressed are skipped.
type frameTally struct {
	mu     sync.Mutex
	frames map[string]int
}

func (ft *frameTally) wrap(send runtime.Uplink) runtime.Uplink {
	return func(m compart.Message) error {
		from, isUpdate := m.From, m.Kind == compart.KindProp || m.Kind == compart.KindData
		if m.Kind == compart.KindBatch {
			inner, err := compart.DecodeBatch(m.Payload)
			if err != nil {
				return err
			}
			from, isUpdate = inner[0].From, true
			for _, im := range inner {
				if im.From != from || (im.Kind != compart.KindProp && im.Kind != compart.KindData) {
					return fmt.Errorf("envelope mixes senders or carries non-updates: %+v", im)
				}
			}
		}
		if isUpdate {
			ft.mu.Lock()
			ft.frames[from]++
			ft.mu.Unlock()
		}
		return send(m)
	}
}

// runOverTCP deploys prog on the placement's locations, each a network behind
// a loopback TCP server with a reconnecting client per directed pair, fires
// the root junction rounds times, and returns frames per firing per junction.
func runOverTCP(t *testing.T, prog *dsl.Program, placement map[string]string, rootInst, rootJn string, rounds int) map[string]float64 {
	t.Helper()
	locSet := map[string]bool{}
	for _, loc := range placement {
		locSet[loc] = true
	}
	var locs []string
	for loc := range locSet {
		locs = append(locs, loc)
	}
	sort.Strings(locs)
	dep := runtime.NewDeployment()
	addr := map[string]string{}
	for i, loc := range locs {
		nw := compart.NewNetwork(int64(i + 1))
		t.Cleanup(nw.Close)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := compart.ServeTCP(nw, l)
		t.Cleanup(srv.Close)
		addr[loc] = srv.Addr().String()
		dep.AddLocation(loc, nw)
	}
	tally := &frameTally{frames: map[string]int{}}
	for _, from := range locs {
		for _, to := range locs {
			if from == to {
				continue
			}
			c := compart.DialReconnect(addr[to], compart.ReconnectConfig{})
			t.Cleanup(func() { _ = c.Close() })
			dep.Connect(from, to, tally.wrap(c.Send))
		}
	}
	for inst, loc := range placement {
		dep.Place(inst, loc)
	}
	sys, err := runtime.New(prog, runtime.Options{Deploy: dep, AckTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		if err := sys.Invoke(ctx, rootInst, rootJn); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	// Junctions the root triggers finish their own firing (the ack of their
	// last update) a moment after the root's invocation returns.
	fires := map[string]uint64{}
	deadline := time.Now().Add(5 * time.Second)
	for settled := false; !settled; {
		settled = true
		for _, js := range sys.Metrics().Junctions {
			fires[js.Junction] = js.Fires
			tally.mu.Lock()
			sent := tally.frames[js.Junction]
			tally.mu.Unlock()
			if sent > 0 && js.Fires < uint64(rounds) {
				settled = false
			}
		}
		if !settled {
			if time.Now().After(deadline) {
				t.Fatalf("firings did not settle: %v", fires)
			}
			time.Sleep(time.Millisecond)
		}
	}
	perFiring := map[string]float64{}
	tally.mu.Lock()
	defer tally.mu.Unlock()
	for fq, n := range tally.frames {
		perFiring[fq] = float64(n) / float64(fires[fq])
	}
	return perFiring
}

// fanoutShape is one source junction s::push and sinks t0..t(sinks-1), with
// the given par as the source's body.
func fanoutShape(sinks int, body dsl.Expr) (*dsl.Program, map[string]string) {
	p := dsl.NewProgram()
	p.Type("src").Junction("push", dsl.Def(nil, body))
	p.Type("sinkT").Junction("main", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "U", Init: false}, dsl.InitProp{Name: "Go", Init: false}),
		dsl.Skip{},
	).Guarded(formula.P("Go")))
	placement := map[string]string{"s": "A"}
	starts := dsl.Par{dsl.Start{Instance: "s"}}
	p.Instance("s", "src")
	for i := 0; i < sinks; i++ {
		inst := fmt.Sprintf("t%d", i)
		p.Instance(inst, "sinkT")
		placement[inst] = "B"
		starts = append(starts, dsl.Start{Instance: inst})
	}
	p.SetMain(starts)
	return p, placement
}

func TestMeasuredFramesEqualFramesPerFiring(t *testing.T) {
	to := func(i int) dsl.Expr {
		return dsl.Assert{Target: dsl.J(fmt.Sprintf("t%d", i), "main"), Prop: dsl.PR("U")}
	}
	wide := make(dsl.Par, 96)
	spread := make(dsl.Par, 96)
	for i := range wide {
		wide[i] = to(0)
		spread[i] = to(i % 3)
	}
	elems := []string{"0", "0", "0", "0", "0"}
	type shape struct {
		name             string
		prog             *dsl.Program
		placement        map[string]string
		rootInst, rootJn string
	}
	mk := func(name string, sinks int, body dsl.Expr) shape {
		prog, placement := fanoutShape(sinks, body)
		return shape{name, prog, placement, "s", "push"}
	}
	shapes := []shape{
		mk("96 arms, one sink", 1, wide),
		mk("96 arms over three sinks", 3, spread),
		mk("for + over a set", 1, dsl.ForExpr(dsl.OpPar, elems, 0, func(string) dsl.Expr { return to(0) })),
		mk("parN", 1, dsl.ParN{N: 8, Body: []dsl.Expr{to(0)}}),
	}
	// The catalogue's pars of remote updates. parallel-sharding engages its
	// back-ends in parallel arms that each run a sequential exchange, so
	// nothing coalesces, in the model or on the wire. The failover entries'
	// pars sit behind registration handshakes whose drives depend on crash
	// timing (the reason the migration equivalence suite leaves them out too).
	for _, e := range patterns.Catalogue() {
		if e.Name == "parallel-sharding" {
			shapes = append(shapes, shape{e.Name, e.Build(), e.CostPlacement, patterns.FrontInstance, patterns.ShardJunction})
		}
	}
	for _, procs := range []int{1, goruntime.GOMAXPROCS(0)} {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s/P=%d", sh.name, procs), func(t *testing.T) {
				defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
				model := cost.Build(analysis.NewContext(sh.prog, 0))
				measured := runOverTCP(t, sh.prog, sh.placement, sh.rootInst, sh.rootJn, 20)
				checked := 0
				for _, fq := range model.Order {
					j := model.Junctions[fq]
					if j.Frames == 0 && measured[fq] == 0 {
						continue
					}
					checked++
					if measured[fq] != j.Frames {
						t.Errorf("%s: %v frames per firing on the uplink, model predicts %v (%v updates)", fq, measured[fq], j.Frames, j.Updates)
					}
				}
				if checked == 0 {
					t.Fatal("no junction sent anything")
				}
			})
		}
	}
}
