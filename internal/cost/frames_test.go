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

	"csaw/internal/compart"
	"csaw/internal/cost"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/obsv"
	"csaw/internal/patterns"
	"csaw/internal/plan"
	"csaw/internal/runtime"
)

// The model's FramesPerFiring says a par's updates to one peer cross as one
// frame, and so do adjacent updates of a sequence to one peer. The runtime
// decides both groupings when it compiles the body (by the same two rules in
// internal/plan), so what reaches an uplink per firing is a property of the
// program, not of which senders the scheduler happened to run before the
// transport pump: these tests count frames where a deployment hands them to
// its uplink and require the prediction exactly, at one P and at the default.

// frameTally counts the update-carrying frames each junction hands to an
// uplink: a group message is one frame however many updates it holds. Acks
// and anything not junction-addressed are skipped.
type frameTally struct {
	mu     sync.Mutex
	frames map[string]int
}

func (ft *frameTally) wrap(send runtime.Uplink) runtime.Uplink {
	return func(m compart.Message) error {
		if m.Kind == compart.KindGroup {
			ft.mu.Lock()
			ft.frames[m.From]++
			ft.mu.Unlock()
		}
		return send(m)
	}
}

// startOverTCP deploys prog with one location per location name in placement,
// each a network behind a loopback TCP server with a reconnecting client per
// directed pair, and runs its main. wrap (when non-nil) intercepts every
// uplink; trace (when non-nil) receives the system's trace. Everything it
// opens is closed at test cleanup.
// mustCompile lowers a program the test knows to be valid.
func mustCompile(t *testing.T, p *dsl.Program) *plan.Program {
	t.Helper()
	pp, err := plan.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

func startOverTCP(t *testing.T, prog *dsl.Program, placement map[string]string, wrap func(runtime.Uplink) runtime.Uplink, trace obsv.Sink) *runtime.System {
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
	for _, from := range locs {
		for _, to := range locs {
			if from == to {
				continue
			}
			c := compart.DialReconnect(addr[to], compart.ReconnectConfig{})
			t.Cleanup(func() { _ = c.Close() })
			send := runtime.Uplink(c.Send)
			if wrap != nil {
				send = wrap(send)
			}
			dep.Connect(from, to, send)
		}
	}
	for inst, loc := range placement {
		dep.Place(inst, loc)
	}
	sys, err := runtime.New(prog, runtime.Options{Deploy: dep, AckTimeout: 10 * time.Second, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	return sys
}

// runOverTCP deploys prog over loopback TCP (startOverTCP), fires the root
// junction rounds times, and returns frames per firing for every junction
// that fired.
func runOverTCP(t *testing.T, prog *dsl.Program, placement map[string]string, rootInst, rootJn string, rounds int) map[string]float64 {
	t.Helper()
	tally := &frameTally{frames: map[string]int{}}
	sys := startOverTCP(t, prog, placement, tally.wrap, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
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
	for fq, n := range fires {
		if n > 0 {
			perFiring[fq] = float64(tally.frames[fq]) / float64(n)
		}
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
	// A par whose arms are sequences: the plain arms leave as one group per
	// sink, each sequence arm sends its own straight-line run — two to one sink
	// as one frame, then a change of sink mid-run as two.
	shapes = append(shapes, mk("par with Seq arms", 2, dsl.Par{
		dsl.Seq{to(0), to(0)}, to(0), to(1), dsl.Seq{to(1), to(0), to(0)},
	}))
	// The catalogue's request/response entries under their recorded
	// placements: every hop is write(n, tgt); assert [tgt] Work out and
	// write(m, front); retract [front] Work back, one frame each way.
	// parallel-sharding runs that exchange inside parallel arms, one frame per
	// engaged back-end. The failover entries sit behind registration
	// handshakes whose drives depend on crash timing (the reason the migration
	// equivalence suite leaves them out too); watched-failover, pinned to one
	// site, is measured in process below.
	roots := map[string][2]string{
		"snapshot":          {patterns.ActInstance, patterns.SnapshotJunction},
		"sharding":          {patterns.FrontInstance, patterns.ShardJunction},
		"parallel-sharding": {patterns.FrontInstance, patterns.ShardJunction},
		"caching":           {patterns.CacheInstance, patterns.CacheJunction},
	}
	for _, e := range patterns.Catalogue() {
		if root, ok := roots[e.Name]; ok {
			shapes = append(shapes, shape{e.Name, e.Build(), e.CostPlacement, root[0], root[1]})
		}
	}
	for _, procs := range []int{1, goruntime.GOMAXPROCS(0)} {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s/P=%d", sh.name, procs), func(t *testing.T) {
				defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
				model := cost.Build(mustCompile(t, sh.prog))
				measured := runOverTCP(t, sh.prog, sh.placement, sh.rootInst, sh.rootJn, 20)
				checked := 0
				for _, fq := range model.Order {
					j := model.Junctions[fq]
					got, fired := measured[fq]
					if !fired || (j.Frames == 0 && got == 0) {
						continue // e.g. the shards this drive never routes to
					}
					checked++
					if got != j.Frames {
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

// TestMeasuredFramesWatchedFailover: the watched fail-over's placement pins
// all four instances to one site (the arbiter reads liveness in process), so
// its frames are counted from the trace instead of an uplink: an update
// delivered alone is a frame, a delivery group is one frame however many
// updates it holds. The primary's reply — write(m, f); assert [f] Reply — is
// the catalogue's one run that must NOT group: the standby reads o@Reply, so
// the assert's local half may not be applied ahead of the write's ack
// (plan.UpdateRun), and model and runtime have to agree on that too. The
// model charges every case alternative of a firing, so junctions that take one
// alternative per firing (f, the standby) are bounded by it, not equal to it.
func TestMeasuredFramesWatchedFailover(t *testing.T) {
	e, ok := patterns.CatalogueEntryByName("watched-failover")
	if !ok {
		t.Fatal("watched-failover entry missing")
	}
	prog := e.Build()
	model := cost.Build(mustCompile(t, prog))
	ring := obsv.NewRingSink(1 << 14)
	sys, err := runtime.New(prog, runtime.Options{Trace: ring, AckTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	front, err := sys.Junction(patterns.WatchedFront, patterns.WatchedJunction)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		if err := sys.InvokeWhenReady(ctx, patterns.WatchedFront, patterns.WatchedJunction); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		// The standby clears Run[s] at f a moment after the primary's reply
		// completed the round; the next round verifies both are clear.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			front.Table().ApplyPending()
			o, _ := front.Table().Prop(dsl.IndexedName("Run", patterns.PrimaryBackend))
			s, _ := front.Table().Prop(dsl.IndexedName("Run", patterns.StandbyBackend))
			if !o && !s {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: back-ends never cleared Run at f", i)
			}
		}
	}
	frames := map[string]float64{}
	for _, ev := range ring.Events() {
		switch ev.Kind {
		case obsv.EvRemoteQueued:
			frames[ev.Peer]++
		case obsv.EvRemoteBatch:
			frames[ev.Peer] -= float64(ev.N - 1)
		}
	}
	fires := map[string]float64{}
	for _, js := range sys.Metrics().Junctions {
		fires[js.Junction] = float64(js.Fires)
	}
	for fq, exact := range map[string]bool{"o::junction": true, "f::junction": false, "s::junction": false} {
		measured, predicted := frames[fq]/fires[fq], model.Junctions[fq].Frames
		if fires[fq] != rounds {
			t.Errorf("%s fired %v times, want %d", fq, fires[fq], rounds)
		}
		if measured > predicted || (exact && measured != predicted) {
			t.Errorf("%s: %v frames per firing, model predicts %v (exact: %v)", fq, measured, predicted, exact)
		}
	}
	if got := model.Junctions["o::junction"].Frames; got != 3 {
		t.Errorf("o::junction predicted %v frames, want 3: retract Run, then write(m) and assert Reply apart", got)
	}
}
