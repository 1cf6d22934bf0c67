package cost

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"csaw/internal/analysis"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/patterns"
	"csaw/internal/plan"
)

func modelOf(t *testing.T, p *dsl.Program) *Model {
	t.Helper()
	pp, err := plan.Compile(p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return Build(pp)
}

func nopSrc(dsl.HostCtx) ([]byte, error)                { return []byte{}, nil }
func nopSink(dsl.HostCtx, []byte) error                 { return nil }
func nopHandle(_ dsl.HostCtx, b []byte) ([]byte, error) { return bytes.Clone(b), nil }

func snapshotModel(t *testing.T) *Model {
	return modelOf(t, patterns.Snapshot(patterns.SnapshotConfig{
		Timeout: time.Second, Capture: nopSrc, Apply: nopSink,
	}))
}

func shardingModel(t *testing.T) *Model {
	return modelOf(t, patterns.Sharding(patterns.ShardingConfig{
		N: 4, Timeout: time.Second,
		Choose:         func(dsl.HostCtx) (int, error) { return 0, nil },
		CaptureRequest: nopSrc, HandleRequest: nopHandle, DeliverResponse: nopSink,
	}))
}

func edgeOf(t *testing.T, m *Model, from, to string) *Edge {
	t.Helper()
	for _, e := range m.Edges {
		if e.From == from && e.To == to {
			return e
		}
	}
	t.Fatalf("no edge %s -> %s in %+v", from, to, m.Edges)
	return nil
}

func TestSnapshotModel(t *testing.T) {
	m := snapshotModel(t)

	act := m.Junctions["Act::junction"]
	if act.Guard != GuardInvoked {
		t.Fatalf("Act guard = %q, want invoked", act.Guard)
	}
	// write(n, Aud); assert [Aud] Work are adjacent and share a destination:
	// two updates, one frame, one ack round.
	if act.Activation != 1 || act.Updates != 2 || act.Frames != 1 || act.Rounds != 1 {
		t.Fatalf("Act activation/updates/frames/rounds = %v/%v/%v/%v, want 1/2/1/1", act.Activation, act.Updates, act.Frames, act.Rounds)
	}

	aud := m.Junctions["Aud::junction"]
	if aud.Guard != GuardEvent {
		t.Fatalf("Aud guard = %q, want event", aud.Guard)
	}
	// Act's assert lands in Aud's guard read-set once per drive.
	if aud.Activation != 1 {
		t.Fatalf("Aud activation = %v, want 1", aud.Activation)
	}

	fwd := edgeOf(t, m, "Act::junction", "Aud::junction")
	if fwd.Updates != 2 || fwd.PerDrive != 2 {
		t.Fatalf("Act->Aud = %v/%v per firing/drive, want 2/2", fwd.Updates, fwd.PerDrive)
	}
	back := edgeOf(t, m, "Aud::junction", "Act::junction")
	if back.Updates != 1 || back.PerDrive != 1 {
		t.Fatalf("Aud->Act = %v/%v per firing/drive, want 1/1", back.Updates, back.PerDrive)
	}
	if len(m.Edges) != 2 {
		t.Fatalf("edges = %d, want 2", len(m.Edges))
	}
}

func TestShardingModel(t *testing.T) {
	m := shardingModel(t)

	fnt := m.Junctions["Fnt::junction"]
	if fnt.Guard != GuardInvoked || fnt.Updates != 2 {
		t.Fatalf("Fnt guard/updates = %q/%v, want invoked/2", fnt.Guard, fnt.Updates)
	}
	for i := 1; i <= 4; i++ {
		bck := "Bck" + string(rune('0'+i)) + "::junction"
		j := m.Junctions[bck]
		if j.Guard != GuardEvent {
			t.Fatalf("%s guard = %q, want event", bck, j.Guard)
		}
		// The idx-selected assert reaches each shard 1/4 of the time.
		if j.Activation != 0.25 {
			t.Fatalf("%s activation = %v, want 0.25", bck, j.Activation)
		}
		fwd := edgeOf(t, m, "Fnt::junction", bck)
		if fwd.Updates != 0.5 || fwd.PerDrive != 0.5 {
			t.Fatalf("Fnt->%s = %v/%v, want 0.5/0.5", bck, fwd.Updates, fwd.PerDrive)
		}
		back := edgeOf(t, m, bck, "Fnt::junction")
		if back.Updates != 2 || back.PerDrive != 0.5 {
			t.Fatalf("%s->Fnt = %v/%v, want 2/0.5", bck, back.Updates, back.PerDrive)
		}
	}
	if len(m.Edges) != 8 {
		t.Fatalf("edges = %d, want 8", len(m.Edges))
	}
}

func TestCachingModel(t *testing.T) {
	m := modelOf(t, patterns.Caching(patterns.CachingConfig{
		Timeout:        time.Second,
		CheckCacheable: func(dsl.HostCtx) (bool, error) { return true, nil },
		LookupCache:    func(dsl.HostCtx) (bool, error) { return false, nil },
		CaptureRequest: nopSrc, DeliverResponse: nopSink,
		UpdateCache: func(dsl.HostCtx) error { return nil },
		ComputeF:    nopHandle,
	}))
	fwd := edgeOf(t, m, "Cache::junction", "Fun::junction")
	if fwd.PerDrive != 2 {
		t.Fatalf("Cache->Fun per drive = %v, want 2", fwd.PerDrive)
	}
	back := edgeOf(t, m, "Fun::junction", "Cache::junction")
	if back.PerDrive != 2 {
		t.Fatalf("Fun->Cache per drive = %v, want 2", back.PerDrive)
	}
}

func TestParallelShardingModel(t *testing.T) {
	m := modelOf(t, patterns.ParallelSharding(patterns.ParallelShardingConfig{
		N: 3, Timeout: time.Second,
		ChooseSet:      func(dsl.HostCtx) ([]int, error) { return []int{0, 1, 2}, nil },
		CaptureRequest: nopSrc, HandleRequest: nopHandle,
	}))
	for i := 1; i <= 3; i++ {
		bck := "Bck" + string(rune('0'+i)) + "::junction"
		fwd := edgeOf(t, m, "Fnt::junction", bck)
		if fwd.Updates != 2 || fwd.PerDrive != 2 {
			t.Fatalf("Fnt->%s = %v/%v, want 2/2", bck, fwd.Updates, fwd.PerDrive)
		}
		back := edgeOf(t, m, bck, "Fnt::junction")
		if back.Updates != 1 || back.PerDrive != 1 {
			t.Fatalf("%s->Fnt = %v/%v, want 1/1", bck, back.Updates, back.PerDrive)
		}
	}
	// ForExpr nests Par{b1, Par{b2, b3}}: both levels fan out across
	// distinct peers, and nothing coalesces across arms.
	fnt := m.Junctions["Fnt::junction"]
	if len(fnt.Fanouts) != 2 {
		t.Fatalf("fanouts = %+v, want 2 sites", fnt.Fanouts)
	}
	if got := len(fnt.Fanouts[0].Peers) + len(fnt.Fanouts[1].Peers); got != 5 {
		t.Fatalf("fanout peers = %+v, want 3 outer + 2 inner", fnt.Fanouts)
	}
	// Inside each arm write(n, b); assert [b] Work[b] are adjacent: one frame
	// per engaged back-end, and the arms overlap, so one round.
	if fnt.Updates != 6 || fnt.Frames != 3 || fnt.Rounds != 1 {
		t.Fatalf("updates/frames/rounds = %v/%v/%v, want 6/3/1", fnt.Updates, fnt.Frames, fnt.Rounds)
	}
}

// coalesceProgram sends two par arms to the same peer junction: delivery
// groups pack each wave into one frame per destination.
func coalesceProgram() *dsl.Program {
	p := dsl.NewProgram()
	peer := dsl.J("b", "j")
	p.Type("TA").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitData{Name: "n"}),
		dsl.Par{
			dsl.Write{Data: "n", To: peer},
			dsl.Write{Data: "n", To: peer},
		},
	))
	p.Type("TB").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitData{Name: "n"}),
		dsl.Skip{},
	))
	p.Instance("a", "TA").Instance("b", "TB")
	p.SetMain(dsl.Par{dsl.Start{Instance: "a"}, dsl.Start{Instance: "b"}})
	return p
}

func TestParCoalescing(t *testing.T) {
	m := modelOf(t, coalesceProgram())
	j := m.Junctions["a::j"]
	if j.Updates != 2 {
		t.Fatalf("updates = %v, want 2", j.Updates)
	}
	if j.Frames != 1 {
		t.Fatalf("frames = %v, want 1 (two same-peer arms coalesce)", j.Frames)
	}
	if len(j.Fanouts) != 0 {
		t.Fatalf("unexpected fanouts %+v for a single-peer par", j.Fanouts)
	}
}

// pingPongProgram exchanges two wait-separated rounds with instance b and
// interleaves updates to a second junction of its own instance, which must
// not count as ping-pong.
func pingPongProgram() *dsl.Program {
	p := dsl.NewProgram()
	p.Type("TA").
		Junction("j", dsl.Def(
			dsl.Decls(dsl.InitProp{Name: "Ack", Init: false}),
			dsl.Assert{Target: dsl.J("b", "j"), Prop: dsl.PR("Ping")},
			dsl.Assert{Target: dsl.J("a", "k"), Prop: dsl.PR("Local")},
			dsl.Wait{Cond: formula.P("Ack")},
			dsl.Assert{Target: dsl.J("b", "j"), Prop: dsl.PR("Pong")},
			dsl.Assert{Target: dsl.J("a", "k"), Prop: dsl.PR("Local")},
		)).
		Junction("k", dsl.Def(
			dsl.Decls(dsl.InitProp{Name: "Local", Init: false}),
			dsl.Retract{Prop: dsl.PR("Local")},
		).Guarded(formula.P("Local")))
	p.Type("TB").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Ping", Init: false}, dsl.InitProp{Name: "Pong", Init: false}),
		dsl.Retract{Prop: dsl.PR("Ping")},
	).Guarded(formula.P("Ping")))
	p.Instance("a", "TA").Instance("b", "TB")
	p.SetMain(dsl.Par{dsl.Start{Instance: "a"}, dsl.Start{Instance: "b"}})
	return p
}

func TestPingPongDetection(t *testing.T) {
	m := modelOf(t, pingPongProgram())
	j := m.Junctions["a::j"]
	if len(j.PingPongs) != 1 {
		t.Fatalf("ping-pongs = %+v, want exactly the b::j exchange", j.PingPongs)
	}
	pp := j.PingPongs[0]
	if pp.Peer != "b::j" || pp.Rounds != 2 {
		t.Fatalf("ping-pong = %+v, want 2 rounds with b::j", pp)
	}

	// The same-instance a::k exchange crosses the wait too, but instance-
	// internal protocols never pay wire latency.
	for _, got := range j.PingPongs {
		if got.Peer == "a::k" {
			t.Fatalf("same-instance exchange flagged: %+v", got)
		}
	}

	rep, err := analysis.Analyze(pingPongProgram(), &analysis.Config{
		Passes:    Passes(),
		Placement: map[string]string{"a": "edge", "b": "core"},
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range rep.Diagnostics {
		if d.Pass == "costpingpong" {
			found = true
			if d.Severity != analysis.SevWarning {
				t.Fatalf("cross-location ping-pong severity = %v, want warning: %+v", d.Severity, d)
			}
		}
	}
	if !found {
		t.Fatalf("costpingpong reported nothing: %+v", rep.Diagnostics)
	}
}

func TestGuardClassesWatchedFailover(t *testing.T) {
	m := modelOf(t, patterns.WatchedFailover(patterns.WatchedFailoverConfig{
		Timeout:        time.Second,
		PrepareRequest: nopSrc, HandleRequest: nopHandle, DeliverResponse: nopSink,
	}))
	for _, jn := range []string{"w::cs", "w::co", "w::cunrecov"} {
		j := m.Junctions[jn]
		if j == nil || j.Guard != GuardEvent {
			t.Fatalf("%s guard = %+v, want event (reads @running of other instances, woken by their liveness cells)", jn, j)
		}
		if len(j.GuardReads) == 0 {
			t.Fatalf("%s records no guard reads", jn)
		}
	}
}

func TestSnapshotCostPassesClean(t *testing.T) {
	p := patterns.Snapshot(patterns.SnapshotConfig{Timeout: time.Second, Capture: nopSrc, Apply: nopSink})
	rep, err := analysis.Analyze(p, &analysis.Config{
		Passes:    Passes(),
		Placement: map[string]string{"Act": "app", "Aud": "audit"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Empty() {
		t.Fatalf("snapshot should grade clean even split across locations, got %+v", rep.Diagnostics)
	}
}

func TestOptimizeSharding(t *testing.T) {
	m := shardingModel(t)
	placement := map[string]string{
		"Fnt": "edge", "Bck1": "core", "Bck2": "core", "Bck3": "core", "Bck4": "core",
	}
	if got := CrossTraffic(m, placement); got != 4 {
		t.Fatalf("initial cross traffic = %v, want 4", got)
	}
	final, moves := Optimize(m, placement, map[string]bool{"Fnt": true, "Bck1": true, "Bck2": true}, nil)
	if len(moves) != 2 {
		t.Fatalf("moves = %+v, want Bck3 and Bck4 relocated", moves)
	}
	for _, mv := range moves {
		if mv.To != "edge" || mv.Delta != -1 {
			t.Fatalf("move = %+v, want ->edge with delta -1", mv)
		}
	}
	if final["Bck3"] != "edge" || final["Bck4"] != "edge" || final["Bck1"] != "core" {
		t.Fatalf("final placement = %v", final)
	}
	if got := CrossTraffic(m, final); got != 2 {
		t.Fatalf("final cross traffic = %v, want 2", got)
	}
	// The input placement is never mutated.
	if placement["Bck3"] != "core" {
		t.Fatalf("Optimize mutated its input: %v", placement)
	}
}

func TestOptimizeRespectsGuardColocation(t *testing.T) {
	// A guard reading another instance's table pins the pair together no
	// matter what update traffic a split would save.
	p := dsl.NewProgram()
	p.Type("TA").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitData{Name: "n"}),
		dsl.Write{Data: "n", To: dsl.J("b", "j")},
	))
	p.Type("TB").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}, dsl.InitData{Name: "n"}),
		dsl.Skip{},
	).Guarded(formula.At("a::watch", "Work")))
	p.Type("TW").Junction("watch", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}),
		dsl.Retract{Prop: dsl.PR("Work")},
	))
	p.Instance("a", "TW").Instance("b", "TB").Instance("src", "TA")
	p.SetMain(dsl.Par{dsl.Start{Instance: "a"}, dsl.Start{Instance: "b"}, dsl.Start{Instance: "src"}})
	m := modelOf(t, p)

	// b's guard reads a::watch: moving b next to the src traffic would save
	// updates but break the guard, so b must stay with a.
	placement := map[string]string{"a": "x", "b": "x", "src": "y"}
	final, _ := Optimize(m, placement, map[string]bool{"a": true, "src": true}, nil)
	if final["b"] != "x" {
		t.Fatalf("optimizer split a guard-read pair: %v", final)
	}
}

func TestReportCrossAccounting(t *testing.T) {
	m := snapshotModel(t)
	rep := m.Report(map[string]string{"Act": "app", "Aud": "audit"})
	if rep.CrossUpdatesPerDrive != 3 {
		t.Fatalf("cross per drive = %v, want 3", rep.CrossUpdatesPerDrive)
	}
	for _, e := range rep.Edges {
		if !e.Cross {
			t.Fatalf("edge %+v should be cross under a split placement", e)
		}
	}
	rep = m.Report(nil)
	if rep.CrossUpdatesPerDrive != 0 {
		t.Fatalf("co-located cross per drive = %v, want 0", rep.CrossUpdatesPerDrive)
	}
}

// TestCrossLocationReadsAreErrors: costpoll reports a qualified read only
// when its junction sits at another location — an error, worded for a guard
// or a body condition, with the value the read collapses to — and nothing
// when the two share a location, where the runtime watches the table it reads.
func TestCrossLocationReadsAreErrors(t *testing.T) {
	p := patterns.WatchedFailover(patterns.WatchedFailoverConfig{
		Timeout:        time.Second,
		PrepareRequest: nopSrc, HandleRequest: nopHandle, DeliverResponse: nopSink,
	})
	analyze := func(placement map[string]string) []analysis.Diagnostic {
		rep, err := analysis.Analyze(p, &analysis.Config{Passes: []*analysis.Pass{CrossReads}, Placement: placement})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Diagnostics
	}
	if ds := analyze(map[string]string{"f": "site", "o": "site", "s": "site", "w": "site"}); len(ds) != 0 {
		t.Fatalf("same-location reads reported: %+v", ds)
	}
	want := map[string]string{
		"w::cs/guard":                  `liveness predicate "@running" of o::junction is read across locations: over a transport bridge the read evaluates False, so the guard can never become definitely true`,
		"o::junction/body[3]/scope[1]": `proposition "Reply" of s::junction is read across locations: over a transport bridge the read evaluates Unknown, so this condition can never become definitely true`,
	}
	ds := analyze(map[string]string{"f": "site", "o": "far", "s": "site", "w": "site"})
	for _, d := range ds {
		if d.Severity != analysis.SevError {
			t.Errorf("cross-location read graded %v, want error: %+v", d.Severity, d)
		}
		if prefix, ok := want[d.Pos]; ok && strings.HasPrefix(d.Msg, prefix) {
			delete(want, d.Pos)
		}
	}
	for pos, msg := range want {
		t.Errorf("no finding at %s reading %q in %+v", pos, msg, ds)
	}
}
