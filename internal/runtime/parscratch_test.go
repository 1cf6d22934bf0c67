package runtime

// A compiled par and a straight-line run of remote updates work in scratch
// their step owns (compiled.go): a firing allocates nothing of its own, and
// what one firing leaves in the scratch — an error, a signal, a group, a
// payload — never reaches the next.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

// assertsToG1 is n arms asserting U at g1::j, the shape of the ledger's
// update_fanout request.
func assertsToG1(n int) []dsl.Expr {
	arms := make([]dsl.Expr, n)
	for i := range arms {
		arms[i] = dsl.Assert{Target: g(1), Prop: dsl.PR("U")}
	}
	return arms
}

// firingAllocs is what one Invoke of f::j's body allocates, in the steady
// state of a system started on it.
func firingAllocs(t *testing.T, body dsl.Expr) float64 {
	t.Helper()
	s := mustSystem(t, groupProgram(nil, body), Options{})
	ctx := context.Background()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	fire := func() {
		if err := s.Invoke(ctx, "f", "j"); err != nil {
			t.Fatal(err)
		}
	}
	fire()
	return testing.AllocsPerRun(200, fire)
}

func TestParFiringAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts through the receiver's update-slice pool vary under the race detector")
	}
	par2 := firingAllocs(t, dsl.Par(assertsToG1(2)))
	par96 := firingAllocs(t, dsl.Par(assertsToG1(96)))
	seq2 := firingAllocs(t, dsl.Seq(assertsToG1(2)))
	seq96 := firingAllocs(t, dsl.Seq(assertsToG1(96)))
	t.Logf("allocations per firing: par of 2 %v, par of 96 %v; straight-line group of 2 %v, of 96 %v", par2, par96, seq2, seq96)
	if par96 != par2 {
		t.Errorf("a par of 96 remote asserts allocates %v per firing, a par of 2 %v: the par's own work should allocate nothing", par96, par2)
	}
	if par2 > seq2 || par96 > seq96 {
		t.Errorf("a par allocates more than the same updates sent as one straight-line group: %v > %v or %v > %v", par2, seq2, par96, seq96)
	}
}

// BenchmarkParFiring is one in-process firing of the ledger's update_fanout
// request: a par of 96 remote asserts to one sink.
func BenchmarkParFiring(b *testing.B) {
	s := mustSystem(b, groupProgram(nil, dsl.Par(assertsToG1(96))), Options{})
	ctx := context.Background()
	if err := s.RunMain(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Invoke(ctx, "f", "j"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParFiringDistinct is BenchmarkParFiring with 96 distinct keys:
// nothing repeats, so every update is a member of its own and the group
// pays the fold's comparison per arm without folding anything. Distinct keys
// do not coalesce in the sink's queue, so the sink applies it after every
// firing, as its scheduling would.
func BenchmarkParFiringDistinct(b *testing.B) {
	const width = 96
	decls := []dsl.Decl{dsl.InitProp{Name: "Go"}} // never true: the sink only queues
	arms := make(dsl.Par, width)
	for i := range arms {
		name := fmt.Sprintf("P%d", i)
		decls = append(decls, dsl.InitProp{Name: name})
		arms[i] = dsl.Assert{Target: dsl.J("g", "j"), Prop: dsl.PR(name)}
	}
	p := dsl.NewProgram()
	p.Type("srcT").Junction("j", dsl.Def(nil, arms))
	p.Type("sinkT").Junction("j", dsl.Def(decls, dsl.Skip{}).Guarded(formula.P("Go")))
	p.Instance("f", "srcT").Instance("g", "sinkT")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}})
	s := mustSystem(b, p, Options{})
	ctx := context.Background()
	if err := s.RunMain(ctx); err != nil {
		b.Fatal(err)
	}
	sink := s.junctionQuiet("g", "j").Table()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Invoke(ctx, "f", "j"); err != nil {
			b.Fatal(err)
		}
		sink.ApplyPending()
	}
}

// TestParScratchLeavesNothingBehind runs a par firing that leaves something
// in its scratch — an arm's error, a send's error, another arm's signal — and
// then one that must come out as if it were the first.
func TestParScratchLeavesNothingBehind(t *testing.T) {
	idxDecls := dsl.Decls(
		dsl.DeclSet{Name: "Sinks", Elems: []string{"g1::j", "g2::j"}},
		dsl.DeclIdx{Name: "unset", Of: "Sinks"},
	)
	start := func(t *testing.T, p *dsl.Program) (*System, context.Context) {
		t.Helper()
		s := mustSystem(t, p, Options{AckTimeout: 5 * time.Second})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		t.Cleanup(cancel)
		if err := s.RunMain(ctx); err != nil {
			t.Fatal(err)
		}
		return s, ctx
	}
	sinkProp := func(t *testing.T, s *System, inst, prop string) bool {
		t.Helper()
		tab := s.junctionQuiet(inst, "j").Table()
		tab.ApplyPending()
		v, err := tab.Prop(prop)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	t.Run("arm fails", func(t *testing.T) {
		s, ctx := start(t, groupProgram(idxDecls, dsl.Par{
			dsl.Assert{Target: g(1), Prop: dsl.PR("U")},
			dsl.Assert{Target: dsl.ByIdx("unset"), Prop: dsl.PR("W")},
		}))
		if err := s.Invoke(ctx, "f", "j"); !errors.Is(err, ErrIdxUndef) {
			t.Fatalf("first firing: %v, want ErrIdxUndef", err)
		}
		// Now both arms join one group, whose send reports at arm 0: nothing
		// of this firing writes arm 1's error slot.
		if err := s.junctionQuiet("f", "j").SetIdx("unset", "g1::j"); err != nil {
			t.Fatal(err)
		}
		if err := s.Invoke(ctx, "f", "j"); err != nil {
			t.Fatalf("the firing after a failed arm: %v, want success", err)
		}
		if !sinkProp(t, s, "g1", "W") {
			t.Fatal("the second firing's W never reached g1")
		}
	})

	t.Run("send fails", func(t *testing.T) {
		s, ctx := start(t, groupProgram(nil, dsl.Par{
			dsl.Assert{Target: g(1), Prop: dsl.PR("U")}, dsl.Assert{Target: g(2), Prop: dsl.PR("U")},
			dsl.Assert{Target: g(1), Prop: dsl.PR("W")}, dsl.Assert{Target: g(2), Prop: dsl.PR("W")},
		}))
		s.Net().Crash("g2::j")
		if err := s.Invoke(ctx, "f", "j"); !errors.Is(err, ErrPeerDown) {
			t.Fatalf("firing at a crashed destination: %v, want ErrPeerDown", err)
		}
		s.Net().Revive("g2::j")
		if err := s.Invoke(ctx, "f", "j"); err != nil {
			t.Fatalf("the firing after the destination revived: %v, want success", err)
		}
		if !sinkProp(t, s, "g2", "U") || !sinkProp(t, s, "g2", "W") {
			t.Fatal("the second firing's updates never reached g2")
		}
	})

	t.Run("another arm signals", func(t *testing.T) {
		decls := dsl.Decls(dsl.InitProp{Name: "Stop", Init: true}, dsl.InitProp{Name: "After", Init: false})
		s, ctx := start(t, groupProgram(decls,
			dsl.Par{
				dsl.Assert{Target: g(1), Prop: dsl.PR("U")},
				dsl.If{Cond: formula.P("Stop"), Then: dsl.Return{}},
			},
			dsl.Assert{Prop: dsl.PR("After")},
		))
		tab := s.junctionQuiet("f", "j").Table()
		if err := s.Invoke(ctx, "f", "j"); err != nil {
			t.Fatal(err)
		}
		if after, _ := tab.Prop("After"); after {
			t.Fatal("the par's return signal did not stop the body")
		}
		if err := tab.SetProp("Stop", false); err != nil {
			t.Fatal(err)
		}
		if err := s.Invoke(ctx, "f", "j"); err != nil {
			t.Fatal(err)
		}
		if after, _ := tab.Prop("After"); !after {
			t.Fatal("the firing after a signalling one still returned early")
		}
	})
}

// TestClearedScratchHoldsNoPayload fires a par and a straight-line run that
// send a write's payload and checks that, once the firing is over, nothing in
// their scratch refers to it.
func TestClearedScratchHoldsNoPayload(t *testing.T) {
	decls := dsl.Decls(dsl.InitData{Name: "d"})
	saveD := dsl.Save{Data: "d", From: func(dsl.HostCtx) ([]byte, error) { return []byte("payload"), nil }}
	arms := []dsl.Expr{
		dsl.Write{Data: "d", To: g(1)}, dsl.Assert{Target: g(2), Prop: dsl.PR("U")},
		dsl.Write{Data: "d", To: g(2)}, dsl.Assert{Target: g(1), Prop: dsl.PR("U")},
	}
	s := mustSystem(t, groupProgram(decls, saveD, dsl.Par(arms), dsl.Seq(arms)), Options{})
	ctx := context.Background()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(ctx, "f", "j"); err != nil {
		t.Fatal(err)
	}
	j := s.junctionQuiet("f", "j")
	var par *plan.Op
	var runSteps []*plan.Op
	for _, st := range j.pj.Body.Steps {
		switch {
		case st[0].Kind == plan.OpPar:
			par = st[0]
		case len(st) > 1:
			runSteps = st
		}
	}
	if par == nil || runSteps == nil {
		t.Fatalf("the body lowered to %d steps without a par and a straight-line run", len(j.pj.Body.Steps))
	}

	p := j.newPar(par.Flat)
	for i := 0; i < 2; i++ {
		if sig, err := p.fire(ctx); sig != plan.SigNone || err != nil {
			t.Fatalf("par firing %d: %v %v", i, sig, err)
		}
	}
	if len(p.groups) != 0 {
		t.Errorf("a finished par firing left %d groups open", len(p.groups))
	}
	for i, g := range p.groups[:cap(p.groups)] {
		if g.to != "" || len(g.ups) != 0 {
			t.Errorf("group slot %d kept destination %q and %d members", i, g.to, len(g.ups))
		}
		for k, u := range g.ups[:cap(g.ups)] {
			if !reflect.ValueOf(u).IsZero() {
				t.Errorf("group slot %d member slot %d still holds key %q payload %q", i, k, u.key, u.payload)
			}
		}
	}
	if !reflect.ValueOf(p.m).IsZero() {
		t.Errorf("the arm slot kept %+v", p.m)
	}
	for i := range p.errs {
		if p.errs[i] != nil || p.sigs[i] != plan.SigNone {
			t.Errorf("arm %d kept error %v, signal %v", i, p.errs[i], p.sigs[i])
		}
	}

	updateArms := make([]updateArm, len(runSteps))
	for k, o := range runSteps {
		updateArms[k] = j.updateArm(o)
	}
	r := j.newUpdateRun(updateArms)
	if sig, err := r.fire(ctx); sig != plan.SigNone || err != nil {
		t.Fatalf("straight-line firing: %v %v", sig, err)
	}
	for k, m := range r.ran {
		if !reflect.ValueOf(m).IsZero() {
			t.Errorf("arm slot %d kept %+v", k, m)
		}
	}
	for k, u := range r.ups[:cap(r.ups)] {
		if !reflect.ValueOf(u).IsZero() {
			t.Errorf("group member slot %d still holds key %q payload %q", k, u.key, u.payload)
		}
	}
}
