package runtime

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/kv"
)

// TestNotSchedulableErrorIsBuiltOnce: a refused scheduling answers with the
// junction's one prebuilt error — same text as ever, same value every time —
// because a driver is refused on every pass that finds nothing to do.
func TestNotSchedulableErrorIsBuiltOnce(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}, dsl.InitProp{Name: "Busy", Init: false}),
		dsl.Skip{},
	).Guarded(formula.And(formula.P("Work"), formula.Not(formula.P("Busy")))).ManuallyScheduled())
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	ctx := context.Background()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	j, err := s.Junction("i", "j")
	if err != nil {
		t.Fatal(err)
	}
	first := j.Schedule(ctx)
	if !errors.Is(first, ErrNotSchedulable) {
		t.Fatalf("refusal = %v, want ErrNotSchedulable", first)
	}
	want := fmt.Sprintf("%v: i::j guard %s", ErrNotSchedulable, j.Def().Guard)
	if first.Error() != want {
		t.Fatalf("refusal text = %q, want %q", first, want)
	}
	if again := j.Schedule(ctx); again != first {
		t.Fatalf("second refusal is a new error value: %v", again)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = j.Schedule(ctx) }); allocs != 0 {
		t.Fatalf("a refused scheduling allocates %v objects, want 0", allocs)
	}
	if err := j.Table().SetProp("Work", true); err != nil {
		t.Fatal(err)
	}
	if err := j.Schedule(ctx); err != nil {
		t.Fatalf("guard true, scheduling refused: %v", err)
	}
}

// TestCompiledConnectivesMatchEval: the lowered ∧, ∨ and → stop at a left
// operand that decides them, which must not change a single entry of
// Kleene's tables. Every pair of operand values, with Unknown produced both
// ways the runtime produces it — a name the junction does not declare and a
// proposition of a peer that is not running — evaluates as the tables say.
func TestCompiledConnectivesMatchEval(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "T", Init: true}, dsl.InitProp{Name: "F", Init: false}),
		dsl.Skip{},
	))
	p.Type("u").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "P", Init: true}),
		dsl.Skip{},
	))
	p.Instance("i", "t").Instance("peer", "u")
	p.SetMain(dsl.Par{dsl.Start{Instance: "i"}, dsl.Start{Instance: "peer"}})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.StopInstance("peer"); err != nil {
		t.Fatal(err)
	}
	j, err := s.Junction("i", "j")
	if err != nil {
		t.Fatal(err)
	}
	type operand struct {
		f    formula.Formula
		want formula.Truth
	}
	operands := []operand{
		{formula.P("T"), formula.True},
		{formula.P("F"), formula.False},
		{formula.P("Undeclared"), formula.Unknown},
		{formula.At("peer::j", "P"), formula.Unknown},
	}
	connectives := []struct {
		name  string
		build func(l, r formula.Formula) formula.Formula
		table func(l, r formula.Truth) formula.Truth
	}{
		{"and", func(l, r formula.Formula) formula.Formula { return formula.And(l, r) }, formula.Truth.And},
		{"or", func(l, r formula.Formula) formula.Formula { return formula.Or(l, r) }, formula.Truth.Or},
		{"implies", formula.Implies, func(l, r formula.Truth) formula.Truth { return l.Not().Or(r) }},
	}
	for _, o := range operands {
		if got := j.compileFormula(o.f)(); got != o.want {
			t.Fatalf("operand %s = %v, want %v", o.f, got, o.want)
		}
	}
	for _, c := range connectives {
		for _, l := range operands {
			for _, r := range operands {
				f := c.build(l.f, r.f)
				if got, want := j.compileFormula(f)(), c.table(l.want, r.want); got != want {
					t.Errorf("%s: %s: compiled %v, Kleene %v", c.name, f, got, want)
				}
			}
		}
	}
}

// TestQualifiedReadAcrossLocationsIsUnknown: a guard reads another
// junction's table in process only when both instances share a location. With
// the peer placed at another location its propositions read Unknown and its
// @running reads False, so neither guard schedules; colocated, both do.
func TestQualifiedReadAcrossLocationsIsUnknown(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("t").
		Junction("ready", dsl.Def(dsl.Decls(), dsl.Skip{}).Guarded(formula.At("peer::j", "Ready")).ManuallyScheduled()).
		Junction("alive", dsl.Def(dsl.Decls(), dsl.Skip{}).Guarded(Running("peer::j")).ManuallyScheduled())
	p.Type("u").Junction("j", dsl.Def(dsl.Decls(dsl.InitProp{Name: "Ready", Init: true}), dsl.Skip{}))
	p.Instance("i", "t").Instance("peer", "u")
	p.SetMain(dsl.Par{dsl.Start{Instance: "i"}, dsl.Start{Instance: "peer"}})
	for _, tc := range []struct {
		peerAt         string
		ready, running formula.Truth
		want           error
	}{
		{peerAt: "B", ready: formula.Unknown, running: formula.False, want: ErrNotSchedulable},
		{peerAt: "A", ready: formula.True, running: formula.True},
	} {
		dep := NewDeployment().AddLocation("A", nil).AddLocation("B", nil).Place("i", "A").Place("peer", tc.peerAt)
		s := mustSystem(t, p, Options{Deploy: dep})
		ctx := context.Background()
		if err := s.RunMain(ctx); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			jn    string
			f     formula.Formula
			truth formula.Truth
		}{
			{"ready", formula.At("peer::j", "Ready"), tc.ready},
			{"alive", Running("peer::j"), tc.running},
		} {
			j, err := s.Junction("i", c.jn)
			if err != nil {
				t.Fatal(err)
			}
			if got := j.compileFormula(c.f)(); got != c.truth {
				t.Errorf("peer at %s: %s reads %v, want %v", tc.peerAt, c.f, got, c.truth)
			}
			if err := j.Schedule(ctx); !errors.Is(err, tc.want) {
				t.Errorf("peer at %s: scheduling i::%s = %v, want %v", tc.peerAt, c.jn, err, tc.want)
			}
		}
	}
}

// TestHostWritesThroughBoundCellsKeepTheirErrors: a host block's context is
// built once with V⃗ resolved to cells. What it refuses and how it says so
// must not have moved: a name outside V⃗ is ErrWriteDenied, a name inside V⃗
// that is no proposition (here an idx) is kv.ErrUndeclared.
func TestHostWritesThroughBoundCellsKeepTheirErrors(t *testing.T) {
	var denied, undeclared, deniedData error
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(
		dsl.Decls(
			dsl.InitProp{Name: "P", Init: false}, dsl.InitProp{Name: "Q", Init: false}, dsl.InitData{Name: "n"},
			dsl.DeclSet{Name: "S", Elems: []string{"a"}}, dsl.DeclIdx{Name: "tgt", Of: "S"},
		),
		dsl.Host{Label: "h", Writes: []string{"P", "tgt"}, Fn: func(ctx dsl.HostCtx) error {
			denied = ctx.SetProp("Q", true)
			undeclared = ctx.SetProp("tgt", true)
			deniedData = ctx.Save("n", []byte("x"))
			if v, err := ctx.Prop("P"); err != nil || v {
				return fmt.Errorf("Prop(P) = %v, %v before the write", v, err)
			}
			if err := ctx.SetProp("P", true); err != nil {
				return err
			}
			if v, err := ctx.Prop("P"); err != nil || !v {
				return fmt.Errorf("Prop(P) = %v, %v after the write", v, err)
			}
			return ctx.SetProp("P", false)
		}},
	))
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	ctx := context.Background()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	// Twice: one context serves every run.
	for run := 0; run < 2; run++ {
		if err := s.Invoke(ctx, "i", "j"); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	wantDenied := fmt.Sprintf("%v: prop %q (V⃗=[P tgt])", ErrWriteDenied, "Q")
	if !errors.Is(denied, ErrWriteDenied) || denied.Error() != wantDenied {
		t.Errorf("write outside V⃗: %v, want %q", denied, wantDenied)
	}
	wantData := fmt.Sprintf("%v: data %q (V⃗=[P tgt])", ErrWriteDenied, "n")
	if !errors.Is(deniedData, ErrWriteDenied) || deniedData.Error() != wantData {
		t.Errorf("save outside V⃗: %v, want %q", deniedData, wantData)
	}
	wantUndeclared := fmt.Sprintf("%v: prop %q", kv.ErrUndeclared, "tgt")
	if !errors.Is(undeclared, kv.ErrUndeclared) || undeclared.Error() != wantUndeclared {
		t.Errorf("write to an undeclared name: %v, want %q", undeclared, wantUndeclared)
	}
	j, _ := s.Junction("i", "j")
	if v, _ := j.Table().Prop("Q"); v {
		t.Error("the denied write landed")
	}
}
