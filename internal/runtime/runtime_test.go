package runtime

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"csaw/internal/compart"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

// buildFig3 constructs the paper's Fig. 3 program: ⌊H1⌉ runs in f, which
// saves state, writes it to g, asserts Work at g and waits for its
// retraction; g (guarded on Work) restores the state, runs ⌊H2⌉ and retracts
// Work at f.
func buildFig3(h1Ran, h2Ran *atomic.Int32, restored *atomic.Value) *dsl.Program {
	p := dsl.NewProgram()
	p.Type("tau_f").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}, dsl.InitData{Name: "n"}),
		dsl.Host{Label: "H1", Fn: func(dsl.HostCtx) error { h1Ran.Add(1); return nil }},
		dsl.Save{Data: "n", From: func(dsl.HostCtx) ([]byte, error) { return []byte("H1-state"), nil }},
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

func mustSystem(t testing.TB, p *dsl.Program, opts Options) *System {
	t.Helper()
	s, err := New(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestFig3EndToEnd(t *testing.T) {
	var h1, h2 atomic.Int32
	var restored atomic.Value
	s := mustSystem(t, buildFig3(&h1, &h2, &restored), Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	// Application logic schedules f's junction (unguarded → Invoke).
	if err := s.Invoke(ctx, "f", "junction"); err != nil {
		t.Fatal(err)
	}
	if h1.Load() != 1 {
		t.Errorf("H1 ran %d times", h1.Load())
	}
	// g's driver must have run H2 before f's wait completed.
	if h2.Load() != 1 {
		t.Errorf("H2 ran %d times", h2.Load())
	}
	if got, _ := restored.Load().(string); got != "H1-state" {
		t.Errorf("g restored %q", got)
	}
	// Rate limiting held: after the exchange, Work is false at both sides.
	for _, inst := range []string{"f", "g"} {
		j, err := s.Junction(inst, "junction")
		if err != nil {
			t.Fatal(err)
		}
		j.Table().ApplyPending()
		if v, _ := j.Table().Prop("Work"); v {
			t.Errorf("%s: Work still asserted", inst)
		}
	}
}

func TestFig3RepeatedInvocations(t *testing.T) {
	var h1, h2 atomic.Int32
	var restored atomic.Value
	s := mustSystem(t, buildFig3(&h1, &h2, &restored), Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	const rounds = 20
	for i := 0; i < rounds; i++ {
		if err := s.Invoke(ctx, "f", "junction"); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if h1.Load() != rounds || h2.Load() != rounds {
		t.Fatalf("H1=%d H2=%d, want %d each", h1.Load(), h2.Load(), rounds)
	}
}

func TestDoubleStartFails(t *testing.T) {
	var h1, h2 atomic.Int32
	var restored atomic.Value
	s := mustSystem(t, buildFig3(&h1, &h2, &restored), Options{})
	if err := s.StartInstance("f", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.StartInstance("f", nil); !errors.Is(err, ErrAlreadyStarted) {
		t.Fatalf("double start: %v", err)
	}
	if err := s.StopInstance("f"); err != nil {
		t.Fatal(err)
	}
	if err := s.StopInstance("f"); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("double stop: %v", err)
	}
	// Restart after stop is allowed.
	if err := s.StartInstance("f", nil); err != nil {
		t.Fatalf("restart: %v", err)
	}
}

func TestGuardBlocksInvoke(t *testing.T) {
	var h1, h2 atomic.Int32
	var restored atomic.Value
	s := mustSystem(t, buildFig3(&h1, &h2, &restored), Options{})
	if err := s.StartInstance("g", nil); err != nil {
		t.Fatal(err)
	}
	err := s.Invoke(context.Background(), "g", "junction")
	if !errors.Is(err, ErrNotSchedulable) {
		t.Fatalf("guarded junction with false guard: %v", err)
	}
	if h2.Load() != 0 {
		t.Fatal("body ran despite false guard")
	}
}

// timeoutProgram: f asserts Work at g with otherwise[t] complain.
func timeoutProgram(complained *atomic.Int32) *dsl.Program {
	p := dsl.NewProgram()
	p.Type("tau_f").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}),
		dsl.OtherwiseT(
			dsl.Assert{Target: dsl.J("g", "junction"), Prop: dsl.PR("Work")},
			100*time.Millisecond,
			dsl.Host{Label: "complain", Fn: func(dsl.HostCtx) error { complained.Add(1); return nil }},
		),
	))
	p.Type("tau_g").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}),
		dsl.Skip{},
	).Guarded(formula.P("Work")))
	p.Instance("f", "tau_f").Instance("g", "tau_g")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}})
	return p
}

func TestOtherwiseOnCrashedPeer(t *testing.T) {
	var complained atomic.Int32
	s := mustSystem(t, timeoutProgram(&complained), Options{})
	ctx := context.Background()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	s.CrashInstance("g")
	if err := s.Invoke(ctx, "f", "junction"); err != nil {
		t.Fatalf("otherwise should have handled the failure: %v", err)
	}
	if complained.Load() != 1 {
		t.Fatalf("complain ran %d times", complained.Load())
	}
}

func TestOtherwiseOnLossyLink(t *testing.T) {
	var complained atomic.Int32
	s := mustSystem(t, timeoutProgram(&complained), Options{AckTimeout: 80 * time.Millisecond})
	ctx := context.Background()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	// All messages from f to g are lost: no ack, so the assert times out and
	// the otherwise handler runs.
	s.Net().SetLink("f::junction", "g::junction", compart.LinkConfig{DropProb: 1})
	if err := s.Invoke(ctx, "f", "junction"); err != nil {
		t.Fatal(err)
	}
	if complained.Load() != 1 {
		t.Fatalf("complain ran %d times", complained.Load())
	}
}

func TestOtherwiseSuccessSkipsHandler(t *testing.T) {
	var complained atomic.Int32
	s := mustSystem(t, timeoutProgram(&complained), Options{})
	ctx := context.Background()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(ctx, "f", "junction"); err != nil {
		t.Fatal(err)
	}
	if complained.Load() != 0 {
		t.Fatal("handler ran despite success")
	}
}

func TestWaitTimesOut(t *testing.T) {
	p := dsl.NewProgram()
	var handled atomic.Int32
	p.Type("t").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Done", Init: false}),
		dsl.OtherwiseT(
			dsl.Wait{Cond: formula.P("Done")},
			50*time.Millisecond,
			dsl.Host{Label: "h", Fn: func(dsl.HostCtx) error { handled.Add(1); return nil }},
		),
	))
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Invoke(context.Background(), "i", "j"); err != nil {
		t.Fatal(err)
	}
	if handled.Load() != 1 {
		t.Fatal("timeout handler did not run")
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("wait returned after %v, before the deadline", d)
	}
}

func TestTransactionRollsBack(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "P", Init: false}, dsl.InitData{Name: "n"}),
		dsl.Save{Data: "n", From: func(dsl.HostCtx) ([]byte, error) { return []byte("before"), nil }},
		dsl.OtherwiseT(
			dsl.Txn{Body: []dsl.Expr{
				dsl.Assert{Prop: dsl.PR("P")},
				dsl.Save{Data: "n", From: func(dsl.HostCtx) ([]byte, error) { return []byte("inside"), nil }},
				dsl.Verify{Cond: formula.FalseF{}}, // always fails → rollback
			}},
			0,
			dsl.Skip{},
		),
	))
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "i", "j"); err != nil {
		t.Fatal(err)
	}
	j, _ := s.Junction("i", "j")
	if v, _ := j.Table().Prop("P"); v {
		t.Error("P not rolled back")
	}
	if d, _ := j.Table().Data("n"); string(d) != "before" {
		t.Errorf("n = %q, want pre-transaction value", d)
	}
}

func TestFateScopeDoesNotRollBack(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "P", Init: false}),
		dsl.OtherwiseT(
			dsl.Scope{Body: []dsl.Expr{
				dsl.Assert{Prop: dsl.PR("P")},
				dsl.Verify{Cond: formula.FalseF{}},
			}},
			0,
			dsl.Skip{},
		),
	))
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "i", "j"); err != nil {
		t.Fatal(err)
	}
	j, _ := s.Junction("i", "j")
	if v, _ := j.Table().Prop("P"); !v {
		t.Error("⟨E⟩ must NOT roll back on failure — changes persist (paper §6 Blocks)")
	}
}

func TestReturnLeavesFateScope(t *testing.T) {
	var after, inside atomic.Int32
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(
		nil,
		dsl.Scope{Body: []dsl.Expr{
			dsl.Return{},
			dsl.Host{Label: "unreachable", Fn: func(dsl.HostCtx) error { inside.Add(1); return nil }},
		}},
		dsl.Host{Label: "after", Fn: func(dsl.HostCtx) error { after.Add(1); return nil }},
	))
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "i", "j"); err != nil {
		t.Fatal(err)
	}
	if inside.Load() != 0 {
		t.Error("statement after return inside scope ran")
	}
	if after.Load() != 1 {
		t.Error("return did not continue after the fate scope")
	}
}

func TestReturnAtTopLevelLeavesJunction(t *testing.T) {
	var after atomic.Int32
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(
		nil,
		dsl.Return{},
		dsl.Host{Label: "after", Fn: func(dsl.HostCtx) error { after.Add(1); return nil }},
	))
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "i", "j"); err != nil {
		t.Fatal(err)
	}
	if after.Load() != 0 {
		t.Error("top-level return did not leave the junction")
	}
}

func TestRetryBounded(t *testing.T) {
	var runs atomic.Int32
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(
		nil,
		dsl.Host{Label: "count", Fn: func(dsl.HostCtx) error { runs.Add(1); return nil }},
		dsl.Retry{},
	).WithRetryLimit(3))
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	err := s.Invoke(context.Background(), "i", "j")
	if !errors.Is(err, ErrRetryExhausted) {
		t.Fatalf("err = %v", err)
	}
	if runs.Load() != 3 {
		t.Fatalf("body ran %d times, want 3", runs.Load())
	}
}

func TestVerifyTernary(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "P", Init: true}),
		dsl.Verify{Cond: formula.P("P")},
	))
	p.Type("t2").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Q", Init: true}),
		dsl.Verify{Cond: formula.At("i::j", "P")}, // remote state
	))
	p.Instance("i", "t").Instance("k", "t2")
	p.SetMain(dsl.Par{dsl.Start{Instance: "i"}, dsl.Start{Instance: "k"}})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Local verify of a true prop succeeds.
	if err := s.Invoke(context.Background(), "i", "j"); err != nil {
		t.Fatal(err)
	}
	// Remote verify while the peer runs succeeds.
	if err := s.Invoke(context.Background(), "k", "j"); err != nil {
		t.Fatal(err)
	}
	// Crash the peer: verify needs i::j's state → ErrVerifyUnknown.
	s.CrashInstance("i")
	err := s.Invoke(context.Background(), "k", "j")
	if !errors.Is(err, ErrVerifyUnknown) {
		t.Fatalf("verify on dead peer: %v", err)
	}
}

func TestVerifyFalseFails(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "P", Init: false}),
		dsl.Verify{Cond: formula.P("P")},
	))
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "i", "j"); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunningPredicate(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(nil, dsl.Skip{}))
	p.Type("w").Junction("j", dsl.Def(
		nil,
		dsl.Verify{Cond: dsl.Running("i::j")},
	))
	p.Instance("i", "t").Instance("watch", "w")
	p.SetMain(dsl.Par{dsl.Start{Instance: "i"}, dsl.Start{Instance: "watch"}})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "watch", "j"); err != nil {
		t.Fatalf("S(i::j) should be true while running: %v", err)
	}
	s.CrashInstance("i")
	if err := s.Invoke(context.Background(), "watch", "j"); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("S(i::j) should be false after crash: %v", err)
	}
}

func TestHostWriteSetEnforced(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "P", Init: false}, dsl.InitData{Name: "n"}),
		dsl.Host{Label: "h", Writes: []string{"n"}, Fn: func(ctx dsl.HostCtx) error {
			if err := ctx.Save("n", []byte("ok")); err != nil {
				return err
			}
			// Writing P is outside V⃗ and must be denied.
			if err := ctx.SetProp("P", true); !errors.Is(err, ErrWriteDenied) {
				return errors.New("write outside V⃗ was allowed")
			}
			return nil
		}},
	))
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "i", "j"); err != nil {
		t.Fatal(err)
	}
	j, _ := s.Junction("i", "j")
	if d, _ := j.Table().Data("n"); string(d) != "ok" {
		t.Errorf("declared write failed: %q", d)
	}
}

func TestRestoreUndefFails(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitData{Name: "n"}),
		dsl.Restore{Data: "n", Into: func(dsl.HostCtx, []byte) error { return nil }},
	))
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "i", "j"); err == nil {
		t.Fatal("restore of undef must fail")
	}
}

func TestCaseBreakNextOtherwise(t *testing.T) {
	var trace []string
	mark := func(s string) dsl.Expr {
		return dsl.Host{Label: s, Fn: func(dsl.HostCtx) error { trace = append(trace, s); return nil }}
	}
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(
		dsl.Decls(
			dsl.InitProp{Name: "A", Init: true},
			dsl.InitProp{Name: "B", Init: true},
		),
		dsl.Case{
			Arms: []dsl.CaseArm{
				dsl.Arm(formula.P("A"), dsl.TermNext, mark("armA")),
				dsl.Arm(formula.P("B"), dsl.TermBreak, mark("armB")),
			},
			Otherwise: []dsl.Expr{mark("otherwise")},
		},
	))
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "i", "j"); err != nil {
		t.Fatal(err)
	}
	// A matches, next moves past it, B matches, break exits. Otherwise never
	// runs.
	want := []string{"armA", "armB"}
	if len(trace) != 2 || trace[0] != want[0] || trace[1] != want[1] {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestCaseOtherwiseWhenNoMatch(t *testing.T) {
	var hit atomic.Int32
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "A", Init: false}),
		dsl.Case{
			Arms:      []dsl.CaseArm{dsl.Arm(formula.P("A"), dsl.TermBreak, dsl.Skip{})},
			Otherwise: []dsl.Expr{dsl.Host{Label: "o", Fn: func(dsl.HostCtx) error { hit.Add(1); return nil }}},
		},
	))
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "i", "j"); err != nil {
		t.Fatal(err)
	}
	if hit.Load() != 1 {
		t.Fatalf("otherwise ran %d times", hit.Load())
	}
}

// TestReconsiderDifferentMatch mirrors Fig. 4's τAuditing: the Work arm
// retracts Work (locally and at the peer), then reconsider re-evaluates and
// must take the otherwise branch.
func TestReconsiderDifferentMatch(t *testing.T) {
	var skipped atomic.Int32
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: true}),
		dsl.Case{
			Arms: []dsl.CaseArm{
				dsl.Arm(formula.P("Work"), dsl.TermReconsider,
					dsl.Retract{Prop: dsl.PR("Work")}),
			},
			Otherwise: []dsl.Expr{dsl.Host{Label: "skip", Fn: func(dsl.HostCtx) error { skipped.Add(1); return nil }}},
		},
	))
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "i", "j"); err != nil {
		t.Fatal(err)
	}
	if skipped.Load() != 1 {
		t.Fatalf("otherwise branch after reconsider ran %d times", skipped.Load())
	}
}

func TestReconsiderSameMatchFails(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: true}),
		dsl.Case{
			Arms: []dsl.CaseArm{
				dsl.Arm(formula.P("Work"), dsl.TermReconsider, dsl.Skip{}), // Work unchanged
			},
			Otherwise: []dsl.Expr{dsl.Skip{}},
		},
	))
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "i", "j"); !errors.Is(err, ErrReconsiderFailed) {
		t.Fatalf("err = %v", err)
	}
}

// TestReconsiderPingPongIsBounded: two arms that keep re-pointing the case
// at each other make a different match every round, so only the round limit
// the checker shares (plan.ReconsiderLimit) stops them.
func TestReconsiderPingPongIsBounded(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "A", Init: true}, dsl.InitProp{Name: "B", Init: false}),
		dsl.Case{
			Arms: []dsl.CaseArm{
				dsl.Arm(formula.P("A"), dsl.TermReconsider, dsl.Retract{Prop: dsl.PR("A")}, dsl.Assert{Prop: dsl.PR("B")}),
				dsl.Arm(formula.P("B"), dsl.TermReconsider, dsl.Retract{Prop: dsl.PR("B")}, dsl.Assert{Prop: dsl.PR("A")}),
			},
			Otherwise: []dsl.Expr{dsl.Skip{}},
		},
	))
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("case exceeded %d reconsider/next rounds", plan.ReconsiderLimit)
	if err := s.Invoke(ctx, "i", "j"); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestIdxDrivenCommunication(t *testing.T) {
	// A front-end picks a back-end through an idx set by host code; the write
	// must land at the chosen back-end only.
	p := dsl.NewProgram()
	p.Type("front").Junction("j", dsl.Def(
		dsl.Decls(
			dsl.InitData{Name: "n"},
			dsl.DeclSet{Name: "Backs", Elems: []string{"b1::j", "b2::j"}},
			dsl.DeclIdx{Name: "tgt", Of: "Backs"},
		),
		dsl.Host{Label: "Choose", Writes: []string{"tgt"}, Fn: func(ctx dsl.HostCtx) error {
			return ctx.SetIdx("tgt", "b2::j")
		}},
		dsl.Save{Data: "n", From: func(dsl.HostCtx) ([]byte, error) { return []byte("req"), nil }},
		dsl.Write{Data: "n", To: dsl.ByIdx("tgt")},
	))
	p.Type("back").Junction("j", dsl.Def(dsl.Decls(dsl.InitData{Name: "n"})))
	p.Instance("f", "front").Instance("b1", "back").Instance("b2", "back")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "b1"}, dsl.Start{Instance: "b2"}})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "f", "j"); err != nil {
		t.Fatal(err)
	}
	b1, _ := s.Junction("b1", "j")
	b2, _ := s.Junction("b2", "j")
	b1.Table().ApplyPending()
	b2.Table().ApplyPending()
	if b1.Table().Defined("n") {
		t.Error("b1 received the write meant for b2")
	}
	if d, _ := b2.Table().Data("n"); string(d) != "req" {
		t.Errorf("b2 data = %q", d)
	}
}

func TestIdxUndefFails(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("front").Junction("j", dsl.Def(
		dsl.Decls(
			dsl.InitData{Name: "n"},
			dsl.DeclSet{Name: "Backs", Elems: []string{"b1::j"}},
			dsl.DeclIdx{Name: "tgt", Of: "Backs"},
		),
		dsl.Save{Data: "n", From: func(dsl.HostCtx) ([]byte, error) { return []byte("x"), nil }},
		dsl.Write{Data: "n", To: dsl.ByIdx("tgt")}, // tgt never assigned
	))
	p.Type("back").Junction("j", dsl.Def(dsl.Decls(dsl.InitData{Name: "n"})))
	p.Instance("f", "front").Instance("b1", "back")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "b1"}})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "f", "j"); !errors.Is(err, ErrIdxUndef) {
		t.Fatalf("err = %v", err)
	}
}

func TestSubsetMembershipEnforced(t *testing.T) {
	p := dsl.NewProgram()
	var gotErr error
	p.Type("t").Junction("j", dsl.Def(
		dsl.Decls(
			dsl.DeclSet{Name: "S", Elems: []string{"a", "b"}},
			dsl.DeclSubset{Name: "sub", Of: "S"},
		),
		dsl.Host{Label: "h", Writes: []string{"sub"}, Fn: func(ctx dsl.HostCtx) error {
			if err := ctx.SetSubset("sub", []string{"a"}); err != nil {
				return err
			}
			gotErr = ctx.SetSubset("sub", []string{"zzz"})
			return nil
		}},
	))
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "i", "j"); err != nil {
		t.Fatal(err)
	}
	if gotErr == nil {
		t.Fatal("subset accepted element outside parent set")
	}
	j, _ := s.Junction("i", "j")
	members, err := j.Subset("sub")
	if err != nil || len(members) != 1 || members[0] != "a" {
		t.Fatalf("subset = %v, %v", members, err)
	}
}

func TestMeInstanceResolution(t *testing.T) {
	// τb::reactivate asserts RecentlyActive at me::instance::serve; the
	// update must land at the same instance's serve junction.
	p := dsl.NewProgram()
	p.Type("b").
		Junction("serve", dsl.Def(dsl.Decls(dsl.InitProp{Name: "RecentlyActive", Init: false}))).
		Junction("reactivate", dsl.Def(
			dsl.Decls(dsl.InitProp{Name: "RecentlyActive", Init: false}),
			dsl.Assert{Target: dsl.MeI("serve"), Prop: dsl.PR("RecentlyActive")},
		))
	p.Instance("b1", "b").Instance("b2", "b")
	p.SetMain(dsl.Par{dsl.Start{Instance: "b1"}, dsl.Start{Instance: "b2"}})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "b1", "reactivate"); err != nil {
		t.Fatal(err)
	}
	j1, _ := s.Junction("b1", "serve")
	j2, _ := s.Junction("b2", "serve")
	j1.Table().ApplyPending()
	j2.Table().ApplyPending()
	if v, _ := j1.Table().Prop("RecentlyActive"); !v {
		t.Error("b1::serve did not receive the self-instance assert")
	}
	if v, _ := j2.Table().Prop("RecentlyActive"); v {
		t.Error("b2::serve received another instance's assert")
	}
}

func TestSelfIndexedPropDeclaration(t *testing.T) {
	// init prop ¬InitBackend[me::instance::serve] resolves per instance
	// (paper Fig. 14 τb::startup).
	p := dsl.NewProgram()
	p.Type("b").
		Junction("serve", dsl.Def(dsl.Decls(dsl.InitProp{Name: "X", Init: false}))).
		Junction("startup", dsl.Def(
			dsl.Decls(dsl.InitProp{Name: "InitBackend[me::instance::serve]", Init: false}),
			dsl.Assert{Prop: dsl.PRAt("InitBackend", "me::instance::serve")},
		))
	p.Instance("b1", "b")
	p.SetMain(dsl.Start{Instance: "b1"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "b1", "startup"); err != nil {
		t.Fatal(err)
	}
	j, _ := s.Junction("b1", "startup")
	if v, _ := j.Table().Prop("InitBackend[b1::serve]"); !v {
		t.Errorf("self-indexed prop not resolved: table props %v", j.Table().PropNames())
	}
}

func TestParallelBranchesAllRun(t *testing.T) {
	var count atomic.Int32
	p := dsl.NewProgram()
	mk := func() dsl.Expr {
		return dsl.Host{Label: "h", Fn: func(dsl.HostCtx) error { count.Add(1); return nil }}
	}
	p.Type("t").Junction("j", dsl.Def(nil, dsl.Par{mk(), mk(), mk()}))
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "i", "j"); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 3 {
		t.Fatalf("ran %d branches", count.Load())
	}
}

func TestParNReplication(t *testing.T) {
	var count atomic.Int32
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(nil,
		dsl.ParN{N: 4, Body: []dsl.Expr{
			dsl.Host{Label: "h", Fn: func(dsl.HostCtx) error { count.Add(1); return nil }},
		}},
	))
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "i", "j"); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 4 {
		t.Fatalf("∥4 ran %d copies", count.Load())
	}
}

func TestParallelFailureFailsWhole(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(nil,
		dsl.Par{
			dsl.Skip{},
			dsl.Verify{Cond: formula.FalseF{}},
		},
	))
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "i", "j"); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("err = %v", err)
	}
}

func TestStartStopFromDSL(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("w").Junction("j", dsl.Def(nil,
		dsl.Start{Instance: "child"},
		dsl.Stop{Instance: "child"},
	))
	p.Type("c").Junction("j", dsl.Def(nil, dsl.Skip{}))
	p.Instance("worker", "w").Instance("child", "c")
	p.SetMain(dsl.Start{Instance: "worker"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "worker", "j"); err != nil {
		t.Fatal(err)
	}
	if s.InstanceRunning("child") {
		t.Fatal("child still running after DSL stop")
	}
}

// TestRemoteUpdateQueuesUntilReceiverScheduled pins the paper's local-priority
// rule: a delivered (and acknowledged) remote update stays in the receiver's
// pending queue, invisible to its table, until the receiving junction is next
// scheduled.
func TestRemoteUpdateQueuesUntilReceiverScheduled(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(dsl.Decls(dsl.InitProp{Name: "P", Init: false})))
	p.Type("u").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "P", Init: false}),
		dsl.Assert{Target: dsl.J("a", "j"), Prop: dsl.PR("P")},
	))
	p.Instance("a", "t").Instance("b", "u")
	p.SetMain(dsl.Par{dsl.Start{Instance: "a"}, dsl.Start{Instance: "b"}})

	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(context.Background(), "b", "j"); err != nil {
		t.Fatal(err)
	}
	a, _ := s.Junction("a", "j")
	if v, _ := a.Table().Prop("P"); v {
		t.Fatal("update applied before scheduling despite local-priority rule")
	}
	if a.Table().PendingLen() != 1 {
		t.Fatalf("pending = %d", a.Table().PendingLen())
	}
	if err := s.Invoke(context.Background(), "a", "j"); err != nil {
		t.Fatal(err)
	}
	if v, _ := a.Table().Prop("P"); !v || a.Table().PendingLen() != 0 {
		t.Fatalf("scheduling did not apply the queued update: P=%v pending=%d", v, a.Table().PendingLen())
	}
}

func TestInvokeWhenReady(t *testing.T) {
	p := dsl.NewProgram()
	var ran atomic.Int32
	p.Type("t").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Go", Init: false}),
		dsl.Host{Label: "h", Fn: func(dsl.HostCtx) error { ran.Add(1); return nil }},
		dsl.Retract{Prop: dsl.PR("Go")},
	).Guarded(formula.P("Go")))
	p.Type("k").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Go", Init: false}),
		dsl.Assert{Target: dsl.J("i", "j"), Prop: dsl.PR("Go")},
	))
	p.Instance("i", "t").Instance("kick", "k")
	p.SetMain(dsl.Par{dsl.Start{Instance: "i"}, dsl.Start{Instance: "kick"}})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Kick in the background, then wait for readiness.
	go func() {
		time.Sleep(20 * time.Millisecond)
		_ = s.Invoke(ctx, "kick", "j")
	}()
	// The driver loop may schedule it first; either way the body must run.
	deadline := time.Now().Add(3 * time.Second)
	for ran.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ran.Load() == 0 {
		t.Fatal("guarded junction never ran after guard became true")
	}
	// An unguarded junction has nothing to wait for: exactly one more scheduling.
	if err := s.InvokeWhenReady(ctx, "kick", "j"); err != nil || s.junctionQuiet("kick", "j").met.Schedulings.Load() != 2 {
		t.Fatalf("InvokeWhenReady on an unguarded junction: %v after %d schedulings, want nil after 2", err, s.junctionQuiet("kick", "j").met.Schedulings.Load())
	}
}
