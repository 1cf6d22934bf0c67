package runtime

import (
	"context"
	"fmt"
	"testing"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/obsv"
)

// benchProgram is a representative single-junction body: a host hook, a data
// save, a conditional, a case dispatch and a pair of prop updates. Invoked
// manually so the benchmark measures pure per-scheduling cost, not driver
// wake-up.
func benchProgram() *dsl.Program {
	p := dsl.NewProgram()
	p.Type("tau").Junction("junction", dsl.Def(
		dsl.Decls(
			dsl.InitProp{Name: "A", Init: false},
			dsl.InitProp{Name: "B", Init: false},
			dsl.InitData{Name: "n"},
		),
		dsl.Host{Label: "H", Fn: func(dsl.HostCtx) error { return nil }},
		dsl.Save{Data: "n", From: func(dsl.HostCtx) ([]byte, error) { return []byte("payload"), nil }},
		dsl.Assert{Prop: dsl.PR("A")},
		dsl.If{Cond: formula.P("A"), Then: dsl.Assert{Prop: dsl.PR("B")}},
		dsl.Case{
			Arms: []dsl.CaseArm{
				dsl.Arm(formula.Not(formula.P("B")), dsl.TermBreak, dsl.Skip{}),
				dsl.Arm(formula.P("B"), dsl.TermBreak, dsl.Retract{Prop: dsl.PR("B")}),
			},
			Otherwise: []dsl.Expr{dsl.Skip{}},
		},
		dsl.Retract{Prop: dsl.PR("A")},
	))
	p.Instance("i", "tau")
	p.SetMain(dsl.Start{Instance: "i"})
	return p
}

func benchScheduling(b *testing.B) {
	s, err := New(benchProgram(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if err := s.RunMain(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Invoke(ctx, "i", "junction"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulingCompiled measures one scheduling of the compiled
// execution plan. ns/op is the per-scheduling cost, so schedulings/sec =
// 1e9 / ns_op.
func BenchmarkSchedulingCompiled(b *testing.B) { benchScheduling(b) }

// BenchmarkSchedulingObsvOff is BenchmarkSchedulingCompiled with the
// observability layer in its default state (no sink, no timing): the cost is
// a handful of uncontended atomic adds, and the acceptance budget is ≤5%
// over the pre-observability BenchmarkSchedulingCompiled baseline.
// BenchmarkSchedulingObsvOn measures the fully-on ablation — timing plus a
// trace event stream into a ring sink — which is the csaw-bench -trace
// configuration, not the production default.
func BenchmarkSchedulingObsvOff(b *testing.B) { benchScheduling(b) }

func BenchmarkSchedulingObsvOn(b *testing.B) {
	s, err := New(benchProgram(), Options{Trace: obsv.NewRingSink(1024)})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if err := s.RunMain(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Invoke(ctx, "i", "junction"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGuardWakeEvent measures injection-to-body latency of a guarded
// junction's driver on the keyed subscription path (TestLocalGuardWakesWithoutPoll
// pins its latency bound).
func BenchmarkGuardWakeEvent(b *testing.B) {
	ran := make(chan struct{}, 1)
	p := dsl.NewProgram()
	p.Type("tau").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}),
		// Retract first: a signal-then-retract body races the next injection
		// against the retract's local write, which supersedes queued updates.
		dsl.Retract{Prop: dsl.PR("Work")},
		dsl.Host{Label: "run", Fn: func(dsl.HostCtx) error { ran <- struct{}{}; return nil }},
	).Guarded(formula.P("Work")))
	p.Instance("w", "tau")
	p.SetMain(dsl.Start{Instance: "w"})
	s, err := New(p, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if err := s.RunMain(ctx); err != nil {
		b.Fatal(err)
	}
	j, err := s.Junction("w", "junction")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.InjectProp("Work", true)
		select {
		case <-ran:
		case <-time.After(10 * time.Second):
			b.Fatal(fmt.Errorf("iteration %d: guard never fired", i))
		}
	}
}
