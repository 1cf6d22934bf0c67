package check_test

import (
	"testing"

	"csaw/internal/check"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/obsv"
	"csaw/internal/patterns"
)

func mustCheck(t *testing.T, p *dsl.Program, opts check.Options) *check.Result {
	t.Helper()
	res, err := check.Check(p, opts)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return res
}

func findViolation(res *check.Result, kind check.ViolationKind) *check.Violation {
	for i := range res.Violations {
		if res.Violations[i].Kind == kind {
			return &res.Violations[i]
		}
	}
	return nil
}

func TestNegativeDeadlockFoundAndReplayed(t *testing.T) {
	p := patterns.NegativeDeadlock()
	res := mustCheck(t, p, check.Options{})
	v := findViolation(res, check.Deadlock)
	if v == nil {
		t.Fatalf("no deadlock found; violations: %v, states=%d", res.Violations, res.States)
	}
	if len(v.Trace) == 0 {
		t.Fatalf("deadlock has empty trace")
	}
	if v.Trace[0].Kind != check.StepSchedule || v.Trace[0].Junction != "a::j" {
		t.Fatalf("trace should open with schedule a::j, got %v", v.Trace)
	}
	if !v.Trace[0].Blocks {
		t.Fatalf("the deadlocking scheduling should be marked blocking, got %v", v.Trace)
	}
	rr, err := check.Replay(p, *v, check.ReplayOptions{})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !rr.Confirmed {
		t.Fatalf("replay refuted the deadlock: %s", rr.Detail)
	}
}

func TestNegativeInvariantFoundAndReplayed(t *testing.T) {
	p := patterns.NegativeInvariant()
	res := mustCheck(t, p, check.Options{})
	v := findViolation(res, check.Invariant)
	if v == nil {
		t.Fatalf("no invariant violation found; violations: %v, states=%d", res.Violations, res.States)
	}
	if v.Invariant != "done-implies-busy" {
		t.Fatalf("wrong invariant: %q", v.Invariant)
	}
	if len(v.Trace) == 0 {
		t.Fatalf("invariant violation has empty trace")
	}
	rr, err := check.Replay(p, *v, check.ReplayOptions{})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !rr.Confirmed {
		t.Fatalf("replay refuted the invariant violation: %s", rr.Detail)
	}
}

// A self-completing guarded junction with a true invariant checks clean.
func TestCleanProgram(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("T").Junction("j", dsl.Def(
		dsl.Decls(
			dsl.InitProp{Name: "Go", Init: true},
			dsl.InitProp{Name: "Done", Init: false},
		),
		dsl.Retract{Prop: dsl.PR("Go")},
		dsl.Assert{Prop: dsl.PR("Done")},
	).Guarded(formula.P("Go")))
	p.Instance("a", "T")
	p.SetMain(dsl.Start{Instance: "a"})
	p.Invariant("go-or-done", formula.Or(formula.At("a::j", "Go"), formula.At("a::j", "Done")))

	res := mustCheck(t, p, check.Options{})
	if len(res.Violations) != 0 {
		t.Fatalf("expected clean, got %v", res.Violations)
	}
	if res.Truncated {
		t.Fatalf("tiny program should not truncate (states=%d)", res.States)
	}
}

// A guarded junction whose guard can never become true is a liveness finding.
func TestLivenessNeverScheduled(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("T").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Never", Init: false}),
		dsl.Retract{Prop: dsl.PR("Never")},
	).Guarded(formula.P("Never")))
	p.Instance("a", "T")
	p.SetMain(dsl.Start{Instance: "a"})

	// Never is guard-read, never asserted... but that makes it environment
	// injectable, so the guard CAN fire. Pin the injectable variant first.
	res := mustCheck(t, p, check.Options{})
	if v := findViolation(res, check.Liveness); v != nil {
		t.Fatalf("injectable guard should be schedulable, got %v", v)
	}

	// With the environment budget off, the junction can never fire.
	res = mustCheck(t, p, check.Options{MaxEnv: -1})
	v := findViolation(res, check.Liveness)
	if v == nil {
		t.Fatalf("expected liveness finding, got %v", res.Violations)
	}
	if v.Junction != "a::j" {
		t.Fatalf("wrong junction: %q", v.Junction)
	}
}

func TestTraceEvents(t *testing.T) {
	p := patterns.NegativeDeadlock()
	res := mustCheck(t, p, check.Options{})
	v := findViolation(res, check.Deadlock)
	if v == nil {
		t.Fatalf("no deadlock found")
	}
	evs := check.TraceEvents(*v)
	if len(evs) < 2 {
		t.Fatalf("expected schedule + terminal events, got %v", evs)
	}
	if evs[0].Kind != obsv.EvSchedStart || evs[0].Junction != "a::j" {
		t.Fatalf("first event should be sched.start a::j, got %+v", evs[0])
	}
	last := evs[len(evs)-1]
	if last.Kind != obsv.EvCheckDeadlock {
		t.Fatalf("last event should be check.deadlock, got %+v", last)
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d", i, e.Seq)
		}
	}
}

// Every catalogue pattern must come back with its annotated verdict.
func TestCatalogueVerdicts(t *testing.T) {
	entries := append(patterns.Catalogue(), patterns.Negatives()...)
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			res := mustCheck(t, e.Build(), check.Options{})
			got := check.VerdictOf(res)
			want := e.CheckVerdict
			if want == "" {
				want = "clean"
			}
			if got != want {
				t.Fatalf("verdict %q, annotated %q; violations: %v (states=%d truncated=%v unsupported=%v)",
					got, want, res.Violations, res.States, res.Truncated, res.Unsupported)
			}
		})
	}
}

func BenchmarkCheckCatalogue(b *testing.B) {
	entries := append(patterns.Catalogue(), patterns.Negatives()...)
	progs := make([]*dsl.Program, len(entries))
	for i, e := range entries {
		progs[i] = e.Build()
	}
	b.ResetTimer()
	states := 0
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			res, err := check.Check(p, check.Options{})
			if err != nil {
				b.Fatal(err)
			}
			states += res.States
		}
	}
	b.ReportMetric(float64(states)/float64(b.N), "states/op")
}

// TestTxnRollbackSparesSiblingArmInTheModel: a failing transaction restores
// what the runtime restores — the write-set of the steps it started — so the
// sibling arm's committed Y survives the rollback, in the model as on the
// real runtime, and Done never holds without Y.
func TestTxnRollbackSparesSiblingArmInTheModel(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("T").Junction("j", dsl.Def(
		dsl.Decls(
			dsl.InitProp{Name: "X", Init: false},
			dsl.InitProp{Name: "Y", Init: false},
			dsl.InitProp{Name: "Z", Init: false},
			dsl.InitProp{Name: "Done", Init: false},
		),
		dsl.Otherwise{
			Try: dsl.Par{
				dsl.Txn{Body: []dsl.Expr{
					dsl.Assert{Prop: dsl.PR("X")},
					dsl.Wait{Cond: formula.P("Z")},
					dsl.Verify{Cond: formula.FalseF{}},
				}},
				dsl.Seq{
					dsl.Wait{Cond: formula.P("X")},
					dsl.Assert{Prop: dsl.PR("Y")},
					dsl.Assert{Prop: dsl.PR("Z")},
				},
			},
			Handler: dsl.Assert{Prop: dsl.PR("Done")},
		},
	))
	p.Instance("i", "T")
	p.SetMain(dsl.Start{Instance: "i"})
	p.Invariant("done-implies-y", formula.Implies(formula.At("i::j", "Done"), formula.At("i::j", "Y")))

	res := mustCheck(t, p, check.Options{})
	if v := findViolation(res, check.Invariant); v != nil {
		rr, err := check.Replay(p, *v, check.ReplayOptions{})
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		t.Fatalf("%v (replay on the runtime: confirmed=%v, %s)", v, rr.Confirmed, rr.Detail)
	}
	if res.Truncated {
		t.Fatalf("small program truncated (states=%d)", res.States)
	}
}
