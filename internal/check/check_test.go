package check_test

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

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
	rr, err := check.Replay(p, *v)
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
	rr, err := check.Replay(p, *v)
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

// goldenHeadlines reads each entry's headline from csawc's frozen -check-all
// output: "name: verdict (states=N transitions=M[, truncated])".
func goldenHeadlines(t *testing.T) map[string]check.Result {
	t.Helper()
	raw, err := os.ReadFile("../../cmd/csawc/testdata/check-all.golden")
	if err != nil {
		t.Fatal(err)
	}
	headline := regexp.MustCompile(`^(\S+): \S+ \(states=(\d+) transitions=(\d+)(, truncated)?\)$`)
	out := map[string]check.Result{}
	for _, line := range strings.Split(string(raw), "\n") {
		m := headline.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		states, _ := strconv.Atoi(m[2])
		transitions, _ := strconv.Atoi(m[3])
		out[m[1]] = check.Result{States: states, Transitions: transitions, Truncated: m[4] != ""}
	}
	return out
}

// Every catalogue pattern must come back with its annotated verdict, and
// explore exactly the states and transitions csawc's golden records.
func TestCatalogueVerdicts(t *testing.T) {
	golden := goldenHeadlines(t)
	entries := append(patterns.Catalogue(), patterns.Negatives()...)
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			res := mustCheck(t, e.Build(), check.Options{})
			head, ok := golden[e.Name]
			if !ok {
				t.Fatalf("no headline for %s in check-all.golden", e.Name)
			}
			if res.States != head.States || res.Transitions != head.Transitions || res.Truncated != head.Truncated {
				t.Errorf("states=%d transitions=%d truncated=%v, golden states=%d transitions=%d truncated=%v",
					res.States, res.Transitions, res.Truncated, head.States, head.Transitions, head.Truncated)
			}
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
		rr, err := check.Replay(p, *v)
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		t.Fatalf("%v (replay on the runtime: confirmed=%v, %s)", v, rr.Confirmed, rr.Detail)
	}
	if res.Truncated {
		t.Fatalf("small program truncated (states=%d)", res.States)
	}
}

// TestIdxAssignOfSelfElement: an idx whose set holds me::junction takes that
// element the way the runtime's SetIdx does, so the rest of the body runs and
// the model finds the invariant the runtime breaks — whether the element is
// written me::junction or as the junction's own name.
func TestIdxAssignOfSelfElement(t *testing.T) {
	for _, elem := range []string{"me::junction", "a::j"} {
		t.Run(elem, func(t *testing.T) {
			p := dsl.NewProgram()
			p.Type("T").Junction("j", dsl.Def(
				dsl.Decls(
					dsl.DeclSet{Name: "S", Elems: []string{elem}},
					dsl.DeclIdx{Name: "i", Of: "S"},
					dsl.InitProp{Name: dsl.IndexedName("Flag", elem), Init: false},
					dsl.InitProp{Name: "Done", Init: false},
				),
				dsl.IdxAssign{Idx: "i", Elem: elem},
				dsl.Assert{Prop: dsl.PRIdx("Flag", "i")},
				dsl.Assert{Prop: dsl.PR("Done")},
			))
			p.Instance("a", "T")
			p.SetMain(dsl.Start{Instance: "a"})
			p.Invariant("never-done", formula.Not(formula.At("a::j", "Done")))

			res := mustCheck(t, p, check.Options{})
			if got := check.VerdictOf(res); got != "invariant" {
				t.Fatalf("verdict %q, want invariant (violations %v)", got, res.Violations)
			}
			rr, err := check.Replay(p, *findViolation(res, check.Invariant))
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if !rr.Confirmed {
				t.Fatalf("replay refuted the invariant violation: %s", rr.Detail)
			}
		})
	}
}

// TestDeadlineReachesParArmsInTheModel: an otherwise[t] deadline that expires
// fails every wait blocked below it, in the arms of a par under it too, and
// its own handler catches the join's failure, as on the runtime: the handler
// asserts Done, which the invariant forbids, and Replay confirms it there.
func TestDeadlineReachesParArmsInTheModel(t *testing.T) {
	never := dsl.Wait{Cond: formula.FalseF{}}
	for name, try := range map[string]dsl.Expr{
		"wait":          never,
		"par of waits":  dsl.Par{never, never},
		"par wait skip": dsl.Par{never, dsl.Skip{}},
	} {
		t.Run(name, func(t *testing.T) {
			p := dsl.NewProgram()
			p.Type("T").Junction("j", dsl.Def(
				dsl.Decls(dsl.InitProp{Name: "Done", Init: false}),
				dsl.OtherwiseT(try, 20*time.Millisecond, dsl.Assert{Prop: dsl.PR("Done")}),
			))
			p.Instance("i", "T")
			p.SetMain(dsl.Start{Instance: "i"})
			p.Invariant("never-done", formula.Not(formula.At("i::j", "Done")))

			res := mustCheck(t, p, check.Options{})
			if got := check.VerdictOf(res); got != "invariant" {
				t.Fatalf("verdict %q, want invariant (violations %v)", got, res.Violations)
			}
			rr, err := check.Replay(p, *findViolation(res, check.Invariant))
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if !rr.Confirmed {
				t.Fatalf("replay refuted the invariant violation: %s", rr.Detail)
			}
		})
	}
}
