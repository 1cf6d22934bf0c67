package events_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/events"
	"csaw/internal/formula"
	"csaw/internal/obsv"
	"csaw/internal/plan"
	"csaw/internal/runtime"
)

// mutantProgram builds source f::j with the given body and sinks g1::j, g2::j
// whose guard never holds, so what f sends only queues.
func mutantProgram(body ...dsl.Expr) *dsl.Program {
	p := dsl.NewProgram()
	p.Type("srcT").Junction("j", dsl.Def(dsl.Decls(
		dsl.InitProp{Name: "U", Init: false}, dsl.InitProp{Name: "W", Init: false},
		dsl.InitProp{Name: "Go", Init: true}, dsl.InitProp{Name: "Never", Init: false},
		dsl.InitProp{Name: "Tail", Init: false}, dsl.InitProp{Name: "Late", Init: false},
	), body...))
	p.Type("sinkT").Junction("j", dsl.Def(dsl.Decls(
		dsl.InitProp{Name: "U", Init: false}, dsl.InitProp{Name: "V", Init: true},
		dsl.InitProp{Name: "W", Init: false}, dsl.InitProp{Name: "Open", Init: false},
	), dsl.Skip{}).Guarded(formula.P("Open")))
	p.Instance("f", "srcT").Instance("g1", "sinkT").Instance("g2", "sinkT")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g1"}, dsl.Start{Instance: "g2"}})
	return p
}

// tracedRun invokes f::j once and returns the trace, which must conform.
func tracedRun(t *testing.T, p *dsl.Program) []obsv.Event {
	t.Helper()
	ring := obsv.NewRingSink(1024)
	s, err := runtime.New(p, runtime.Options{Trace: ring, AckTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(ctx, "f", "j"); err != nil {
		t.Fatal(err)
	}
	trace := ring.Events()
	if err := events.ConformsProgram(s.Plan(), trace); err != nil {
		t.Fatalf("the unmutated run does not conform: %v", err)
	}
	return trace
}

// compile lowers p, which must compile.
func compile(t *testing.T, p *dsl.Program) *plan.Program {
	t.Helper()
	pp, err := plan.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// at returns the position of the n-th (from 0) event of the kind with the key.
func at(t *testing.T, trace []obsv.Event, kind obsv.Kind, key string, n int) int {
	t.Helper()
	for i, e := range trace {
		if e.Kind == kind && e.Key == key {
			if n == 0 {
				return i
			}
			n--
		}
	}
	t.Fatalf("the trace has no %s %s", kind, key)
	return -1
}

// insert returns trace with ev before position i.
func insert(trace []obsv.Event, i int, ev obsv.Event) []obsv.Event {
	out := append([]obsv.Event(nil), trace[:i]...)
	return append(append(out, ev), trace[i:]...)
}

func swap(trace []obsv.Event, i, k int) []obsv.Event {
	out := append([]obsv.Event(nil), trace...)
	out[i], out[k] = out[k], out[i]
	return out
}

func drop(trace []obsv.Event, i int) []obsv.Event {
	return append(append([]obsv.Event(nil), trace[:i]...), trace[i+1:]...)
}

// TestConformsRejectsMutants: the oracle has teeth. From one conforming run
// each of a sequence, a vectorised par, an otherwise[t] that timed out and a
// rolled-back transaction, every mutant must be rejected with an error naming
// the event that has no place — and the one legal reordering, two arms of a
// par, must still be accepted.
func TestConformsRejectsMutants(t *testing.T) {
	g := func(n int) dsl.JunctionRef { return dsl.J(fmt.Sprintf("g%d", n), "j") }
	local := func(p string) dsl.Expr { return dsl.Assert{Prop: dsl.PR(p)} }

	sequence := mutantProgram(
		dsl.Assert{Target: g(1), Prop: dsl.PR("U")}, dsl.Assert{Target: g(1), Prop: dsl.PR("W")},
		dsl.Retract{Target: g(1), Prop: dsl.PR("V")}, local("Tail"))
	par := mutantProgram(dsl.Par{
		dsl.Assert{Target: g(1), Prop: dsl.PR("U")}, dsl.Retract{Target: g(1), Prop: dsl.PR("V")},
		dsl.Assert{Target: g(2), Prop: dsl.PR("W")}})
	timedOut := mutantProgram(
		dsl.Wait{Cond: formula.P("Go")},
		dsl.OtherwiseT(dsl.Seq{dsl.Wait{Cond: formula.P("Never")}, local("Tail")}, 20*time.Millisecond, local("Late")))
	rolledBack := mutantProgram(dsl.Otherwise{
		Try:     dsl.Txn{Body: []dsl.Expr{local("U"), dsl.Verify{Cond: formula.P("Never")}, local("Tail")}},
		Handler: local("Late"),
	})

	// Events a mutant adds carry a sequence number no run issued.
	queued := func(junction, key, truth string) obsv.Event {
		return obsv.Event{Seq: 9000, Kind: obsv.EvRemoteQueued, Junction: junction, Peer: "f::j", Key: key, Truth: truth}
	}
	wrote := func(key string) obsv.Event {
		return obsv.Event{Seq: 9000, Kind: obsv.EvLocalWrite, Junction: "f::j", Key: key, Truth: "tt"}
	}
	mutants := []struct {
		name   string
		prog   *dsl.Program
		mutate func(t *testing.T, trace []obsv.Event) (mutant []obsv.Event, offender obsv.Event)
	}{{
		"two deliveries of one straight-line group swapped", sequence,
		func(t *testing.T, tr []obsv.Event) ([]obsv.Event, obsv.Event) {
			u, w := at(t, tr, obsv.EvRemoteQueued, "U", 0), at(t, tr, obsv.EvRemoteQueued, "W", 0)
			return swap(tr, u, w), tr[w]
		},
	}, {
		"a delivery dropped from the middle of a sequence", sequence,
		func(t *testing.T, tr []obsv.Event) ([]obsv.Event, obsv.Event) {
			return drop(tr, at(t, tr, obsv.EvRemoteQueued, "W", 0)), tr[at(t, tr, obsv.EvRemoteQueued, "V", 0)]
		},
	}, {
		"a local write dropped from the middle of a sequence", sequence,
		func(t *testing.T, tr []obsv.Event) ([]obsv.Event, obsv.Event) {
			// W's local half is owed to V's delivery and never arrives.
			return drop(tr, at(t, tr, obsv.EvLocalWrite, "W", 0)), tr[at(t, tr, obsv.EvSchedFire, "", 0)]
		},
	}, {
		"a write after sched.fire", sequence,
		func(t *testing.T, tr []obsv.Event) ([]obsv.Event, obsv.Event) {
			ev := wrote("Late")
			return insert(tr, at(t, tr, obsv.EvSchedFire, "", 0)+1, ev), ev
		},
	}, {
		"a delivery at a junction the body never targets", sequence,
		func(t *testing.T, tr []obsv.Event) ([]obsv.Event, obsv.Event) {
			ev := queued("g2::j", "U", "tt")
			return insert(tr, at(t, tr, obsv.EvRemoteQueued, "W", 0), ev), ev
		},
	}, {
		"a delivery with the wrong value", sequence,
		func(t *testing.T, tr []obsv.Event) ([]obsv.Event, obsv.Event) {
			out := append([]obsv.Event(nil), tr...)
			v := at(t, tr, obsv.EvRemoteQueued, "V", 0)
			out[v].Truth = "tt"
			return out, out[v]
		},
	}, {
		"a par arm's delivery twice", par,
		func(t *testing.T, tr []obsv.Event) ([]obsv.Event, obsv.Event) {
			ev := queued("g1::j", "U", "tt")
			return insert(tr, at(t, tr, obsv.EvSchedFire, "", 0), ev), ev
		},
	}, {
		"a second wait.admitted for one wait.armed", timedOut,
		func(t *testing.T, tr []obsv.Event) ([]obsv.Event, obsv.Event) {
			a := at(t, tr, obsv.EvWaitAdmitted, "Go", 0)
			ev := tr[a]
			ev.Seq = 9000
			return insert(tr, a+1, ev), ev
		},
	}, {
		"the tail of a timed-out try beside its handler", timedOut,
		func(t *testing.T, tr []obsv.Event) ([]obsv.Event, obsv.Event) {
			ev := wrote("Tail")
			return insert(tr, at(t, tr, obsv.EvLocalWrite, "Late", 0), ev), ev
		},
	}, {
		"the tail of a rolled-back transaction beside its handler", rolledBack,
		func(t *testing.T, tr []obsv.Event) ([]obsv.Event, obsv.Event) {
			late := at(t, tr, obsv.EvLocalWrite, "Late", 0)
			ev := wrote("Tail")
			return insert(tr, late+1, ev), ev
		},
	}, {
		"a rollback of a transaction that ran to its end", rolledBack,
		func(t *testing.T, tr []obsv.Event) ([]obsv.Event, obsv.Event) {
			rb := at(t, tr, obsv.EvTxnRollback, "", 0)
			ev := wrote("Tail")
			return insert(tr, rb, ev), tr[rb]
		},
	}}
	traces := map[*dsl.Program][]obsv.Event{}
	for _, p := range []*dsl.Program{sequence, par, timedOut, rolledBack} {
		traces[p] = tracedRun(t, p)
	}
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			mutant, offender := m.mutate(t, traces[m.prog])
			err := events.ConformsProgram(compile(t, m.prog), mutant)
			if err == nil {
				t.Fatal("the mutant was accepted")
			}
			if want := fmt.Sprintf("%s #%d ", offender.Kind, offender.Seq); !strings.Contains(err.Error(), want) {
				t.Fatalf("the error does not name %q: %v", want, err)
			}
			t.Log(err)
		})
	}

	t.Run("two par arms in either order", func(t *testing.T) {
		tr := traces[par]
		u, v := at(t, tr, obsv.EvRemoteQueued, "U", 0), at(t, tr, obsv.EvRemoteQueued, "V", 0)
		if err := events.ConformsProgram(compile(t, par), swap(tr, u, v)); err != nil {
			t.Fatalf("the arms of a par are unordered, yet: %v", err)
		}
	})
}

// TestReturnWithEmptyContinuationConforms: a return whose continuation is
// empty ends the body, and the denotation says so. `if Go then return;
// assert Tail` with Go true runs no assert, and neither does the same return
// in a par arm beside a remote assert, nor a return that handles a timed-out
// wait; every run must conform. The return denotes an ε event marked as not
// falling through, as an empty otherwise handler does; without it every
// statement after the return was mandatory.
func TestReturnWithEmptyContinuationConforms(t *testing.T) {
	ret := dsl.If{Cond: formula.P("Go"), Then: dsl.Return{}}
	tail := dsl.Assert{Prop: dsl.PR("Tail")}
	for name, p := range map[string]*dsl.Program{
		"sequence": mutantProgram(ret, tail),
		"par arm":  mutantProgram(dsl.Par{ret, dsl.Assert{Target: dsl.J("g1", "j"), Prop: dsl.PR("U")}}, tail),
		"handler":  mutantProgram(dsl.OtherwiseT(dsl.Wait{Cond: formula.P("Never")}, 20*time.Millisecond, dsl.Return{}), tail),
	} {
		t.Run(name, func(t *testing.T) {
			for _, e := range tracedRun(t, p) {
				if e.Kind == obsv.EvLocalWrite && e.Key == "Tail" {
					t.Fatal("the statement after the return ran")
				}
			}
		})
	}
}
