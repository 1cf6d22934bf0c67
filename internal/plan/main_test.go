package plan_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

// TestCompileRejectsNonMainForms: main holds only what plan.RunMain runs, so
// Compile rejects every other statement there and names it.
func TestCompileRejectsNonMainForms(t *testing.T) {
	skip := []dsl.Expr{dsl.Skip{}}
	for _, e := range []dsl.Expr{
		dsl.Verify{Cond: formula.FalseF{}},
		dsl.If{Cond: formula.FalseF{}, Then: dsl.Skip{}},
		dsl.Case{Arms: []dsl.CaseArm{{Cond: formula.FalseF{}, Body: skip, Term: dsl.TermBreak}}, Otherwise: skip},
		dsl.Txn{Body: skip},
		dsl.ParN{N: 2, Body: skip},
		dsl.Keep{Props: []string{"P"}},
		dsl.IdxAssign{Idx: "x", Elem: "e"},
		dsl.Retry{},
		dsl.Return{},
		dsl.Break{},
		dsl.Next{},
		dsl.Reconsider{},
	} {
		p := dsl.NewProgram()
		p.Type("T").Junction("j", dsl.Def(nil, dsl.Skip{}))
		p.Instance("a", "T")
		p.SetMain(dsl.Start{Instance: "a"}, e)
		_, err := plan.Compile(p)
		if want := "main may not contain statement " + e.String(); !errors.Is(err, dsl.ErrInvalid) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s in main: Compile says %v, want an error naming %q", e, err, want)
		}
	}
}

// TestRunMainOrder: a sequence stops at its first failure, every par arm runs
// in arm order with the failures joined, and an otherwise runs its handler
// only when its try failed.
func TestRunMainOrder(t *testing.T) {
	var did []string
	start := func(inst string, _ any) error {
		did = append(did, "start "+inst)
		if strings.HasPrefix(inst, "bad") {
			return fmt.Errorf("%s fails", inst)
		}
		return nil
	}
	stop := func(inst string) error { did = append(did, "stop "+inst); return nil }
	st := func(inst string) dsl.Expr { return dsl.Start{Instance: inst} }

	err := plan.RunMain([]dsl.Expr{
		dsl.Otherwise{Try: st("a"), Handler: st("never")},
		dsl.Otherwise{Try: dsl.Seq{st("bad1"), st("never")}, Handler: dsl.Scope{Body: []dsl.Expr{st("b"), dsl.Skip{}}}},
		dsl.Par{st("bad2"), dsl.Stop{Instance: "a"}, st("bad3")},
		st("never"),
	}, start, stop)
	if err == nil || !strings.Contains(err.Error(), "bad2 fails\nbad3 fails") {
		t.Errorf("RunMain: %v, want the two failing arms joined", err)
	}
	if got, want := strings.Join(did, "; "), "start a; start bad1; start b; start bad2; stop a; start bad3"; got != want {
		t.Errorf("ran %q, want %q", got, want)
	}
}

// TestStartedIsWhatMainStarts: Compile's Started runs main over which
// instances run, so a handler whose try succeeded starts nothing.
func TestStartedIsWhatMainStarts(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("T").Junction("j", dsl.Def(nil, dsl.Skip{}))
	p.Instance("a", "T").Instance("b", "T").Instance("c", "T")
	p.SetMain(
		dsl.Otherwise{Try: dsl.Start{Instance: "a"}, Handler: dsl.Start{Instance: "b"}},
		dsl.Start{Instance: "c"},
	)
	pp := compile(t, p)
	if !pp.Started["a"] || pp.Started["b"] || !pp.Started["c"] {
		t.Fatalf("Started = %v, want a and c", pp.Started)
	}
}

// TestCompileRejectsFailingMain: a main that fails when it runs is a fault,
// one line per start or stop that fails it, as System.RunMain would report
// it; a failure an otherwise handles is not.
func TestCompileRejectsFailingMain(t *testing.T) {
	st := func(inst string) dsl.Expr { return dsl.Start{Instance: inst} }
	for _, tc := range []struct {
		name string
		main []dsl.Expr
		want []string // nil: compiles
	}{
		{"start a; start a; start b", []dsl.Expr{st("a"), st("a"), st("b")},
			[]string{"main: start a: instance already started"}},
		{"stop of a stopped instance", []dsl.Expr{st("a"), dsl.Stop{Instance: "b"}},
			[]string{"main: stop b: instance not running"}},
		{"two failing par arms", []dsl.Expr{st("a"), dsl.Par{st("a"), st("b"), dsl.Stop{Instance: "c"}}},
			[]string{"main: start a: instance already started", "main: stop c: instance not running"}},
		{"a handled failure", []dsl.Expr{st("a"), dsl.Otherwise{Try: st("a"), Handler: st("b")}}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := dsl.NewProgram()
			p.Type("T").Junction("j", dsl.Def(nil, dsl.Skip{}))
			p.Instance("a", "T").Instance("b", "T").Instance("c", "T")
			p.SetMain(tc.main...)
			_, err := plan.Compile(p)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Compile: %v", err)
				}
				return
			}
			if !errors.Is(err, dsl.ErrInvalid) {
				t.Fatalf("Compile: %v, want an invalid program", err)
			}
			if got, want := err.Error(), dsl.Invalid(tc.want).Error(); got != want {
				t.Fatalf("Compile says\n%s\nwant\n%s", got, want)
			}
		})
	}
}
