package dsl_test

import (
	"slices"
	"sort"
	"testing"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

// TestValidateAdmitsInMainWhatRunMainRuns pins main's one reading: for every
// statement kind, Validate accepts it in main exactly when plan.RunMain runs
// it. Composite kinds hold skip, so only the kind itself is judged.
func TestValidateAdmitsInMainWhatRunMainRuns(t *testing.T) {
	skip := []dsl.Expr{dsl.Skip{}}
	forms := map[string]dsl.Expr{
		"Seq":        dsl.Seq(skip),
		"Par":        dsl.Par(skip),
		"ParN":       dsl.ParN{N: 2, Body: skip},
		"Scope":      dsl.Scope{Body: skip},
		"Txn":        dsl.Txn{Body: skip},
		"Otherwise":  dsl.Otherwise{Try: dsl.Skip{}, Handler: dsl.Skip{}},
		"If":         dsl.If{Cond: formula.FalseF{}, Then: dsl.Skip{}},
		"Case":       dsl.Case{Arms: []dsl.CaseArm{{Cond: formula.FalseF{}, Body: skip, Term: dsl.TermBreak}}, Otherwise: skip},
		"Skip":       dsl.Skip{},
		"Start":      dsl.Start{Instance: "a"},
		"Stop":       dsl.Stop{Instance: "a"},
		"Host":       dsl.Host{Label: "h"},
		"Save":       dsl.Save{Data: "n"},
		"Restore":    dsl.Restore{Data: "n"},
		"Write":      dsl.Write{Data: "n", To: dsl.J("a", "j")},
		"Wait":       dsl.Wait{Cond: formula.FalseF{}},
		"Assert":     dsl.Assert{Prop: dsl.PR("P")},
		"Retract":    dsl.Retract{Prop: dsl.PR("P")},
		"Verify":     dsl.Verify{Cond: formula.FalseF{}},
		"Keep":       dsl.Keep{Props: []string{"P"}},
		"IdxAssign":  dsl.IdxAssign{Idx: "x", Elem: "e"},
		"Return":     dsl.Return{},
		"Retry":      dsl.Retry{},
		"Break":      dsl.Break{},
		"Next":       dsl.Next{},
		"Reconsider": dsl.Reconsider{},
	}
	ok := func(string) error { return nil }
	var admitted []string
	for _, kind := range dsl.ExprKinds(t) {
		e, found := forms[kind]
		if !found {
			t.Errorf("statement kind %s has no form in this table", kind)
			continue
		}
		p := dsl.NewProgram()
		p.Type("T").Junction("j", dsl.Def(nil, dsl.Skip{}))
		p.Instance("a", "T")
		p.SetMain(dsl.Start{Instance: "a"}, e)
		valid := dsl.Validate(p) == nil
		runs := plan.RunMain(p.Main, func(string, any) error { return nil }, ok) == nil
		if valid != runs {
			t.Errorf("%s in main: Validate accepts it %v, RunMain runs it %v", kind, valid, runs)
		}
		if valid {
			admitted = append(admitted, kind)
		}
	}
	sort.Strings(admitted)
	if want := []string{"Otherwise", "Par", "Scope", "Seq", "Skip", "Start", "Stop"}; !slices.Equal(admitted, want) {
		t.Errorf("main admits %v, want %v", admitted, want)
	}
}
