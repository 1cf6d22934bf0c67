package dsl

import (
	"strings"
	"testing"
	"time"

	"csaw/internal/formula"
)

// fig3Program builds the paper's Fig. 3 example: the program "H1;H2"
// typified into τf (instance f) and τg (instance g).
func fig3Program() *Program {
	p := NewProgram()
	noop := func(HostCtx) error { return nil }
	src := func(HostCtx) ([]byte, error) { return []byte("state"), nil }
	sink := func(HostCtx, []byte) error { return nil }

	p.Type("tau_f").Junction("junction", Def(
		Decls(InitProp{Name: "Work", Init: false}, InitData{Name: "n"}),
		Host{Label: "H1", Fn: noop},
		Save{Data: "n", From: src},
		Write{Data: "n", To: J("g", "junction")},
		Assert{Target: J("g", "junction"), Prop: PR("Work")},
		Wait{Cond: formula.Not(formula.P("Work"))},
	))
	p.Type("tau_g").Junction("junction", Def(
		Decls(InitProp{Name: "Work", Init: false}, InitData{Name: "n"}),
		Restore{Data: "n", Into: sink},
		Host{Label: "H2", Fn: noop},
		Retract{Target: J("f", "junction"), Prop: PR("Work")},
	).Guarded(formula.P("Work")))

	p.Instance("f", "tau_f").Instance("g", "tau_g")
	p.SetMain(Par{Start{Instance: "f"}, Start{Instance: "g"}})
	return p
}

func TestFig3Validates(t *testing.T) {
	if err := Validate(fig3Program()); err != nil {
		t.Fatalf("Fig. 3 program should be valid: %v", err)
	}
}

func TestForExprUnrolling(t *testing.T) {
	mk := func(e string) Expr { return Assert{Prop: PR(e)} }

	// Empty set → skip.
	if _, ok := ForExpr(OpSeq, nil, 0, mk).(Skip); !ok {
		t.Error("empty for should be skip")
	}
	// Singleton → single instantiation.
	if got := ForExpr(OpPar, []string{"A"}, 0, mk); got.String() != "assert [] A" {
		t.Errorf("singleton for = %s", got)
	}
	// The paper's example: for p ∈ {E1,E2,E3} ; E[p] becomes
	// E[E1]; ⟨E[E2]; E[E3]⟩ (right-associated).
	got := ForExpr(OpSeq, []string{"E1", "E2", "E3"}, 0, mk)
	seq, ok := got.(Seq)
	if !ok || len(seq) != 2 {
		t.Fatalf("three-element OpSeq: %s", got)
	}
	if _, ok := seq[1].(Scope); !ok {
		t.Fatalf("tail not scoped: %s", got)
	}
	// otherwise form nests with timeouts.
	ow := ForExpr(OpOtherwise, []string{"E1", "E2", "E3"}, time.Second, mk)
	if o, ok := ow.(Otherwise); !ok || o.Timeout != time.Second {
		t.Fatalf("otherwise unroll: %s", ow)
	}
}

func TestForFormulaEmptySets(t *testing.T) {
	f := func(e string) formula.Formula { return formula.P(e) }
	env := formula.MapEnv{}
	if got := ForAll(nil, f).Eval(env); got != formula.True {
		t.Errorf("empty ∧-for should be ¬false (true), got %v", got)
	}
	if got := ForAny(nil, f).Eval(env); got != formula.False {
		t.Errorf("empty ∨-for should be false, got %v", got)
	}
}

func TestForAllForAny(t *testing.T) {
	env := formula.MapEnv{"A": true, "B": false}
	all := ForAll([]string{"A", "B"}, func(e string) formula.Formula { return formula.P(e) })
	if all.Eval(env) != formula.False {
		t.Error("ForAll over {A,B} with B false should be false")
	}
	any := ForAny([]string{"A", "B"}, func(e string) formula.Formula { return formula.P(e) })
	if any.Eval(env) != formula.True {
		t.Error("ForAny over {A,B} with A true should be true")
	}
}

func TestForProps(t *testing.T) {
	ds := ForProps("Backend", []string{"b1", "b2"}, false)
	if len(ds) != 2 {
		t.Fatalf("got %d decls", len(ds))
	}
	ip, ok := ds[0].(InitProp)
	if !ok || ip.Name != "Backend[b1]" || ip.Init {
		t.Fatalf("decl[0] = %v", ds[0])
	}
}

func TestForArms(t *testing.T) {
	arms := ForArms([]string{"x", "y"}, func(e string) CaseArm {
		return Arm(formula.P(e), TermBreak, Skip{})
	})
	if len(arms) != 2 || arms[1].Cond.String() != "y" {
		t.Fatalf("arms = %v", arms)
	}
}

func TestFunctionTemplates(t *testing.T) {
	p := fig3Program()
	p.Func("Initialize", func(args ...string) []Expr {
		return []Expr{Assert{Target: J(args[0], "junction"), Prop: PR("Work")}}
	})
	e := p.CallF("Initialize", "g")
	sc, ok := e.(Scope)
	if !ok {
		t.Fatalf("function expansion should be a fate scope, got %T", e)
	}
	if len(sc.Body) != 1 {
		t.Fatalf("body = %v", sc.Body)
	}
	if got := sc.Body[0].String(); got != "assert [g::junction] Work" {
		t.Fatalf("expansion = %q", got)
	}
}

func TestCallUndefinedFunctionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewProgram().CallF("nope")
}

func TestPropIdxRoundTrip(t *testing.T) {
	pr := PropIdx("Work", "tgt")
	base, idx, ok := SplitIdxProp(pr.Name)
	if !ok || base != "Work" || idx != "tgt" {
		t.Fatalf("SplitIdxProp(%q) = %q %q %v", pr.Name, base, idx, ok)
	}
	if _, _, ok := SplitIdxProp("Plain"); ok {
		t.Fatal("plain name misparsed as idx prop")
	}
	if _, _, ok := SplitIdxProp("Concrete[b1]"); ok {
		t.Fatal("concrete-indexed name misparsed as idx prop")
	}
}

func TestStringRenderings(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Skip{}, "skip"},
		{Retry{}, "retry"},
		{Return{}, "return"},
		{Break{}, "break"},
		{Next{}, "next"},
		{Reconsider{}, "reconsider"},
		{Write{Data: "n", To: J("g", "j")}, "write(n, g::j)"},
		{Assert{Target: Local(), Prop: PR("P")}, "assert [] P"},
		{Retract{Target: ByIdx("tgt"), Prop: PRIdx("Work", "tgt")}, "retract [tgt] Work[tgt]"},
		{Stop{Instance: "f"}, "stop f"},
		{Start{Instance: "f"}, "start f"},
		{Verify{Cond: formula.P("P")}, "verify P"},
		{IdxAssign{Idx: "i", Elem: "a"}, "i := a"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if got := MeJ().String(); got != "me::junction" {
		t.Errorf("MeJ = %q", got)
	}
	if got := MeI("serve").String(); got != "me::instance::serve" {
		t.Errorf("MeI = %q", got)
	}
}

func TestInstanceOrderAndTypes(t *testing.T) {
	p := fig3Program()
	if got := p.InstanceNames(); len(got) != 2 || got[0] != "f" || got[1] != "g" {
		t.Fatalf("InstanceNames = %v", got)
	}
	if got := p.TypeNames(); len(got) != 2 || got[0] != "tau_f" {
		t.Fatalf("TypeNames = %v", got)
	}
	if got := p.InstancesOfType("tau_f"); len(got) != 1 || got[0] != "f" {
		t.Fatalf("InstancesOfType = %v", got)
	}
}

func TestTerminatorString(t *testing.T) {
	if TermBreak.String() != "break" || TermNext.String() != "next" || TermReconsider.String() != "reconsider" {
		t.Fatal("terminator strings wrong")
	}
}

// TestAllNodeStrings renders every AST node form in the paper's concrete
// syntax; the strings are the DSL's user-facing diagnostics.
func TestAllNodeStrings(t *testing.T) {
	noop := func(HostCtx) error { return nil }
	ow := Otherwise{Try: Skip{}, Timeout: time.Second, Handler: Retry{}}
	cases := []struct {
		e    Expr
		want string
	}{
		{Host{Label: "H1", Fn: noop}, "⌊H1⌉"},
		{Host{Label: "Choose", Writes: []string{"tgt"}, Fn: noop}, "⌊Choose⌉{tgt}"},
		{Scope{Body: []Expr{Skip{}, Retry{}}}, "⟨skip; retry⟩"},
		{Txn{Body: []Expr{Skip{}}}, "⟨|skip|⟩"},
		{Save{Data: "n"}, "save(…, n)"},
		{Restore{Data: "n"}, "restore(n, …)"},
		{Seq{Skip{}, Return{}}, "skip; return"},
		{Par{Skip{}, Skip{}}, "skip + skip"},
		{ParN{N: 3, Body: []Expr{Skip{}}}, "∥3 skip"},
		{ow, "skip otherwise[1s] retry"},
		{Otherwise{Try: Skip{}, Handler: Skip{}}, "skip otherwise skip"},
		{Wait{Data: []string{"m"}, Cond: formula.P("Work")}, "wait [m] Work"},
		{Keep{Props: []string{"P"}, Data: []string{"n"}}, "keep props[P] data[n]"},
		{If{Cond: formula.P("A"), Then: Skip{}}, "if A then skip"},
		{If{Cond: formula.P("A"), Then: Skip{}, Else: Retry{}}, "if A then skip else retry"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	cs := Case{
		Arms:      []CaseArm{Arm(formula.P("Work"), TermReconsider, Skip{})},
		Otherwise: []Expr{Skip{}},
	}
	s := cs.String()
	for _, sub := range []string{"case {", "Work ⇒ skip; reconsider", "otherwise ⇒ skip }"} {
		if !strings.Contains(s, sub) {
			t.Errorf("case String %q missing %q", s, sub)
		}
	}
	if got := PRAt("Backend", "b1::serve").String(); got != "Backend[b1::serve]" {
		t.Errorf("PRAt = %q", got)
	}
	if got := (JunctionRef{}).String(); got != "" {
		t.Errorf("local ref = %q", got)
	}
	if got := (Terminator(99)).String(); !strings.Contains(got, "terminator") {
		t.Errorf("unknown terminator = %q", got)
	}
}
