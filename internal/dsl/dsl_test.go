package dsl

import (
	"errors"
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

func TestFig3HasWorkDeclaredBothSides(t *testing.T) {
	p := fig3Program()
	// f asserts Work at g — both junctions must declare Work for the
	// assertion to be well-formed. Remove g's declaration and validation
	// must fail.
	g := p.Types["tau_g"].Junctions["junction"]
	g.Decls = []Decl{InitData{Name: "n"}}
	g.Guard = nil
	err := Validate(p)
	if err == nil {
		t.Fatal("expected invalid after removing remote prop declaration")
	}
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("error should wrap ErrInvalid: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	noop := func(HostCtx) error { return nil }
	cases := []struct {
		name  string
		build func() *Program
		want  string
	}{
		{
			name: "empty main",
			build: func() *Program {
				p := fig3Program()
				p.Main = nil
				return p
			},
			want: "main is empty",
		},
		{
			name: "main starts unknown instance",
			build: func() *Program {
				p := fig3Program()
				p.SetMain(Start{Instance: "ghost"})
				return p
			},
			want: "undeclared instance",
		},
		{
			name: "main with junction statement",
			build: func() *Program {
				p := fig3Program()
				p.SetMain(Seq{Start{Instance: "f"}, Assert{Prop: PR("Work")}})
				return p
			},
			want: "junction-state statement",
		},
		{
			name: "instance of unknown type",
			build: func() *Program {
				p := fig3Program()
				p.Instance("x", "no_such_type")
				return p
			},
			want: "undeclared type",
		},
		{
			name: "host block in transaction",
			build: func() *Program {
				p := fig3Program()
				d := p.Types["tau_f"].Junctions["junction"]
				d.Body = append(d.Body, Txn{Body: []Expr{Host{Label: "H", Fn: noop}}})
				return p
			},
			want: "inside transaction",
		},
		{
			name: "host writes undeclared name",
			build: func() *Program {
				p := fig3Program()
				d := p.Types["tau_f"].Junctions["junction"]
				d.Body = append(d.Body, Host{Label: "H", Writes: []string{"nope"}, Fn: noop})
				return p
			},
			want: "writes undeclared name",
		},
		{
			name: "write to self",
			build: func() *Program {
				p := fig3Program()
				d := p.Types["tau_f"].Junctions["junction"]
				d.Body = append(d.Body, Write{Data: "n", To: MeJ()})
				return p
			},
			want: "write to self",
		},
		{
			name: "assert to me::junction",
			build: func() *Program {
				p := fig3Program()
				d := p.Types["tau_f"].Junctions["junction"]
				d.Body = append(d.Body, Assert{Target: MeJ(), Prop: PR("Work")})
				return p
			},
			want: "me::junction disallowed",
		},
		{
			name: "undeclared local prop in assert",
			build: func() *Program {
				p := fig3Program()
				d := p.Types["tau_f"].Junctions["junction"]
				d.Body = append(d.Body, Assert{Prop: PR("Ghost")})
				return p
			},
			want: `proposition "Ghost" not declared`,
		},
		{
			name: "wait on undeclared data",
			build: func() *Program {
				p := fig3Program()
				d := p.Types["tau_f"].Junctions["junction"]
				d.Body = append(d.Body, Wait{Data: []string{"m"}, Cond: formula.P("Work")})
				return p
			},
			want: "undeclared data",
		},
		{
			name: "case with no arms",
			build: func() *Program {
				p := fig3Program()
				d := p.Types["tau_f"].Junctions["junction"]
				d.Body = append(d.Body, Case{Otherwise: []Expr{Skip{}}})
				return p
			},
			want: "case with no guarded arms",
		},
		{
			name: "next before otherwise",
			build: func() *Program {
				p := fig3Program()
				d := p.Types["tau_f"].Junctions["junction"]
				d.Body = append(d.Body, Case{
					Arms:      []CaseArm{Arm(formula.P("Work"), TermNext, Skip{})},
					Otherwise: []Expr{Skip{}},
				})
				return p
			},
			want: "next cannot be used immediately before otherwise",
		},
		{
			name: "next outside case",
			build: func() *Program {
				p := fig3Program()
				d := p.Types["tau_f"].Junctions["junction"]
				d.Body = append(d.Body, Next{})
				return p
			},
			want: "next outside case",
		},
		{
			name: "reconsider outside case",
			build: func() *Program {
				p := fig3Program()
				d := p.Types["tau_f"].Junctions["junction"]
				d.Body = append(d.Body, Reconsider{})
				return p
			},
			want: "reconsider outside case",
		},
		{
			name: "empty set",
			build: func() *Program {
				p := fig3Program()
				d := p.Types["tau_f"].Junctions["junction"]
				d.Decls = append(d.Decls, DeclSet{Name: "S"})
				return p
			},
			want: "is empty",
		},
		{
			name: "duplicate set element",
			build: func() *Program {
				p := fig3Program()
				d := p.Types["tau_f"].Junctions["junction"]
				d.Decls = append(d.Decls, DeclSet{Name: "S", Elems: []string{"a", "a"}})
				return p
			},
			want: "duplicate element",
		},
		{
			name: "idx over unknown set",
			build: func() *Program {
				p := fig3Program()
				d := p.Types["tau_f"].Junctions["junction"]
				d.Decls = append(d.Decls, DeclIdx{Name: "tgt", Of: "Nowhere"})
				return p
			},
			want: "undeclared set",
		},
		{
			name: "subset of unknown set",
			build: func() *Program {
				p := fig3Program()
				d := p.Types["tau_f"].Junctions["junction"]
				d.Decls = append(d.Decls, DeclSubset{Name: "sub", Of: "Nowhere"})
				return p
			},
			want: "undeclared set",
		},
		{
			name: "idx assignment outside set",
			build: func() *Program {
				p := fig3Program()
				d := p.Types["tau_f"].Junctions["junction"]
				d.Decls = append(d.Decls, DeclSet{Name: "S", Elems: []string{"a"}}, DeclIdx{Name: "i", Of: "S"})
				d.Body = append(d.Body, IdxAssign{Idx: "i", Elem: "zzz"})
				return p
			},
			want: "outside its set",
		},
		{
			name: "guard references undeclared prop",
			build: func() *Program {
				p := fig3Program()
				p.Types["tau_g"].Junctions["junction"].Guard = formula.P("Nope")
				return p
			},
			want: `proposition "Nope" not declared`,
		},
		{
			name: "unresolvable junction reference",
			build: func() *Program {
				p := fig3Program()
				d := p.Types["tau_f"].Junctions["junction"]
				d.Body = append(d.Body, Write{Data: "n", To: J("nobody", "junction")})
				return p
			},
			want: "unresolvable junction reference",
		},
		{
			name: "parN below one",
			build: func() *Program {
				p := fig3Program()
				d := p.Types["tau_f"].Junctions["junction"]
				d.Body = append(d.Body, ParN{N: 0, Body: []Expr{Skip{}}})
				return p
			},
			want: "∥n with n < 1",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := Validate(c.build())
			if err == nil {
				t.Fatalf("expected validation error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
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
	if _, err := p.JunctionDefOf("f", "junction"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.JunctionDefOf("f", "nope"); err == nil {
		t.Fatal("expected error for unknown junction")
	}
	if _, err := p.JunctionDefOf("zz", "junction"); err == nil {
		t.Fatal("expected error for unknown instance")
	}
}

func TestTerminatorString(t *testing.T) {
	if TermBreak.String() != "break" || TermNext.String() != "next" || TermReconsider.String() != "reconsider" {
		t.Fatal("terminator strings wrong")
	}
}

func TestResolveElemJunction(t *testing.T) {
	p := fig3Program()
	inst, jn, err := ResolveElemJunction(p, "g::junction")
	if err != nil || inst != "g" || jn != "junction" {
		t.Fatalf("qualified: %v %v %v", inst, jn, err)
	}
	inst, jn, err = ResolveElemJunction(p, "g") // bare instance, single junction
	if err != nil || inst != "g" || jn != "junction" {
		t.Fatalf("bare: %v %v %v", inst, jn, err)
	}
	if _, _, err = ResolveElemJunction(p, "nobody"); err == nil {
		t.Fatal("expected error for unknown element")
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
