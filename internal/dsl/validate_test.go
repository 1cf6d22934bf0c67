package dsl_test

import (
	"errors"
	"strings"
	"testing"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

// wantInvalid fails unless err wraps dsl.ErrInvalid and contains want.
func wantInvalid(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected an error containing %q", want)
	}
	if !errors.Is(err, dsl.ErrInvalid) {
		t.Fatalf("error should wrap ErrInvalid: %v", err)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

// wantNameFault fails unless dsl.Validate, which checks shape only, accepts
// p and plan.Compile, which resolves every name, rejects it with want.
func wantNameFault(t *testing.T, p *dsl.Program, want string) {
	t.Helper()
	if err := dsl.Validate(p); err != nil {
		t.Fatalf("Validate judged a name: %v", err)
	}
	_, err := plan.Compile(p)
	wantInvalid(t, err, want)
}

func TestFig3HasWorkDeclaredBothSides(t *testing.T) {
	p := dsl.Fig3Program()
	// f asserts Work at g — both junctions must declare Work for the
	// assertion to be well-formed. Remove g's declaration and compilation
	// must fail.
	g := p.Types["tau_g"].Junctions["junction"]
	g.Decls = []dsl.Decl{dsl.InitData{Name: "n"}}
	g.Guard = nil
	wantNameFault(t, p, `proposition "Work" not declared at g::junction`)
}

// TestValidateRejections holds one program per rule. A shape rule is
// dsl.Validate's; a name rule (names set) is plan.Compile's, which runs the
// shape rules first.
func TestValidateRejections(t *testing.T) {
	noop := func(dsl.HostCtx) error { return nil }
	fig3With := func(edit func(f *dsl.JunctionDef)) func() *dsl.Program {
		return func() *dsl.Program {
			p := dsl.Fig3Program()
			edit(p.Types["tau_f"].Junctions["junction"])
			return p
		}
	}
	cases := []struct {
		name  string
		build func() *dsl.Program
		want  string
		names bool
	}{
		{
			name: "empty main",
			build: func() *dsl.Program {
				p := dsl.Fig3Program()
				p.Main = nil
				return p
			},
			want: "main is empty",
		},
		{
			name: "main starts unknown instance",
			build: func() *dsl.Program {
				p := dsl.Fig3Program()
				p.SetMain(dsl.Start{Instance: "ghost"})
				return p
			},
			want: "undeclared instance",
		},
		{
			name: "main with junction statement",
			build: func() *dsl.Program {
				p := dsl.Fig3Program()
				p.SetMain(dsl.Seq{dsl.Start{Instance: "f"}, dsl.Assert{Prop: dsl.PR("Work")}})
				return p
			},
			want: "main may not contain statement assert",
		},
		{
			name: "instance of unknown type",
			build: func() *dsl.Program {
				p := dsl.Fig3Program()
				p.Instance("x", "no_such_type")
				return p
			},
			want: "undeclared type",
		},
		{
			name: "host block in transaction",
			build: fig3With(func(d *dsl.JunctionDef) {
				d.Body = append(d.Body, dsl.Txn{Body: []dsl.Expr{dsl.Host{Label: "H", Fn: noop}}})
			}),
			want: "inside transaction",
		},
		{
			name: "host writes undeclared name",
			build: fig3With(func(d *dsl.JunctionDef) {
				d.Body = append(d.Body, dsl.Host{Label: "H", Writes: []string{"nope"}, Fn: noop})
			}),
			want:  "writes undeclared name",
			names: true,
		},
		{
			name: "write to self",
			build: fig3With(func(d *dsl.JunctionDef) {
				d.Body = append(d.Body, dsl.Write{Data: "n", To: dsl.MeJ()})
			}),
			want: "write to self",
		},
		{
			name: "assert to me::junction",
			build: fig3With(func(d *dsl.JunctionDef) {
				d.Body = append(d.Body, dsl.Assert{Target: dsl.MeJ(), Prop: dsl.PR("Work")})
			}),
			want: "me::junction disallowed",
		},
		{
			name: "undeclared local prop in assert",
			build: fig3With(func(d *dsl.JunctionDef) {
				d.Body = append(d.Body, dsl.Assert{Prop: dsl.PR("Ghost")})
			}),
			want:  `proposition "Ghost" not declared`,
			names: true,
		},
		{
			name: "wait on undeclared data",
			build: fig3With(func(d *dsl.JunctionDef) {
				d.Body = append(d.Body, dsl.Wait{Data: []string{"m"}, Cond: formula.P("Work")})
			}),
			want:  "undeclared data",
			names: true,
		},
		{
			name: "case with no arms",
			build: fig3With(func(d *dsl.JunctionDef) {
				d.Body = append(d.Body, dsl.Case{Otherwise: []dsl.Expr{dsl.Skip{}}})
			}),
			want: "case with no guarded arms",
		},
		{
			name: "next before otherwise",
			build: fig3With(func(d *dsl.JunctionDef) {
				d.Body = append(d.Body, dsl.Case{
					Arms:      []dsl.CaseArm{dsl.Arm(formula.P("Work"), dsl.TermNext, dsl.Skip{})},
					Otherwise: []dsl.Expr{dsl.Skip{}},
				})
			}),
			want: "next cannot be used immediately before otherwise",
		},
		{
			name: "next outside case",
			build: fig3With(func(d *dsl.JunctionDef) {
				d.Body = append(d.Body, dsl.Next{})
			}),
			want: "next outside case",
		},
		{
			name: "reconsider outside case",
			build: fig3With(func(d *dsl.JunctionDef) {
				d.Body = append(d.Body, dsl.Reconsider{})
			}),
			want: "reconsider outside case",
		},
		{
			name: "empty set",
			build: fig3With(func(d *dsl.JunctionDef) {
				d.Decls = append(d.Decls, dsl.DeclSet{Name: "S"})
			}),
			want: "is empty",
		},
		{
			name: "duplicate set element",
			build: fig3With(func(d *dsl.JunctionDef) {
				d.Decls = append(d.Decls, dsl.DeclSet{Name: "S", Elems: []string{"a", "a"}})
			}),
			want: "duplicate element",
		},
		{
			name: "idx over unknown set",
			build: fig3With(func(d *dsl.JunctionDef) {
				d.Decls = append(d.Decls, dsl.DeclIdx{Name: "tgt", Of: "Nowhere"})
			}),
			want: "undeclared set",
		},
		{
			name: "subset of unknown set",
			build: fig3With(func(d *dsl.JunctionDef) {
				d.Decls = append(d.Decls, dsl.DeclSubset{Name: "sub", Of: "Nowhere"})
			}),
			want: "undeclared set",
		},
		{
			name: "subsets of each other",
			build: fig3With(func(d *dsl.JunctionDef) {
				d.Decls = append(d.Decls, dsl.DeclSubset{Name: "A", Of: "B"}, dsl.DeclSubset{Name: "B", Of: "A"})
			}),
			want: `subset "A" of undeclared set "B"`,
		},
		{
			name: "idx assignment outside set",
			build: fig3With(func(d *dsl.JunctionDef) {
				d.Decls = append(d.Decls, dsl.DeclSet{Name: "S", Elems: []string{"a"}}, dsl.DeclIdx{Name: "i", Of: "S"})
				d.Body = append(d.Body, dsl.IdxAssign{Idx: "i", Elem: "zzz"})
			}),
			want:  "outside its set",
			names: true,
		},
		{
			name: "guard references undeclared prop",
			build: func() *dsl.Program {
				p := dsl.Fig3Program()
				p.Types["tau_g"].Junctions["junction"].Guard = formula.P("Nope")
				return p
			},
			want:  `proposition "Nope" not declared`,
			names: true,
		},
		{
			name: "unresolvable junction reference",
			build: fig3With(func(d *dsl.JunctionDef) {
				d.Body = append(d.Body, dsl.Write{Data: "n", To: dsl.J("nobody", "junction")})
			}),
			want:  "unresolvable junction reference",
			names: true,
		},
		{
			name: "parN below one",
			build: fig3With(func(d *dsl.JunctionDef) {
				d.Body = append(d.Body, dsl.ParN{N: 0, Body: []dsl.Expr{dsl.Skip{}}})
			}),
			want: "∥n with n < 1",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.names {
				wantNameFault(t, c.build(), c.want)
				return
			}
			wantInvalid(t, dsl.Validate(c.build()), c.want)
		})
	}
}

// The liveness proposition S(x) renders with one '@', alone and inside a
// formula, while a qualified ordinary proposition keeps its separator.
func TestRunningRendersWithOneAt(t *testing.T) {
	cases := []struct {
		f    formula.Formula
		want string
	}{
		{dsl.Running("x"), "x@running"},
		{formula.Not(dsl.Running("b::j")), "¬b::j@running"},
		{formula.At("x", "Work"), "x@Work"},
		{formula.P(dsl.RunningProp), "@running"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
