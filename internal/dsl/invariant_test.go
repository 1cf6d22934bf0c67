package dsl_test

import (
	"testing"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

// invProgram builds a minimal two-instance program for invariant validation
// tests: instance a (type T, junction j with prop Done) and instance b
// (single-junction type U, junction watch with prop Busy).
func invProgram() *dsl.Program {
	p := dsl.NewProgram()
	p.Type("T").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Done", Init: false}),
		dsl.Assert{Prop: dsl.PropRef{Base: "Done"}},
	))
	p.Type("U").Junction("watch", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Busy", Init: false}),
		dsl.Retract{Prop: dsl.PropRef{Base: "Busy"}},
	))
	p.Instance("a", "T").Instance("b", "U")
	p.SetMain(dsl.Start{Instance: "a"}, dsl.Start{Instance: "b"})
	return p
}

func TestInvariantValidation(t *testing.T) {
	ok := func(p *dsl.Program) {
		t.Helper()
		if _, err := plan.Compile(p); err != nil {
			t.Fatalf("expected valid, got: %v", err)
		}
	}
	// bad is a shape fault (dsl.Validate's), badName a name that does not
	// resolve (plan.Compile's).
	bad := func(p *dsl.Program, want string) {
		t.Helper()
		wantInvalid(t, dsl.Validate(p), want)
	}
	badName := func(p *dsl.Program, want string) {
		t.Helper()
		wantNameFault(t, p, want)
	}

	// Fully-qualified and bare single-junction instance references resolve.
	ok(invProgram().Invariant("both", formula.And(
		formula.At("a::j", "Done"),
		formula.At("b", "Busy"), // bare instance, single junction
	)))

	// @running needs no declaration.
	ok(invProgram().Invariant("live", formula.At("a::j", "@running")))

	bad(invProgram().Invariant("", formula.At("a::j", "Done")), "empty name")
	bad(invProgram().
		Invariant("dup", formula.At("a::j", "Done")).
		Invariant("dup", formula.At("a::j", "Done")),
		`duplicate invariant "dup"`)
	bad(invProgram().Invariant("nilf", nil), "nil formula")
	bad(invProgram().Invariant("unq", formula.P("Done")), "must be junction-qualified")
	bad(invProgram().Invariant("idx", formula.At("a::j", "Done[$x]")), "no idx context")
	badName(invProgram().Invariant("noj", formula.At("a::nope", "Done")), "unresolvable junction")
	badName(invProgram().Invariant("noinst", formula.At("zzz::j", "Done")), "unresolvable junction")
	badName(invProgram().Invariant("noprop", formula.At("a::j", "Missing")), `"Missing" not declared`)
	badName(invProgram().Invariant("norun", formula.At("zzz::j", "@running")), "unresolvable junction")
	// Bare instance whose type has two junctions cannot be referenced bare.
	p := invProgram()
	p.Type("T").Junction("k", dsl.Def(nil, dsl.Skip{}))
	badName(p.Invariant("multi", formula.At("a", "Done")), "unresolvable junction")
}

func TestInvariantBuilderAccumulates(t *testing.T) {
	p := invProgram().
		Invariant("one", formula.At("a::j", "Done")).
		Invariant("two", formula.At("b", "Busy"))
	if len(p.Invariants) != 2 || p.Invariants[0].Name != "one" || p.Invariants[1].Name != "two" {
		t.Fatalf("invariants not accumulated in order: %+v", p.Invariants)
	}
}
