package plan_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/patterns"
	"csaw/internal/plan"
	"csaw/internal/progen"
)

// namesProgram builds a::j and b::j of type T, whose junction declares P, d,
// the set S = {me::junction, c::k} with idx i over it and the subset Sub of
// S, with the given body; and c::k of type U, which declares Q only.
func namesProgram(body ...dsl.Expr) *dsl.Program {
	p := dsl.NewProgram()
	p.Type("T").Junction("j", dsl.Def(dsl.Decls(
		dsl.InitProp{Name: "P", Init: false}, dsl.InitData{Name: "d"},
		dsl.DeclSet{Name: "S", Elems: []string{"me::junction", "c::k"}},
		dsl.DeclIdx{Name: "i", Of: "S"}, dsl.DeclSubset{Name: "Sub", Of: "S"},
	), body...))
	p.Type("U").Junction("k", dsl.Def(dsl.Decls(dsl.InitProp{Name: "Q", Init: false}), dsl.Skip{}))
	p.Instance("a", "T").Instance("b", "T").Instance("c", "U")
	p.SetMain(dsl.Start{Instance: "a"}, dsl.Start{Instance: "b"}, dsl.Start{Instance: "c"})
	return p
}

// namesGuarded is namesProgram with a skip body under guard g.
func namesGuarded(g formula.Formula) *dsl.Program {
	p := namesProgram(dsl.Skip{})
	p.Types["T"].Junctions["j"].Guard = g
	return p
}

// TestCompileRejectsNames holds one program per name rule of plan.Compile's
// resolver; none of them breaks a shape rule.
func TestCompileRejectsNames(t *testing.T) {
	noop := func(dsl.HostCtx) error { return nil }
	toC := dsl.J("c", "k")
	cases := []struct {
		name string
		prog *dsl.Program
		want string // "" when the program compiles
	}{
		{"idx element me::-resolved as SetIdx stores it", namesProgram(dsl.IdxAssign{Idx: "i", Elem: "me::junction"}), ""},
		{"idx element another instance's junction", namesProgram(dsl.IdxAssign{Idx: "i", Elem: "b::j"}),
			`T::j/body[0]: idx "i" assigned element "b::j" outside its set`},
		{"assignment to a subset", namesProgram(dsl.IdxAssign{Idx: "Sub", Elem: "c::k"}),
			`T::j/body[0]: assignment to undeclared idx "Sub"`},
		{"subset named as a destination", namesProgram(dsl.Assert{Target: dsl.ByIdx("Sub"), Prop: dsl.PR("Q")}),
			`T::j/body[0]: junction target "Sub" is not a declared idx`},
		{"idx destination: the sender's own element passes, another lacks the key", namesProgram(dsl.Assert{Target: dsl.ByIdx("i"), Prop: dsl.PR("P")}),
			`T::j/body[0]: proposition "P" not declared at c::k`},
		{"me::instance destination the type lacks", namesProgram(dsl.Assert{Target: dsl.MeI("nope"), Prop: dsl.PR("P")}),
			`T::j/body[0]: unresolvable junction reference me::instance::nope`},
		{"me::instance destination that is the sender", namesProgram(dsl.Retract{Target: dsl.MeI("j"), Prop: dsl.PR("P")}),
			`T::j/body[0]: retract [me::instance::j] P names its own junction`},
		{"bare instance of a one-junction type", namesProgram(dsl.Assert{Target: dsl.J("c", ""), Prop: dsl.PR("Q")}), ""},
		{"idx-indexed proposition over an undeclared idx", namesProgram(dsl.Assert{Prop: dsl.PRIdx("P", "nope")}),
			`T::j/body[0]: idx "nope" not declared`},
		{"formula idx family over an undeclared idx", namesProgram(dsl.Verify{Cond: dsl.PropIdx("P", "nope")}),
			`T::j/body[0]: idx "nope" not declared`},
		{"guard idx family over an undeclared idx", namesGuarded(dsl.PropIdx("P", "nope")),
			`T::j/guard: idx "nope" not declared`},
		{"wait on an idx family over an undeclared idx", namesProgram(dsl.Wait{Cond: dsl.PropIdx("P", "nope")}),
			`T::j/body[0]: idx "nope" not declared`},
		{"formula idx family a member of which is undeclared", namesProgram(dsl.Verify{Cond: dsl.PropIdx("P", "i")}),
			`T::j/body[0]: proposition "P[a::j]" not declared`},
		{"qualified read of a key the junction lacks", namesProgram(dsl.If{Cond: formula.At("c", "P"), Then: dsl.Skip{}}),
			`T::j/body[0]: proposition "P" not declared at c::k`},
		{"@running of a junction that does not exist", namesProgram(dsl.Wait{Cond: formula.At("c::nope", "@running")}),
			`T::j/body[0]: unresolvable junction "c::nope"`},
		{"save of undeclared data", namesProgram(dsl.Save{Data: "m", From: func(dsl.HostCtx) ([]byte, error) { return nil, nil }}),
			`T::j/body[0]: save targets undeclared data "m"`},
		{"restore write-set", namesProgram(dsl.Restore{Data: "d", Writes: []string{"Sub", "R"}, Into: func(dsl.HostCtx, []byte) error { return nil }}),
			`T::j/body[0]: restore writes undeclared name "R"`},
		{"keep", namesProgram(dsl.Keep{Props: []string{"Q"}}), `T::j/body[0]: keep names undeclared prop "Q"`},
		{"start in a body", namesProgram(dsl.Start{Instance: "z"}), `T::j/body[0]: start of undeclared instance "z"`},
		{"stop in a body", namesProgram(dsl.Stop{Instance: "z"}), `T::j/body[0]: stop of undeclared instance "z"`},
		{"host write-set naming idx and subset", namesProgram(dsl.Host{Label: "H", Writes: []string{"i", "Sub", "P", "d"}, Fn: noop}), ""},
		{"write to a data name the target lacks, in a nested position", namesProgram(dsl.Par{dsl.Skip{}, dsl.Write{Data: "d", To: toC}}),
			`T::j/body[0]/par[1]: data "d" not declared at c::k`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := dsl.Validate(c.prog); err != nil {
				t.Fatalf("the program breaks a shape rule: %v", err)
			}
			_, err := plan.Compile(c.prog)
			if c.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if !errors.Is(err, dsl.ErrInvalid) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Compile: %v\nwant an ErrInvalid containing %q", err, c.want)
			}
		})
	}
}

// The instances of one type report a fault once, at the type-level position,
// and the faults come sorted.
func TestCompileReportsEachFaultOnceSorted(t *testing.T) {
	p := namesProgram(dsl.Write{Data: "d", To: dsl.J("c", "k")}, dsl.Assert{Prop: dsl.PR("Ghost")})
	p.Types["U"].Junctions["k"].Guard = formula.At("a::j", "Nope")
	_, err := plan.Compile(p)
	if err == nil {
		t.Fatal("Compile accepted three faults")
	}
	want := "dsl: invalid program:\n" +
		`  - T::j/body[0]: data "d" not declared at c::k` + "\n" +
		`  - T::j/body[1]: proposition "Ghost" not declared` + "\n" +
		`  - U::k/guard: proposition "Nope" not declared at a::j`
	if err.Error() != want {
		t.Fatalf("Compile:\n%v\nwant:\n%s", err, want)
	}
}

// A type with no instance has no instance to resolve me:: against: Compile
// holds it to the shape rules only.
func TestTypeWithoutInstanceIsCheckedForShapeOnly(t *testing.T) {
	p := namesProgram(dsl.Skip{})
	p.Type("Idle").Junction("j", dsl.Def(nil, dsl.Assert{Target: dsl.J("nobody", "j"), Prop: dsl.PR("Ghost")}))
	if _, err := plan.Compile(p); err != nil {
		t.Fatalf("a name in a type with no instance was judged: %v", err)
	}
	p.Type("Idle").Junction("j", dsl.Def(nil, dsl.Next{}))
	if _, err := plan.Compile(p); !errors.Is(err, dsl.ErrInvalid) || !strings.Contains(err.Error(), "Idle::j: next outside case arm") {
		t.Fatalf("a shape fault in a type with no instance: %v", err)
	}
}

// TestResolveElemJunction: a qualifier or set element names a junction as
// inst::junction, or as a bare instance whose type has exactly one junction.
func TestResolveElemJunction(t *testing.T) {
	pp := compile(t, fig3Program())
	for q, want := range map[string]string{"g::junction": "g::junction", "g": "g::junction"} {
		if got := pp.JunctionFQ(q); got != want || pp.Lookup(got) == nil {
			t.Fatalf("JunctionFQ(%q) = %q, want %q", q, got, want)
		}
	}
	if pp.Lookup(pp.JunctionFQ("nobody")) != nil {
		t.Fatal("an unknown element resolved to a junction")
	}
}

// An assert whose key and destination go through the same idx sends each
// element only its own key: a target that declares just its own member of
// the family compiles, and no target is recorded as receiving another's key.
func TestIdxKeyedByItsOwnTargetPairsKeyAndDestination(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("back").Junction("j", dsl.Def(dsl.Decls(dsl.InitProp{Name: "Work[me::junction]", Init: false}), dsl.Skip{}))
	p.Type("front").Junction("j", dsl.Def(dsl.Decls(
		dsl.DeclSet{Name: "Backs", Elems: []string{"b1::j", "b2::j"}},
		dsl.DeclIdx{Name: "tgt", Of: "Backs"},
	),
		dsl.IdxAssign{Idx: "tgt", Elem: "b2::j"},
		dsl.Assert{Target: dsl.ByIdx("tgt"), Prop: dsl.PRIdx("Work", "tgt")},
	))
	p.Instance("f", "front").Instance("b1", "back").Instance("b2", "back")
	p.SetMain(dsl.Start{Instance: "f"}, dsl.Start{Instance: "b1"}, dsl.Start{Instance: "b2"})
	pp := compile(t, p)
	for _, b := range []string{"b1::j", "b2::j"} {
		var got []string
		for key, as := range pp.Lookup(b).Writes {
			for _, a := range as {
				if a.Kind == plan.AccessIncoming {
					got = append(got, key)
				}
			}
		}
		if want := "p:Work[" + b + "]"; len(got) != 1 || got[0] != want {
			t.Fatalf("%s receives %v, want [%s]", b, got, want)
		}
	}

	// Through a different idx over the same set, either key may reach either
	// target, so each target must declare both.
	front := p.Types["front"].Junctions["j"]
	front.Decls = append(front.Decls, dsl.DeclIdx{Name: "key", Of: "Backs"})
	front.Body = []dsl.Expr{dsl.Assert{Target: dsl.ByIdx("tgt"), Prop: dsl.PRIdx("Work", "key")}}
	_, err := plan.Compile(p)
	if !errors.Is(err, dsl.ErrInvalid) || !strings.Contains(err.Error(), `front::j/body[0]: proposition "Work[b2::j]" not declared at b1::j`) {
		t.Fatalf("Compile: %v", err)
	}
}

// TestCompiledSetsAreBounded pins what every consumer of a compiled program
// relies on instead of re-checking: Compile rejects an undeclared idx, so
// every update's keys, every idx-family read and every transaction write-set
// is bounded. It runs over the catalogue, the negative examples, a program
// of idx families and the generated programs that compile.
func TestCompiledSetsAreBounded(t *testing.T) {
	check := func(name string, pp *plan.Program) {
		for _, j := range pp.Juncs {
			origins := func(pos string, rs plan.ReadSet) {
				for _, o := range rs.Origins {
					if o.IdxFamily != "" && o.Key == "" {
						t.Errorf("%s: %s: idx family %q read with no key", name, pos, o.IdxFamily)
					}
				}
			}
			if j.Guard != nil {
				origins(j.FQ+"/guard", *j.Guard)
			}
			plan.Walk(j.Body.Ops, func(o *plan.Op, _ []*plan.Op) {
				switch o.Kind {
				case plan.OpProp:
					if len(o.Ref.Keys) == 0 {
						t.Errorf("%s: %s: update with no keys", name, o.Pos)
					}
				case plan.OpWait:
					origins(o.Pos, o.Wait.Reads)
				case plan.OpTxn:
					if len(o.Wrote) != len(o.Body.Steps) {
						t.Errorf("%s: %s: %d write-sets for %d steps", name, o.Pos, len(o.Wrote), len(o.Body.Steps))
					}
				}
			})
		}
	}
	for _, e := range append(patterns.Catalogue(), patterns.Negatives()...) {
		pp, err := plan.Compile(e.Build())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		check(e.Name, pp)
	}
	// No catalogue entry updates an idx family; this program does, in a
	// transaction, and reads one in its guard and a wait.
	fam := dsl.NewProgram()
	fam.Type("T").Junction("j", dsl.Def(dsl.Decls(
		dsl.DeclSet{Name: "S", Elems: []string{"x", "y"}}, dsl.DeclIdx{Name: "i", Of: "S"},
		dsl.InitProp{Name: "F[x]", Init: false}, dsl.InitProp{Name: "F[y]", Init: false},
	), dsl.Txn{Body: []dsl.Expr{
		dsl.Retract{Prop: dsl.PRIdx("F", "i")},
		dsl.Wait{Cond: dsl.PropIdx("F", "i")},
	}}).Guarded(dsl.PropIdx("F", "i")))
	fam.Instance("a", "T")
	fam.SetMain(dsl.Start{Instance: "a"})
	pp, err := plan.Compile(fam)
	if err != nil {
		t.Fatal(err)
	}
	check("idx families", pp)
	for seed := int64(0); seed < 60; seed++ {
		if pp, err := plan.Compile(progen.Program(seed)); err == nil {
			check(fmt.Sprintf("progen seed %d", seed), pp)
		}
	}
}
