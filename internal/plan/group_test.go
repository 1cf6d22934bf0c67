package plan_test

import (
	"fmt"
	"testing"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

// TestUpdateRun pins the straight-line rule: adjacency of plain remote
// updates is the whole test, except that a member whose local half another
// junction reads in process may only start a run.
func TestUpdateRun(t *testing.T) {
	g := dsl.J("g", "j")
	up := func(prop string) dsl.Expr { return dsl.Assert{Target: g, Prop: dsl.PR(prop)} }
	p := dsl.NewProgram()
	p.Type("F").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Seen", Init: false}, dsl.InitProp{Name: "Own", Init: false},
			dsl.InitData{Name: "d"}, dsl.DeclSet{Name: "S", Elems: []string{"g::j"}}, dsl.DeclIdx{Name: "a", Of: "S"}),
		dsl.Skip{}))
	// g's guard reads f::j@Seen, and nothing of f's besides.
	p.Type("G").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Seen", Init: false}, dsl.InitProp{Name: "Own", Init: false},
			dsl.InitProp{Name: "U", Init: false}, dsl.InitData{Name: "d"}),
		dsl.Skip{}).Guarded(formula.And(formula.P("U"), formula.At("f::j", "Seen"))))
	p.Instance("f", "F").Instance("g", "G")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}})
	if err := dsl.Validate(p); err != nil {
		t.Fatal(err)
	}
	ji := plan.Compile(p).Junctions["f::j"].Info

	write := dsl.Write{Data: "d", To: g}
	cases := []struct {
		body []dsl.Expr
		want int
	}{
		{[]dsl.Expr{write, up("U"), dsl.Retract{Target: dsl.ByIdx("a"), Prop: dsl.PR("U")}}, 3},
		{[]dsl.Expr{dsl.Skip{}, up("U")}, 0},                               // does not start with an update
		{[]dsl.Expr{dsl.Assert{Prop: dsl.PR("Own")}, up("U")}, 0},          // a local assert is not a remote update
		{[]dsl.Expr{up("U"), dsl.Assert{Prop: dsl.PR("Own")}, up("U")}, 1}, // and ends a run
		{[]dsl.Expr{up("U"), dsl.Wait{Cond: formula.P("Own")}, up("U")}, 1},
		{[]dsl.Expr{up("U"), up("Own"), up("U")}, 3},        // a local half nobody else reads
		{[]dsl.Expr{up("U"), up("Seen"), up("U")}, 1},       // g reads f::j@Seen: Seen may not run ahead of U's ack
		{[]dsl.Expr{up("Seen"), up("U"), up("Own")}, 3},     // but it may start a run
		{[]dsl.Expr{dsl.Seq{up("U"), up("U")}, up("U")}, 3}, // nested Seq levels are spliced first
	}
	for i, c := range cases {
		if got := plan.UpdateRun(ji, plan.FlattenSeq(c.body)); got != c.want {
			t.Errorf("case %d %v: run of %d, want %d", i, fmt.Sprint(c.body), got, c.want)
		}
	}
	if _, ok := plan.RemoteUpdate(dsl.Assert{Prop: dsl.PR("Own")}); ok {
		t.Error("a local assert classified as a remote update")
	}
	if to, ok := plan.RemoteUpdate(write); !ok || to != g {
		t.Errorf("write: target %v, remote %v", to, ok)
	}
}
