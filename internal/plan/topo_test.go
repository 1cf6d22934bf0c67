package plan_test

import (
	"strings"
	"testing"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

// fig3Program builds the paper's Fig. 3 example: the program "H1;H2"
// typified into τf (instance f) and τg (instance g).
func fig3Program() *dsl.Program {
	p := dsl.NewProgram()
	noop := func(dsl.HostCtx) error { return nil }
	src := func(dsl.HostCtx) ([]byte, error) { return []byte("state"), nil }
	sink := func(dsl.HostCtx, []byte) error { return nil }

	p.Type("tau_f").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}, dsl.InitData{Name: "n"}),
		dsl.Host{Label: "H1", Fn: noop},
		dsl.Save{Data: "n", From: src},
		dsl.Write{Data: "n", To: dsl.J("g", "junction")},
		dsl.Assert{Target: dsl.J("g", "junction"), Prop: dsl.PR("Work")},
		dsl.Wait{Cond: formula.Not(formula.P("Work"))},
	))
	p.Type("tau_g").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}, dsl.InitData{Name: "n"}),
		dsl.Restore{Data: "n", Into: sink},
		dsl.Host{Label: "H2", Fn: noop},
		dsl.Retract{Target: dsl.J("f", "junction"), Prop: dsl.PR("Work")},
	).Guarded(formula.P("Work")))

	p.Instance("f", "tau_f").Instance("g", "tau_g")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}})
	return p
}

func TestTopologyFig3(t *testing.T) {
	topo := plan.Compile(fig3Program()).Topo()
	if !topo.HasEdge("f::junction", "g::junction") {
		t.Errorf("missing f→g edge: %+v", topo.Edges)
	}
	if !topo.HasEdge("g::junction", "f::junction") {
		t.Errorf("missing g→f edge: %+v", topo.Edges)
	}
	if len(topo.Nodes) != 2 {
		t.Errorf("nodes = %v", topo.Nodes)
	}
	dot := topo.Dot()
	for _, want := range []string{"digraph", `"f::junction" -> "g::junction"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q:\n%s", want, dot)
		}
	}
}

func TestTopologyIdxFanOut(t *testing.T) {
	// A front-end with an idx over {b1::j, b2::j} contributes an edge to
	// both possible targets.
	p := dsl.NewProgram()
	src := func(dsl.HostCtx) ([]byte, error) { return nil, nil }
	p.Type("front").Junction("j", dsl.Def(
		dsl.Decls(
			dsl.InitData{Name: "n"},
			dsl.DeclSet{Name: "Backs", Elems: []string{"b1::j", "b2::j"}},
			dsl.DeclIdx{Name: "tgt", Of: "Backs"},
		),
		dsl.Save{Data: "n", From: src},
		dsl.Write{Data: "n", To: dsl.ByIdx("tgt")},
	))
	p.Type("back").Junction("j", dsl.Def(dsl.Decls(dsl.InitData{Name: "n"})))
	p.Instance("f", "front").Instance("b1", "back").Instance("b2", "back")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "b1"}, dsl.Start{Instance: "b2"}})
	if err := dsl.Validate(p); err != nil {
		t.Fatalf("validate: %v", err)
	}
	topo := plan.Compile(p).Topo()
	if !topo.HasEdge("f::j", "b1::j") || !topo.HasEdge("f::j", "b2::j") {
		t.Fatalf("idx fan-out edges missing: %+v", topo.Edges)
	}
}

func TestTopologyMeInstance(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("b").
		Junction("serve", dsl.Def(dsl.Decls(dsl.InitProp{Name: "RecentlyActive", Init: false}))).
		Junction("reactivate", dsl.Def(
			dsl.Decls(dsl.InitProp{Name: "RecentlyActive", Init: false}),
			dsl.Assert{Target: dsl.MeI("serve"), Prop: dsl.PR("RecentlyActive")},
		))
	p.Instance("b1", "b")
	p.SetMain(dsl.Start{Instance: "b1"})
	if err := dsl.Validate(p); err != nil {
		t.Fatalf("validate: %v", err)
	}
	topo := plan.Compile(p).Topo()
	if !topo.HasEdge("b1::reactivate", "b1::serve") {
		t.Fatalf("me::instance edge missing: %+v", topo.Edges)
	}
}

func TestLocalAssertNoEdge(t *testing.T) {
	p := fig3Program()
	d := p.Types["tau_f"].Junctions["junction"]
	d.Body = append(d.Body, dsl.Assert{Prop: dsl.PR("Work")}) // local
	topo := plan.Compile(p).Topo()
	for _, e := range topo.Edges {
		if e.From == "f::junction" && e.To == "f::junction" {
			t.Fatal("local assert must not create a self edge")
		}
	}
}
