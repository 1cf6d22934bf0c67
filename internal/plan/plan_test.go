package plan_test

import (
	"errors"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/patterns"
	"csaw/internal/plan"
)

// compile lowers a program the test knows to be valid.
func compile(t *testing.T, p *dsl.Program) *plan.Program {
	t.Helper()
	pp, err := plan.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

func buildSharding(t *testing.T) *plan.Program {
	t.Helper()
	entry, ok := patterns.CatalogueEntryByName("sharding")
	if !ok {
		t.Fatal("sharding entry missing")
	}
	return compile(t, entry.Build())
}

func TestCompileCoversEveryJunction(t *testing.T) {
	for _, entry := range patterns.Catalogue() {
		p := entry.Build()
		pp, err := plan.Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		n := 0
		for _, inst := range p.InstanceNames() {
			n += len(p.Types[p.Instances[inst]].Junctions)
		}
		if len(pp.Juncs) != n || len(pp.Junctions) != n {
			t.Fatalf("%s: plan holds %d junctions (%d indexed), want %d", entry.Name, len(pp.Juncs), len(pp.Junctions), n)
		}
		for _, pj := range pp.Juncs {
			if pp.Junctions[pj.FQ] != pj {
				t.Fatalf("%s: junction %s missing from the index", entry.Name, pj.FQ)
			}
			if (pj.Def.Guard != nil) != (pj.Guard != nil) {
				t.Fatalf("%s: %s guard read-set presence mismatch", entry.Name, pj.FQ)
			}
		}
	}
}

func TestLocalGuardReadSet(t *testing.T) {
	pp := buildSharding(t)
	back := pp.Junctions[patterns.BackInstance(0)+"::"+patterns.ShardJunction]
	if back == nil || back.Guard == nil {
		t.Fatal("back junction or its guard read-set missing")
	}
	if back.Guard.Remote {
		t.Fatalf("back guard (local prop Work) classified Remote: %+v", back.Guard)
	}
	if len(back.Guard.Props) != 1 || back.Guard.Props[0] != "Work" {
		t.Fatalf("back guard props = %v, want [Work]", back.Guard.Props)
	}
}

func TestRemoteGuardReadSet(t *testing.T) {
	entry, ok := patterns.CatalogueEntryByName("watched-failover")
	if !ok {
		t.Fatal("watched-failover entry missing")
	}
	p := entry.Build()
	pp := compile(t, p)
	remote := 0
	for _, pj := range pp.Junctions {
		if pj.Guard != nil && pj.Guard.Remote {
			remote++
		}
	}
	if remote == 0 {
		t.Fatal("watched-failover watchdog guards consult @running liveness; some read-set must be Remote")
	}
}

func TestIdxFormulaExpandsFamily(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("T").Junction("j", dsl.Def(
		dsl.Decls(
			dsl.InitProp{Name: "P[a]", Init: false},
			dsl.InitProp{Name: "P[b]", Init: false},
			dsl.DeclSet{Name: "S", Elems: []string{"a", "b"}},
			dsl.DeclIdx{Name: "cur", Of: "S"},
		),
		dsl.Skip{},
	).Guarded(dsl.PropIdx("P", "cur")))
	p.Instance("i", "T")
	p.SetMain(dsl.Start{Instance: "i"})
	pj := compile(t, p).Junctions["i::j"]
	if pj.Guard == nil {
		t.Fatal("guard read-set missing")
	}
	got := append([]string(nil), pj.Guard.Props...)
	sort.Strings(got)
	want := []string{"P[a]", "P[b]"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("props = %v, want %v", got, want)
	}
	if !pj.Guard.Idx || pj.Guard.Remote {
		t.Fatalf("read-set flags = %+v, want Idx && !Remote", pj.Guard)
	}
}

func TestCompileWaitStaticAndDynamic(t *testing.T) {
	pp := buildSharding(t)
	front := pp.Junctions[patterns.FrontInstance+"::"+patterns.ShardJunction]
	// wait [m] ¬Work: no idx variables → static, admission set built once.
	wp := plan.CompileWait(front, dsl.Wait{Data: []string{"m"}, Cond: formula.Not(formula.P("Work"))})
	if !wp.Static {
		t.Fatal("idx-free wait must compile statically")
	}
	if !slices.Contains(wp.Admit.Props, "Work") || !slices.Contains(wp.Admit.Data, "m") {
		t.Fatalf("wait set = %+v", wp.Admit)
	}
	if wp.Reads.Remote {
		t.Fatal("local wait classified Remote")
	}
	// A wait through an idx variable cannot prebuild its admission set.
	dyn := plan.CompileWait(front, dsl.Wait{Cond: formula.Not(dsl.PropIdx("Work", "tgt"))})
	if dyn.Static {
		t.Fatal("idx wait must rebuild its admission set per execution")
	}
	if !dyn.Reads.Idx {
		t.Fatal("idx wait read-set must record the idx dependency")
	}
}

func TestWaitSetIgnoresRemoteProps(t *testing.T) {
	// A formula mentioning g@P must not admit updates keyed P — remote
	// propositions live in the other junction's table.
	ws := plan.Admits(formula.At("g", "P"), nil)
	if slices.Contains(ws.Props, "P") {
		t.Fatal("remote-qualified prop admitted into wait set")
	}
}

// TestAdmitsIdxWaitAtItsElement: an idx wait admits the key of the element
// its idx names when the wait is entered, and no other element's.
func TestAdmitsIdxWaitAtItsElement(t *testing.T) {
	cond := formula.Not(dsl.PropIdx("Work", "tgt"))
	self := func(n string) string { return n }
	for _, elem := range []string{"b1", "b2"} {
		at := plan.SubstIdx(cond, self, func(string) string { return elem + "::j" })
		ws := plan.Admits(at, nil)
		want := []string{dsl.IndexedName("Work", elem+"::j")}
		if !slices.Equal(ws.Props, want) || len(ws.Data) != 0 {
			t.Fatalf("tgt = %s: admits %+v, want props %v", elem, ws, want)
		}
	}
}

func TestCompileTxnWriteSets(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("T").Junction("j", dsl.Def(
		dsl.Decls(
			dsl.InitProp{Name: "P", Init: false},
			dsl.InitProp{Name: "Q", Init: false},
			dsl.InitData{Name: "n"},
			dsl.InitData{Name: "m"},
		),
		dsl.Skip{},
	))
	p.Instance("i", "T")
	p.SetMain(dsl.Start{Instance: "i"})
	txn := func(body ...dsl.Expr) plan.WriteSet {
		p.Type("T").Junction("j", dsl.Def(p.Types["T"].Junctions["j"].Decls, dsl.Txn{Body: body}))
		wrote := compile(t, p).Junctions["i::j"].Body.Ops[0].Wrote
		return wrote[len(wrote)-1]
	}

	ws := txn(
		dsl.Assert{Prop: dsl.PR("P")},
		dsl.Save{Data: "n", From: func(dsl.HostCtx) ([]byte, error) { return nil, nil }},
		dsl.Wait{Data: []string{"m"}, Cond: formula.P("Q")},
	)
	sort.Strings(ws.Props)
	sort.Strings(ws.Data)
	if len(ws.Props) != 2 || ws.Props[0] != "P" || ws.Props[1] != "Q" {
		t.Fatalf("props = %v, want [P Q] (wait-admitted keys count as writes)", ws.Props)
	}
	if len(ws.Data) != 2 || ws.Data[0] != "m" || ws.Data[1] != "n" {
		t.Fatalf("data = %v, want [m n]", ws.Data)
	}

	// A host block inside a transaction has no rollback: it never compiles,
	// so no write-set has to stand for it.
	p.Type("T").Junction("j", dsl.Def(p.Types["T"].Junctions["j"].Decls,
		dsl.Txn{Body: []dsl.Expr{dsl.Host{Label: "H", Fn: func(dsl.HostCtx) error { return nil }}}}))
	if _, err := plan.Compile(p); !errors.Is(err, dsl.ErrInvalid) || !strings.Contains(err.Error(), "inside transaction") {
		t.Fatalf("a host block in a transaction compiled: %v", err)
	}
}

func TestEveryCatalogueFormulaVisitable(t *testing.T) {
	// Guard + body formulas of every catalogue entry must be enumerable by
	// dsl.VisitFormulas and lowerable by FormulaReadSet without panicking —
	// the contract the runtime's closure compiler relies on.
	for _, entry := range patterns.Catalogue() {
		p := entry.Build()
		pp, err := plan.Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		for fq, pj := range pp.Junctions {
			if pj.Def.Guard != nil {
				_ = plan.FormulaReadSet(pj, pj.Def.Guard)
			}
			count := 0
			for _, e := range pj.Def.Body {
				if err := dsl.VisitFormulas(e, func(f formula.Formula) {
					count++
					_ = plan.FormulaReadSet(pj, f)
				}); err != nil {
					t.Fatalf("%s: %s: %v", entry.Name, fq, err)
				}
			}
		}
	}
}

func TestCompileIsFastEnoughToRunPerStart(t *testing.T) {
	// Smoke guard for the StartInstance path: compiling the largest
	// catalogue entry must be far below human-visible latency.
	entry, _ := patterns.CatalogueEntryByName("failover")
	p := entry.Build()
	start := time.Now()
	for i := 0; i < 10; i++ {
		if _, err := plan.Compile(p); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start) / 10; d > 50*time.Millisecond {
		t.Fatalf("plan.Compile took %v per program", d)
	}
}
