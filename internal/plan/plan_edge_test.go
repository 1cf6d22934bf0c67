package plan_test

import (
	"sort"
	"testing"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

// infoOf compiles a single-junction program and returns its junction.
func infoOf(t *testing.T, decls []dsl.Decl, body ...dsl.Expr) *plan.Junction {
	t.Helper()
	p := dsl.NewProgram()
	p.Type("T").Junction("j", dsl.Def(decls, body...))
	p.Instance("a", "T")
	p.SetMain(dsl.Start{Instance: "a"})
	ji := compile(t, p).Lookup("a::j")
	if ji == nil {
		t.Fatal("a::j missing from the plan")
	}
	return ji
}

// A wait nested in a transaction can admit remote updates mid-transaction, so
// its admission keys (formula props AND waited data) must appear in the txn
// write-set — a rollback has to restore them.
func TestTxnWriteSetIncludesWaitAdmittedKeys(t *testing.T) {
	ji := infoOf(t,
		dsl.Decls(
			dsl.InitProp{Name: "Ack", Init: false},
			dsl.InitProp{Name: "Done", Init: false},
			dsl.InitData{Name: "reply"},
		),
		dsl.Txn{Body: []dsl.Expr{
			dsl.Wait{Cond: formula.P("Ack"), Data: []string{"reply"}},
			dsl.Assert{Prop: dsl.PropRef{Base: "Done"}},
		}},
	)
	wrote := ji.Body.Ops[0].Wrote
	ws := wrote[len(wrote)-1]
	props := append([]string(nil), ws.Props...)
	sort.Strings(props)
	if len(props) != 2 || props[0] != "Ack" || props[1] != "Done" {
		t.Fatalf("txn props = %v, want [Ack Done] (wait-admitted Ack must be snapshotted)", ws.Props)
	}
	if len(ws.Data) != 1 || ws.Data[0] != "reply" {
		t.Fatalf("txn data = %v, want [reply] (wait-admitted data must be snapshotted)", ws.Data)
	}
}

// Invariants lower to per-junction read maps: bare single-junction instance
// qualifiers resolve to FQs, @-predicates keep the junction entry without a
// table key, duplicates collapse, keys sort.
func TestCompileInvariants(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("T").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "B", Init: false}, dsl.InitProp{Name: "A", Init: false}),
		dsl.Skip{},
	))
	p.Instance("a", "T").Instance("b", "T")
	p.SetMain(dsl.Start{Instance: "a"}, dsl.Start{Instance: "b"})
	p.Invariant("inv", formula.And(
		formula.And(formula.At("a::j", "B"), formula.At("a::j", "A")),
		formula.And(formula.At("a::j", "B"), formula.At("b", "@running")),
	))
	pp := compile(t, p)
	if len(pp.Invariants) != 1 {
		t.Fatalf("invariants = %d, want 1", len(pp.Invariants))
	}
	inv := pp.Invariants[0]
	if inv.Name != "inv" || inv.Cond == nil {
		t.Fatalf("lowered invariant lost name/formula: %+v", inv)
	}
	got := inv.Reads["a::j"]
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("a::j reads = %v, want sorted [A B]", got)
	}
	if reads, ok := inv.Reads["b::j"]; !ok || len(reads) != 0 {
		t.Fatalf("bare-instance @running qualifier: reads[b::j] = %v (present=%v), want empty entry", reads, ok)
	}
}

// me:: self tokens resolve to concrete local keys at lowering time: a prop
// family indexed by me::instance reads the local table, so the read-set must
// stay local — only junction-qualified props and @-predicates are Remote.
func TestMeResolvedReadsStayLocal(t *testing.T) {
	ji := infoOf(t,
		dsl.Decls(dsl.InitProp{Name: dsl.IndexedName("Init", "me::instance"), Init: false}),
		dsl.Skip{},
	)
	rs := plan.FormulaReadSet(ji, formula.P(dsl.IndexedName("Init", "me::instance")))
	if rs.Remote {
		t.Fatalf("me::instance-resolved local read classified Remote: %+v", rs)
	}
	want := dsl.IndexedName("Init", "a")
	if len(rs.Props) != 1 || rs.Props[0] != want {
		t.Fatalf("props = %v, want [%s]", rs.Props, want)
	}

	// A junction-qualified read stays Remote even when the qualifier is a
	// me:: token — the local table cannot observe another junction's keys.
	rs = plan.FormulaReadSet(ji, formula.At("me::instance::j", "Init[a]"))
	if !rs.Remote {
		t.Fatalf("junction-qualified me:: read not Remote: %+v", rs)
	}
}

// ReadSet.Origins must attribute every read of a formula — including the
// remote-qualified and unbounded ones that contribute no subscription key —
// to its declaring junction, with me:: qualifiers resolved.
func TestFormulaReadSetOrigins(t *testing.T) {
	decls := dsl.Decls(
		dsl.InitProp{Name: "Local", Init: false},
		dsl.DeclSet{Name: "S", Elems: []string{"x", "y"}},
		dsl.DeclIdx{Name: "tgt", Of: "S"},
	)
	cases := []struct {
		name string
		f    formula.Formula
		want []plan.ReadOrigin
	}{
		{
			name: "local",
			f:    formula.P("Local"),
			want: []plan.ReadOrigin{{Key: "Local"}},
		},
		{
			name: "junction-qualified",
			f:    formula.At("other::j", "Work"),
			want: []plan.ReadOrigin{{Key: "Work", Junction: "other::j"}},
		},
		{
			name: "me-qualified",
			f:    formula.At("me::instance::j", "Work"),
			want: []plan.ReadOrigin{{Key: "Work", Junction: "a::j"}},
		},
		{
			name: "liveness",
			f:    formula.At("other::j", "@running"),
			want: []plan.ReadOrigin{{Key: "@running", Junction: "other::j", Liveness: true}},
		},
		{
			name: "idx-family-expanded",
			f:    dsl.PropIdx("Work", "tgt"),
			want: []plan.ReadOrigin{
				{Key: dsl.IndexedName("Work", "x"), IdxFamily: "tgt"},
				{Key: dsl.IndexedName("Work", "y"), IdxFamily: "tgt"},
			},
		},
		{
			name: "mixed-deduped",
			f: formula.And(
				formula.And(formula.P("Local"), formula.P("Local")),
				formula.At("other::j", "Work"),
			),
			want: []plan.ReadOrigin{
				{Key: "Local"},
				{Key: "Work", Junction: "other::j"},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ji := infoOf(t, decls, dsl.Skip{})
			rs := plan.FormulaReadSet(ji, tc.f)
			got := append([]plan.ReadOrigin(nil), rs.Origins...)
			sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
			want := append([]plan.ReadOrigin(nil), tc.want...)
			sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
			if len(got) != len(want) {
				t.Fatalf("origins = %+v, want %+v", got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("origin[%d] = %+v, want %+v", i, got[i], want[i])
				}
			}
			// Each local origin (no junction, no liveness) must appear in Props.
			keys := map[string]bool{}
			for _, k := range rs.Props {
				keys[k] = true
			}
			for _, o := range got {
				if o.Junction == "" && !o.Liveness && !keys[o.Key] {
					t.Fatalf("local origin %+v missing from Props %v", o, rs.Props)
				}
			}
		})
	}
}
