package runtime

import (
	"errors"
	"strings"
	"testing"

	"csaw/internal/dsl"
	"csaw/internal/formula"
)

// TestNewRejectsNamesThatDoNotResolve: each program passes the shape rules,
// and each has one name the runtime would get wrong — a write acked and then
// dropped, a junction that is never schedulable, a remote assert of a key
// its target lacks, or a send to itself that fails on every firing. New
// rejects each, naming the type-level position and the name.
func TestNewRejectsNamesThatDoNotResolve(t *testing.T) {
	save := dsl.Save{Data: "d", From: func(dsl.HostCtx) ([]byte, error) { return []byte("v"), nil }}
	// prog builds f::j (type srcT) with the given body and guard beside
	// g::j (type sinkT), which declares Ready and Done[f] and no data.
	prog := func(guard formula.Formula, body ...dsl.Expr) *dsl.Program {
		p := dsl.NewProgram()
		src := dsl.Def(dsl.Decls(dsl.InitData{Name: "d"}, dsl.InitData{Name: "x"}, dsl.InitProp{Name: "Go", Init: true}), body...)
		if guard != nil {
			src = src.Guarded(guard)
		}
		p.Type("srcT").Junction("j", src)
		p.Type("sinkT").Junction("j", dsl.Def(
			dsl.Decls(dsl.InitProp{Name: "Ready", Init: false}, dsl.InitProp{Name: dsl.IndexedName("Done", "f"), Init: false}),
			dsl.Skip{}))
		p.Instance("f", "srcT").Instance("g", "sinkT").Instance("h", "srcT")
		p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}, dsl.Start{Instance: "h"}})
		return p
	}
	cases := []struct {
		name string
		prog *dsl.Program
		want string
	}{{
		name: "write of a datum the destination does not declare",
		prog: prog(nil, save, dsl.Write{Data: "x", To: dsl.J("g", "j")}),
		want: `srcT::j/body[1]: data "x" not declared at g::j`,
	}, {
		name: "guard qualified by an instance that does not exist",
		prog: prog(formula.And(formula.P("Go"), formula.At("gg::j", "Ready")), dsl.Skip{}),
		want: `srcT::j/guard: unresolvable junction "gg::j"`,
	}, {
		name: "guard reading @running of a misspelled instance",
		prog: prog(formula.And(formula.P("Go"), Running("typo")), dsl.Skip{}),
		want: `srcT::j/guard: unresolvable junction "typo"`,
	}, {
		// f and h share srcT: f's key Done[f] is declared at g, h's Done[h]
		// is not, and the fault is reported once, at the type.
		name: "remote assert of a me::instance member the target lacks",
		prog: prog(nil, dsl.Assert{Target: dsl.J("g", "j"), Prop: dsl.PRAt("Done", "me::instance")}),
		want: `srcT::j/body[0]: proposition "Done[h]" not declared at g::j`,
	}, {
		name: "static write to the sending junction itself",
		prog: prog(nil, save, dsl.Write{Data: "d", To: dsl.J("f", "j")}),
		want: `srcT::j/body[1]: write(d, f::j) names its own junction`,
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(c.prog, Options{})
			if err == nil {
				s.Close()
				t.Fatalf("New accepted the program; want an error containing %q", c.want)
			}
			if !errors.Is(err, dsl.ErrInvalid) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("New: %v\nwant an ErrInvalid containing %q", err, c.want)
			}
		})
	}
}
