// Package progen generates random C-Saw programs for property tests. Every
// program is valid by construction: each junction declares the same
// proposition and data pool, so local, remote and junction-qualified
// references alike always resolve, and no update names its own junction as
// its destination.
//
// Only _test.go files import this package; CI fails if another file does.
package progen

import (
	"fmt"
	"math/rand"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
)

type gen struct {
	r     *rand.Rand
	juncs []dsl.JunctionRef // every instance::junction in the program
	self  int               // the index in juncs of the junction being generated
}

var propPool = []string{"P0", "P1", "P2"}
var dataPool = []string{"d0", "d1"}

func (g *gen) prop() string { return propPool[g.r.Intn(len(propPool))] }
func (g *gen) data() string { return dataPool[g.r.Intn(len(dataPool))] }

func (g *gen) formula(depth int) formula.Formula {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(4) {
		case 0:
			// Junction-qualified read of a random peer's table.
			ref := g.juncs[g.r.Intn(len(g.juncs))]
			return formula.At(ref.Instance+"::"+ref.Junction, g.prop())
		case 1:
			return formula.P("@running")
		default:
			return formula.P(g.prop())
		}
	}
	switch g.r.Intn(3) {
	case 0:
		return formula.Not(g.formula(depth - 1))
	case 1:
		return formula.And(g.formula(depth-1), g.formula(depth-1))
	default:
		return formula.Or(g.formula(depth-1), g.formula(depth-1))
	}
}

// dest picks a random junction to update; ok is false when it picks the
// junction being generated, which §6 rules out as a destination.
func (g *gen) dest() (ref dsl.JunctionRef, ok bool) {
	k := g.r.Intn(len(g.juncs))
	return g.juncs[k], k != g.self
}

// target is an assert's or retract's target: local, or another junction.
func (g *gen) target() dsl.JunctionRef {
	if g.r.Intn(2) == 0 {
		return dsl.JunctionRef{} // local
	}
	if ref, ok := g.dest(); ok {
		return ref
	}
	return dsl.JunctionRef{} // the local form of an update to self
}

func (g *gen) expr(depth int) dsl.Expr {
	leaf := depth <= 0
	switch n := g.r.Intn(15); {
	case n == 0:
		return dsl.Skip{}
	case n == 1:
		return dsl.Assert{Target: g.target(), Prop: dsl.PR(g.prop())}
	case n == 2:
		return dsl.Retract{Target: g.target(), Prop: dsl.PR(g.prop())}
	case n == 3:
		return dsl.Save{Data: g.data(), From: func(dsl.HostCtx) ([]byte, error) { return nil, nil }}
	case n == 4:
		return dsl.Restore{Data: g.data(), Into: func(dsl.HostCtx, []byte) error { return nil }}
	case n == 5:
		d := g.data()
		if to, ok := g.dest(); ok {
			return dsl.Write{Data: d, To: to}
		}
		return dsl.Skip{} // a write to self has no local form
	case n == 6:
		return dsl.Verify{Cond: g.formula(1)}
	case n == 7 && !leaf:
		return dsl.Wait{Cond: g.formula(1)}
	case n == 8 && !leaf:
		return dsl.Seq(g.body(depth - 1))
	case n == 9 && !leaf:
		return dsl.Par(g.body(depth - 1))
	case n == 10 && !leaf:
		return dsl.Txn{Body: g.body(depth - 1)}
	case n == 11 && !leaf:
		return dsl.OtherwiseT(g.expr(depth-1), time.Millisecond, g.expr(depth-1))
	case n == 12 && !leaf:
		if g.r.Intn(2) == 0 {
			return dsl.If{Cond: g.formula(1), Then: g.expr(depth - 1)}
		}
		return dsl.If{Cond: g.formula(1), Then: g.expr(depth - 1), Else: g.expr(depth - 1)}
	case n == 13 && !leaf:
		terms := []dsl.Terminator{dsl.TermBreak, dsl.TermReconsider}
		arms := make([]dsl.CaseArm, 1+g.r.Intn(2))
		for i := range arms {
			arms[i] = dsl.Arm(g.formula(1), terms[g.r.Intn(len(terms))], g.expr(depth-1))
		}
		return dsl.Case{Arms: arms, Otherwise: []dsl.Expr{g.expr(depth - 1)}}
	case n == 14 && !leaf:
		return dsl.ParN{N: 1 + g.r.Intn(3), Body: g.body(depth - 1)}
	default:
		return dsl.Skip{}
	}
}

func (g *gen) body(depth int) []dsl.Expr {
	out := make([]dsl.Expr, 1+g.r.Intn(3))
	for i := range out {
		out[i] = g.expr(depth)
	}
	return out
}

// Program returns the program of seed: one to three instance types of one
// junction each, one instance per type, all started by main. The same seed
// always gives the same program.
func Program(seed int64) *dsl.Program {
	g := &gen{r: rand.New(rand.NewSource(seed))}
	nTypes := 1 + g.r.Intn(3)
	var insts []string
	for i := 0; i < nTypes; i++ {
		insts = append(insts, fmt.Sprintf("i%d", i))
		g.juncs = append(g.juncs, dsl.J(fmt.Sprintf("i%d", i), "j"))
	}

	p := dsl.NewProgram()
	for i := 0; i < nTypes; i++ {
		decls := dsl.Decls(
			dsl.InitProp{Name: "P0", Init: g.r.Intn(2) == 0},
			dsl.InitProp{Name: "P1", Init: g.r.Intn(2) == 0},
			dsl.InitProp{Name: "P2", Init: g.r.Intn(2) == 0},
			dsl.InitData{Name: "d0"},
			dsl.InitData{Name: "d1"},
		)
		g.self = i
		def := dsl.Def(decls, g.body(3)...)
		if g.r.Intn(2) == 0 {
			def = def.Guarded(g.formula(1))
		}
		p.Type(fmt.Sprintf("tau%d", i)).Junction("j", def)
		p.Instance(insts[i], fmt.Sprintf("tau%d", i))
	}
	starts := dsl.Par{}
	for _, in := range insts {
		starts = append(starts, dsl.Start{Instance: in})
	}
	p.SetMain(starts)
	return p
}
