package cost_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"csaw/internal/analysis"
	"csaw/internal/cost"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

// progGen mirrors the analysis package's random-program generator, extended
// with the reads the cost model cares about: junction-qualified propositions
// and liveness predicates.
type progGen struct {
	r     *rand.Rand
	insts []string
	juncs []dsl.JunctionRef
}

var genProps = []string{"P0", "P1", "P2"}
var genData = []string{"d0", "d1"}

func (g *progGen) prop() string { return genProps[g.r.Intn(len(genProps))] }
func (g *progGen) data() string { return genData[g.r.Intn(len(genData))] }

func (g *progGen) formula(depth int) formula.Formula {
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

func (g *progGen) target() dsl.JunctionRef {
	if g.r.Intn(2) == 0 {
		return dsl.JunctionRef{}
	}
	return g.juncs[g.r.Intn(len(g.juncs))]
}

func (g *progGen) expr(depth int) dsl.Expr {
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
		return dsl.Write{Data: g.data(), To: g.juncs[g.r.Intn(len(g.juncs))]}
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

func (g *progGen) body(depth int) []dsl.Expr {
	out := make([]dsl.Expr, 1+g.r.Intn(3))
	for i := range out {
		out[i] = g.expr(depth)
	}
	return out
}

func genProgram(seed int64) *dsl.Program {
	g := &progGen{r: rand.New(rand.NewSource(seed))}
	nTypes := 1 + g.r.Intn(3)
	for i := 0; i < nTypes; i++ {
		g.insts = append(g.insts, fmt.Sprintf("i%d", i))
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
		def := dsl.Def(decls, g.body(3)...)
		if g.r.Intn(2) == 0 {
			def = def.Guarded(g.formula(1))
		}
		p.Type(fmt.Sprintf("tau%d", i)).Junction("j", def)
		p.Instance(g.insts[i], fmt.Sprintf("tau%d", i))
	}
	starts := dsl.Par{}
	for _, in := range g.insts {
		starts = append(starts, dsl.Start{Instance: in})
	}
	p.SetMain(starts)
	return p
}

// genPlacement splits the generated instances across up to two locations,
// deterministically from the seed.
func genPlacement(seed int64, p *dsl.Program) map[string]string {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	locs := []string{"", "east", "west"}
	placement := map[string]string{}
	for _, inst := range p.InstanceNames() {
		placement[inst] = locs[r.Intn(len(locs))]
	}
	return placement
}

// TestCostSuiteOnRandomPrograms drives the cost passes, model, and optimizer
// over generated programs: nothing may panic, and two runs over the same
// program under the same placement must produce byte-identical reports —
// determinism is what makes CostSuppressions and the CI gate trustworthy.
func TestCostSuiteOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			run := func() ([]byte, *analysis.Report) {
				p := genProgram(seed)
				placement := genPlacement(seed, p)
				rep, err := analysis.Analyze(p, &analysis.Config{Passes: cost.Passes(), Placement: placement})
				if err != nil {
					t.Fatalf("generated program invalid: %v", err)
				}
				if err := dsl.Validate(p); err != nil {
					t.Fatal(err)
				}
				m := cost.Build(plan.Compile(p))
				final, moves := cost.Optimize(m, placement, nil, []string{"", "east", "west"})
				cr := m.Report(final)
				cr.Moves = moves
				cr.CrossAfterMoves = cost.CrossTraffic(m, final)
				var buf bytes.Buffer
				if err := analysis.EncodeReports(&buf, []analysis.ArchReport{{
					Arch: "generated", Diagnostics: rep.Diagnostics, Suppressed: rep.Suppressed, Cost: cr,
				}}); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes(), rep
			}
			b1, r1 := run()
			b2, r2 := run()
			if !bytes.Equal(b1, b2) {
				t.Fatalf("nondeterministic cost report:\n%s\nvs\n%s", b1, b2)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("nondeterministic diagnostics: %+v vs %+v", r1, r2)
			}
		})
	}
}
