package patterns

import (
	"fmt"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
)

// ParallelShardingConfig parameterizes the §7.1 architecture: sharding to a
// runtime-chosen *set* of back-end targets in parallel, tracking which
// back-ends are still usable and alerting when none are.
type ParallelShardingConfig struct {
	// N is the number of declared back-ends.
	N int
	// Timeout is the per-backend failure deadline.
	Timeout time.Duration
	// ChooseSet selects the subset of back-ends to engage for this request
	// (the ⌊Choose()⌉{tgt} block populating the tgt subset). Indices are
	// 0-based.
	ChooseSet func(ctx dsl.HostCtx) ([]int, error)
	// CaptureRequest serializes the request (save(..., n)).
	CaptureRequest dsl.SourceFunc
	// HandleRequest processes the request at a back-end, returning the
	// serialized response. req is lent for the call, as to a dsl.SinkFunc.
	HandleRequest func(ctx dsl.HostCtx, req []byte) ([]byte, error)
	// Complain fires when no viable back-end remains ("Complain if not one
	// backend is viable", Fig. 6). Optional.
	Complain dsl.HostFunc
}

// ParallelSharding builds the Fig. 6 program: the front-end engages every
// chosen back-end in parallel inside per-backend transactions; a back-end
// that fails its exchange is marked inactive (retract ActiveBackend[b̃]) and
// HaveAtLeastOne records whether any back-end responded.
func ParallelSharding(cfg ParallelShardingConfig) *dsl.Program {
	p := dsl.NewProgram()

	backs := make([]string, cfg.N)
	for i := range backs {
		backs[i] = BackInstance(i) + "::" + ShardJunction
	}

	decls := dsl.Decls(
		// Fig. 6 never delivers responses to the front, so unlike plain
		// sharding there is no m slot here — only the outgoing request n.
		dsl.InitData{Name: "n"},
		// | set Backs   (➊)
		dsl.DeclSet{Name: "Backs", Elems: backs},
		// | subset tgt of Backs   (➌)
		dsl.DeclSubset{Name: "tgt", Of: "Backs"},
		// | init prop ¬HaveAtLeastOne
		dsl.InitProp{Name: "HaveAtLeastOne", Init: false},
	)
	// | for t̃gt ∈ Backs init prop ¬ActiveBackend[t̃gt]   (➋) — initialized
	// true here: a backend is presumed usable until an exchange fails.
	decls = append(decls, dsl.ForProps("ActiveBackend", backs, true)...)
	// Per-backend Work propositions (the §7.1 refinement "making Work into a
	// set indexed by tgt").
	decls = append(decls, dsl.ForProps("Work", backs, false)...)

	// The per-backend engagement, unrolled with `for b̃ ∈ tgt +` (➍). The
	// subset is runtime-chosen, so each unrolled branch first checks
	// membership through the host-maintained ActiveBackend/Engage props.
	engage := func(b string) dsl.Expr {
		return dsl.If{
			Cond: formula.And(formula.P(dsl.IndexedName("Engage", b)), formula.P(dsl.IndexedName("ActiveBackend", b))),
			Then: dsl.OtherwiseT(
				// ⟨| write(n, b̃); assert [b̃] Work[b̃]; wait [] ¬Work[b̃];
				//    assert [] HaveAtLeastOne |⟩   (➎, ➏) — Work is a set
				// indexed by target, per §7.1's refinement.
				dsl.Txn{Body: []dsl.Expr{
					dsl.Write{Data: "n", To: dsl.JunctionRef{Instance: splitInst(b), Junction: splitJn(b)}},
					dsl.Assert{Target: dsl.JunctionRef{Instance: splitInst(b), Junction: splitJn(b)}, Prop: dsl.PRAt("Work", b)},
					dsl.Wait{Cond: formula.Not(formula.P(dsl.IndexedName("Work", b)))},
					dsl.Assert{Prop: dsl.PR("HaveAtLeastOne")},
				}},
				cfg.Timeout,
				// otherwise[t] retract [] ActiveBackend[b̃]
				dsl.Retract{Prop: dsl.PRAt("ActiveBackend", b)},
			),
		}
	}

	decls = append(decls, dsl.ForProps("Engage", backs, false)...)

	p.Type("tauFront").Junction(ShardJunction, dsl.Def(
		decls,
		// ⌊Choose();⌉{tgt, Engage[...]}
		dsl.Host{Label: "Choose", Writes: chooseWrites(backs), Fn: func(ctx dsl.HostCtx) error {
			idxs, err := cfg.ChooseSet(ctx)
			if err != nil {
				return err
			}
			elems := make([]string, 0, len(idxs))
			chosen := map[int]bool{}
			for _, i := range idxs {
				if i < 0 || i >= cfg.N {
					return fmt.Errorf("patterns: ChooseSet index %d of %d", i, cfg.N)
				}
				elems = append(elems, backs[i])
				chosen[i] = true
			}
			if err := ctx.SetSubset("tgt", elems); err != nil {
				return err
			}
			for i, b := range backs {
				if err := ctx.SetProp(dsl.IndexedName("Engage", b), chosen[i]); err != nil {
					return err
				}
			}
			return nil
		}},
		// save(..., n)
		dsl.Save{Data: "n", From: cfg.CaptureRequest},
		// retract [] HaveAtLeastOne
		dsl.Retract{Prop: dsl.PR("HaveAtLeastOne")},
		// for b̃ ∈ tgt + ...
		dsl.ForExpr(dsl.OpPar, backs, cfg.Timeout, engage),
		// if ¬HaveAtLeastOne complain()
		dsl.If{
			Cond: formula.Not(formula.P("HaveAtLeastOne")),
			Then: complainOr(cfg.Complain),
		},
	))

	// Back-ends: τAuditing-style, retracting the indexed Work at the front.
	p.Type("tauBack").Junction(ShardJunction, parallelBackJunction(cfg))

	p.Instance(FrontInstance, "tauFront")
	starts := dsl.Par{dsl.Start{Instance: FrontInstance}}
	for i := 0; i < cfg.N; i++ {
		p.Instance(BackInstance(i), "tauBack")
		starts = append(starts, dsl.Start{Instance: BackInstance(i)})
	}
	p.SetMain(starts)
	return p
}

// chooseWrites lists the names the Choose block may write: the subset plus
// the Engage proposition family.
func chooseWrites(backs []string) []string {
	out := []string{"tgt"}
	for _, b := range backs {
		out = append(out, dsl.IndexedName("Engage", b))
	}
	return out
}

// parallelBackJunction handles one request and retracts the *indexed* Work
// proposition at the front (Work[me::junction]).
func parallelBackJunction(cfg ParallelShardingConfig) *dsl.JunctionDef {
	return dsl.Def(
		dsl.Decls(
			dsl.InitProp{Name: "Work[me::junction]", Init: false},
			dsl.InitData{Name: "n"},
			dsl.InitData{Name: "m"},
		),
		dsl.Restore{Data: "n", Writes: []string{"m"}, Into: func(ctx dsl.HostCtx, req []byte) error {
			resp, err := cfg.HandleRequest(ctx, req)
			if err != nil {
				return err
			}
			return ctx.Save("m", resp)
		}},
		dsl.OtherwiseT(
			dsl.Retract{
				Target: dsl.J(FrontInstance, ShardJunction),
				Prop:   dsl.PRAt("Work", "me::junction"),
			},
			cfg.Timeout,
			complainOr(cfg.Complain),
		),
	).Guarded(formula.P(dsl.IndexedName("Work", "me::junction")))
}

func splitInst(fq string) string { i, _ := splitFQ(fq); return i }
func splitJn(fq string) string   { _, j := splitFQ(fq); return j }
