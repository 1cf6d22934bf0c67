package patterns

import (
	"fmt"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
)

// Names of the sharding architecture (Fig. 5).
const (
	// FrontInstance is the query router.
	FrontInstance = "Fnt"
	// ShardJunction is the single junction of front and back instances.
	ShardJunction = "junction"
)

// BackInstance names the i-th back-end (0-based), matching the paper's
// Bck1..BckN.
func BackInstance(i int) string { return fmt.Sprintf("Bck%d", i+1) }

// ShardingConfig parameterizes the N-ary sharding architecture.
type ShardingConfig struct {
	// N is the number of back-ends — "a compile-time configuration
	// parameter" (§5.2) affecting the Instances set and the idx set.
	N int
	// Timeout is the failure deadline per request round.
	Timeout time.Duration
	// Choose selects the back-end for the current request (the ⌊Choose()⌉
	// host block writing the tgt idx). It returns the 0-based shard index.
	// "⌊Choose();⌉{tgt} is sufficiently abstract to implement different
	// types of sharding" (§5.2): key-based and object-size-based choosers
	// are provided below.
	Choose func(ctx dsl.HostCtx) (int, error)
	// CaptureRequest serializes the current request (save(..., n)).
	CaptureRequest dsl.SourceFunc
	// HandleRequest processes the request at a back-end and returns the
	// serialized response (the back-end's restore; ⌊H2⌉; save(..., m)). req
	// is lent for the call, as to a dsl.SinkFunc.
	HandleRequest func(ctx dsl.HostCtx, req []byte) ([]byte, error)
	// DeliverResponse consumes the response at the front-end (restore(m)).
	// Optional.
	DeliverResponse dsl.SinkFunc
	// Complain is the failure stub. Optional.
	Complain dsl.HostFunc
}

// Sharding builds the Fig. 5 program extended with the response flow of
// Fig. 7 (the back-end writes m back and retracts Work): an N-way
// partitioned query space where ⌊Choose()⌉ routes each request.
func Sharding(cfg ShardingConfig) *dsl.Program {
	p := dsl.NewProgram()

	backs := make([]string, cfg.N)
	for i := range backs {
		backs[i] = BackInstance(i) + "::" + ShardJunction
	}

	// def τFront :: (t)
	p.Type("tauFront").Junction(ShardJunction, dsl.Def(
		dsl.Decls(
			dsl.InitProp{Name: "Work", Init: false},
			dsl.InitData{Name: "n"},
			dsl.InitData{Name: "m"},
			dsl.DeclSet{Name: "Backs", Elems: backs},
			// | idx tgt of {Bck1, ..., BckN}   (Fig. 5 line ➊)
			dsl.DeclIdx{Name: "tgt", Of: "Backs"},
		),
		// ⌊Choose();⌉{tgt}
		dsl.Host{Label: "Choose", Writes: []string{"tgt"}, Fn: func(ctx dsl.HostCtx) error {
			i, err := cfg.Choose(ctx)
			if err != nil {
				return err
			}
			if i < 0 || i >= cfg.N {
				return fmt.Errorf("patterns: Choose returned shard %d of %d", i, cfg.N)
			}
			return ctx.SetIdx("tgt", backs[i])
		}},
		// save(..., n)
		dsl.Save{Data: "n", From: cfg.CaptureRequest},
		// ⟨write(n, tgt); assert [tgt] Work; wait [m] ¬Work⟩ otherwise[t] complain()
		dsl.OtherwiseT(
			dsl.Scope{Body: []dsl.Expr{
				dsl.Write{Data: "n", To: dsl.ByIdx("tgt")},
				dsl.Assert{Target: dsl.ByIdx("tgt"), Prop: dsl.PR("Work")},
				dsl.Wait{Data: []string{"m"}, Cond: formula.Not(formula.P("Work"))},
				dsl.Restore{Data: "m", Into: cfg.DeliverResponse},
			}},
			cfg.Timeout,
			complainOr(cfg.Complain),
		),
	))

	// def τBack — "closely follows τAuditing" (Fig. 5 caption), extended
	// with the response write.
	p.Type("tauBack").Junction(ShardJunction, backJunction(backCfg{
		front:    FrontInstance + "::" + ShardJunction,
		timeout:  cfg.Timeout,
		handle:   cfg.HandleRequest,
		complain: cfg.Complain,
	}))

	p.Instance(FrontInstance, "tauFront")
	starts := dsl.Par{dsl.Start{Instance: FrontInstance}}
	for i := 0; i < cfg.N; i++ {
		p.Instance(BackInstance(i), "tauBack")
		starts = append(starts, dsl.Start{Instance: BackInstance(i)})
	}
	p.SetMain(starts)
	return p
}

// backCfg parameterizes the shared τAuditing-style back-end junction.
type backCfg struct {
	front    string // fully-qualified front junction
	timeout  time.Duration
	handle   func(ctx dsl.HostCtx, req []byte) ([]byte, error)
	complain dsl.HostFunc
}

// backJunction builds the guard-on-Work request-processing junction used by
// sharding back-ends and the caching Fun instance: restore the request, run
// the host computation, write the response back, retract Work at the caller
// with retry-based failure tolerance.
func backJunction(cfg backCfg) *dsl.JunctionDef {
	frontInst, frontJn := splitFQ(cfg.front)
	return dsl.Def(
		dsl.Decls(
			dsl.InitProp{Name: "Work", Init: false},
			dsl.InitProp{Name: "Retried", Init: false},
			dsl.InitData{Name: "n"},
			dsl.InitData{Name: "m"},
		),
		// restore(n, ...); ⌊H2⌉{m}; save(..., m) — fused: the handler
		// consumes the request payload and produces the response payload.
		dsl.Restore{Data: "n", Writes: []string{"m"}, Into: func(ctx dsl.HostCtx, req []byte) error {
			resp, err := cfg.handle(ctx, req)
			if err != nil {
				return err
			}
			return ctx.Save("m", resp)
		}},
		dsl.Retract{Prop: dsl.PR("Retried")},
		dsl.Case{
			Arms: []dsl.CaseArm{
				dsl.Arm(formula.P("Work"), dsl.TermReconsider,
					dsl.OtherwiseT(
						dsl.Scope{Body: []dsl.Expr{
							dsl.Write{Data: "m", To: dsl.J(frontInst, frontJn)},
							dsl.Retract{Target: dsl.J(frontInst, frontJn), Prop: dsl.PR("Work")},
						}},
						cfg.timeout,
						dsl.If{
							Cond: formula.Not(formula.P("Retried")),
							Then: dsl.Assert{Prop: dsl.PR("Retried")},
							Else: complainOr(cfg.complain),
						},
					),
				),
			},
			Otherwise: []dsl.Expr{dsl.Skip{}},
		},
	).Guarded(formula.P("Work"))
}

func splitFQ(fq string) (inst, jn string) {
	for i := 0; i+1 < len(fq); i++ {
		if fq[i] == ':' && fq[i+1] == ':' {
			return fq[:i], fq[i+2:]
		}
	}
	return fq, ""
}
