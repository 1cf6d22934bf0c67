package patterns

import (
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
)

// Names of the caching architecture (Fig. 7).
const (
	// CacheInstance fronts requests and memoizes responses.
	CacheInstance = "Cache"
	// FunInstance computes the (pure) function being memoized.
	FunInstance = "Fun"
	// CacheJunction is the single junction of both instances.
	CacheJunction = "junction"
)

// CachingConfig parameterizes the application-specific caching layer. The
// cache store itself (sizes, eviction) lives in the host language — "the
// features of the cache ... are orthogonal to the architecture, and are
// therefore outside of the DSL's scope" (§7.2).
type CachingConfig struct {
	// Timeout is the failure deadline for the Cache↔Fun exchange.
	Timeout time.Duration
	// CheckCacheable classifies the current request
	// (⌊CheckCacheable⌉{Cacheable}): returns whether the cache may serve it.
	CheckCacheable func(ctx dsl.HostCtx) (bool, error)
	// LookupCache performs the cache look-up (⌊LookupCache⌉{Cached}): it
	// returns whether the response was found (and, on a hit, delivers the
	// response through the host context's application state).
	LookupCache func(ctx dsl.HostCtx) (bool, error)
	// CaptureRequest serializes the request for the Fun instance
	// (save(..., n)).
	CaptureRequest dsl.SourceFunc
	// DeliverResponse consumes Fun's response m at the cache front
	// (restore(m, ...)).
	DeliverResponse dsl.SinkFunc
	// UpdateCache stores the new response (⌊UpdateCache⌉).
	UpdateCache dsl.HostFunc
	// ComputeF is Fun's ⌊F⌉: consume the request, produce the response. req
	// is lent for the call, as to a dsl.SinkFunc.
	ComputeF func(ctx dsl.HostCtx, req []byte) ([]byte, error)
	// Complain is the failure stub. Optional.
	Complain dsl.HostFunc
}

// Caching builds the Fig. 7 program: an inline cache that memoizes calls to
// a function computed by a separate instance.
func Caching(cfg CachingConfig) *dsl.Program {
	p := dsl.NewProgram()

	// def τCache :: (t)
	p.Type("tauCache").Junction(CacheJunction, dsl.Def(
		dsl.Decls(
			dsl.InitProp{Name: "Work", Init: false},
			dsl.InitProp{Name: "Cacheable", Init: false},
			dsl.InitProp{Name: "Cached", Init: false},
			dsl.InitProp{Name: "NewValue", Init: false},
			dsl.InitData{Name: "n"},
			dsl.InitData{Name: "m"},
		),
		// Reset per-request propositions: the junction serves many requests
		// over its lifetime, and Fig. 7's logic assumes they start false.
		dsl.Retract{Prop: dsl.PR("Cacheable")},
		dsl.Retract{Prop: dsl.PR("Cached")},
		dsl.Retract{Prop: dsl.PR("NewValue")},
		// ⌊CheckCacheable⌉{Cacheable}   (step ➊)
		dsl.Host{Label: "CheckCacheable", Writes: []string{"Cacheable"}, Fn: func(ctx dsl.HostCtx) error {
			ok, err := cfg.CheckCacheable(ctx)
			if err != nil {
				return err
			}
			return ctx.SetProp("Cacheable", ok)
		}},
		dsl.Case{
			Arms: []dsl.CaseArm{
				// Cacheable ⇒ ⌊LookupCache⌉{Cached}; next   (steps ➋–➍)
				dsl.Arm(formula.P("Cacheable"), dsl.TermNext,
					dsl.Host{Label: "LookupCache", Writes: []string{"Cached"}, Fn: func(ctx dsl.HostCtx) error {
						hit, err := cfg.LookupCache(ctx)
						if err != nil {
							return err
						}
						return ctx.SetProp("Cached", hit)
					}},
				),
				// ¬Cacheable ∨ (Cacheable ∧ ¬Cached) ⇒ call the function (step ➎)
				dsl.Arm(
					formula.Or(
						formula.Not(formula.P("Cacheable")),
						formula.And(formula.P("Cacheable"), formula.Not(formula.P("Cached"))),
					),
					dsl.TermNext,
					dsl.Save{Data: "n", From: cfg.CaptureRequest},
					dsl.OtherwiseT(
						dsl.Scope{Body: []dsl.Expr{
							dsl.Write{Data: "n", To: dsl.J(FunInstance, CacheJunction)},
							dsl.Assert{Target: dsl.J(FunInstance, CacheJunction), Prop: dsl.PR("Work")},
							dsl.Wait{Data: []string{"m"}, Cond: formula.Not(formula.P("Work"))},
							dsl.Restore{Data: "m", Into: cfg.DeliverResponse},
							dsl.Assert{Prop: dsl.PR("NewValue")},
						}},
						cfg.Timeout,
						complainOr(cfg.Complain),
					),
				),
				// Cacheable ∧ NewValue ⇒ ⌊UpdateCache⌉; break   (step ➏)
				dsl.Arm(
					formula.And(formula.P("Cacheable"), formula.P("NewValue")),
					dsl.TermBreak,
					dsl.Host{Label: "UpdateCache", Fn: orNop(cfg.UpdateCache)},
				),
			},
			Otherwise: []dsl.Expr{dsl.Skip{}},
		},
	))

	// def τFun :: (t) — τAuditing reused as τFun (Fig. 7 caption).
	p.Type("tauFun").Junction(CacheJunction, backJunction(backCfg{
		front:    CacheInstance + "::" + CacheJunction,
		timeout:  cfg.Timeout,
		handle:   cfg.ComputeF,
		complain: cfg.Complain,
	}))

	p.Instance(CacheInstance, "tauCache").Instance(FunInstance, "tauFun")
	// def main(t) ◀ start Cache(t) + start Fun(t)
	p.SetMain(dsl.Par{dsl.Start{Instance: CacheInstance}, dsl.Start{Instance: FunInstance}})
	return p
}

func orNop(f dsl.HostFunc) dsl.HostFunc {
	if f == nil {
		return func(dsl.HostCtx) error { return nil }
	}
	return f
}
