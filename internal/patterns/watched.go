package patterns

import (
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
)

// Names of the watched fail-over architecture (§7.4, Figs. 15–17).
const (
	// WatchedFront is the front-end f.
	WatchedFront = "f"
	// Watchdog is the arbiter instance w with junctions co/cs/cunrecov.
	Watchdog = "w"
	// PrimaryBackend is o (preferred) and StandbyBackend is s.
	PrimaryBackend = "o"
	StandbyBackend = "s"
	// WatchedJunction is the single junction of f, o and s.
	WatchedJunction = "junction"
)

// WatchedFailoverConfig parameterizes the watchdog-arbitrated two-backend
// fail-over: o is preferred, s is used when o is unavailable, and a watchdog
// instance flips the failover/nofailover propositions by observing liveness
// (the S(x) guards of Fig. 16).
type WatchedFailoverConfig struct {
	// Timeout is the t parameter.
	Timeout time.Duration
	// WatchBackoff paces watchdog assertions. Zero means Timeout.
	WatchBackoff time.Duration
	// PrepareRequest is ⌊H1⌉ + save(..., n) at f.
	PrepareRequest dsl.SourceFunc
	// HandleRequest is ⌊H2⌉ at a backend: request payload → reply payload.
	// req is lent for the call, as to a dsl.SinkFunc.
	HandleRequest func(ctx dsl.HostCtx, req []byte) ([]byte, error)
	// DeliverResponse is restore(m, ...) + ⌊H3⌉ at f.
	DeliverResponse dsl.SinkFunc
	// Complain is the failure stub; also invoked by τw::cunrecov when the
	// system becomes unrecoverable. Optional.
	Complain dsl.HostFunc
}

// WatchedFailover builds the §7.4 program.
func WatchedFailover(cfg WatchedFailoverConfig) *dsl.Program {
	if cfg.WatchBackoff <= 0 {
		cfg.WatchBackoff = cfg.Timeout
	}
	p := dsl.NewProgram()
	f := dsl.J(WatchedFront, WatchedJunction)

	// def RunBackend(n, t, tgt) ◀ ⟨|write(n, tgt); assert [tgt] Run[tgt]|⟩
	// otherwise[t] complain()
	p.Func("RunBackend", func(args ...string) []dsl.Expr {
		tgt := args[0]
		return []dsl.Expr{
			dsl.OtherwiseT(
				dsl.Txn{Body: []dsl.Expr{
					dsl.Write{Data: "n", To: dsl.J(tgt, WatchedJunction)},
					dsl.Assert{Target: dsl.J(tgt, WatchedJunction), Prop: dsl.PRAt("Run", tgt)},
				}},
				cfg.Timeout,
				complainOr(cfg.Complain),
			),
		}
	})

	// --- τf (Fig. 16) -----------------------------------------------------------
	fDecls := dsl.Decls(
		dsl.InitProp{Name: "Reply", Init: false},
		dsl.InitProp{Name: "failover", Init: false},
		dsl.InitProp{Name: "nofailover", Init: false},
		dsl.InitData{Name: "n"},
		dsl.InitData{Name: "m"},
	)
	fDecls = append(fDecls, dsl.ForProps("Run", []string{PrimaryBackend, StandbyBackend}, false)...)

	p.Type("tauWF").Junction(WatchedJunction, dsl.Def(
		fDecls,
		// ⌊H1⌉; save(..., n)
		dsl.Save{Data: "n", From: cfg.PrepareRequest},
		dsl.Verify{Cond: dsl.ForAll([]string{PrimaryBackend, StandbyBackend}, func(b string) formula.Formula {
			return formula.Not(formula.P(dsl.IndexedName("Run", b)))
		})},
		dsl.Verify{Cond: formula.Not(formula.P("Reply"))},
		dsl.Verify{Cond: formula.Not(formula.And(formula.P("failover"), formula.P("nofailover")))},
		dsl.Case{
			Arms: []dsl.CaseArm{
				dsl.Arm(formula.And(formula.P("failover"), formula.Not(formula.P("nofailover"))), dsl.TermBreak,
					p.CallF("RunBackend", StandbyBackend)),
				dsl.Arm(formula.And(formula.Not(formula.P("failover")), formula.P("nofailover")), dsl.TermBreak,
					p.CallF("RunBackend", PrimaryBackend)),
			},
			Otherwise: []dsl.Expr{
				dsl.OtherwiseT(
					dsl.Par{
						p.CallF("RunBackend", PrimaryBackend),
						p.CallF("RunBackend", StandbyBackend),
					},
					cfg.Timeout,
					complainOr(cfg.Complain),
				),
			},
		},
		// "Don't wait too long for completion, prioritize throughput."
		dsl.OtherwiseT(
			dsl.Wait{Data: []string{"m"}, Cond: formula.P("Reply")},
			cfg.Timeout,
			dsl.Return{},
		),
		dsl.Retract{Prop: dsl.PR("Reply")},
		dsl.Restore{Data: "m", Into: cfg.DeliverResponse},
	).Guarded(formula.Not(formula.P("Reply"))).ManuallyScheduled())

	// --- watchdog τw (Fig. 16) ---------------------------------------------------
	// def Watch(tgt, prop): ⟨|assert [tgt] prop; assert [f] prop|⟩ otherwise complain()
	p.Func("Watch", func(args ...string) []dsl.Expr {
		tgt, prop := args[0], args[1]
		return []dsl.Expr{
			dsl.OtherwiseT(
				dsl.Txn{Body: []dsl.Expr{
					dsl.Assert{Target: dsl.J(tgt, WatchedJunction), Prop: dsl.PR(prop)},
					dsl.Assert{Target: f, Prop: dsl.PR(prop)},
				}},
				cfg.Timeout,
				complainOr(cfg.Complain),
			),
			// Pace the watchdog (its guard can stay true indefinitely).
			dsl.OtherwiseT(dsl.Wait{Cond: formula.FalseF{}}, cfg.WatchBackoff, dsl.Skip{}),
		}
	})

	s := func(inst string) formula.Formula { return dsl.Running(inst + "::" + WatchedJunction) }

	// The watchdog holds no state of its own: failover/nofailover are
	// declared where they are delivered (the backends and f).
	w := p.Type("tauW")
	w.Junction("cs", dsl.Def(
		nil,
		p.CallF("Watch", StandbyBackend, "failover"),
	).Guarded(formula.And(formula.Not(s(PrimaryBackend)), s(StandbyBackend), s(WatchedFront))))
	w.Junction("co", dsl.Def(
		nil,
		p.CallF("Watch", PrimaryBackend, "nofailover"),
	).Guarded(formula.And(formula.Not(s(StandbyBackend)), s(PrimaryBackend), s(WatchedFront))))
	w.Junction("cunrecov", dsl.Def(
		nil,
		complainOr(cfg.Complain),
		dsl.OtherwiseT(dsl.Wait{Cond: formula.FalseF{}}, cfg.WatchBackoff, dsl.Skip{}),
	).Guarded(formula.Or(
		formula.And(formula.Not(s(StandbyBackend)), formula.Not(s(PrimaryBackend))),
		formula.Not(s(WatchedFront)),
	)))

	// --- backends τo / τs (Fig. 17) ------------------------------------------------
	// def reply(t, other): verify ¬f@Reply; verify ¬other@Reply;
	// ⟨save(..., m); write(m, f); assert [f] Reply⟩ otherwise[t] complain()
	p.Func("reply", func(args ...string) []dsl.Expr {
		other := args[0]
		return []dsl.Expr{
			dsl.Verify{Cond: formula.Not(formula.At(WatchedFront+"::"+WatchedJunction, "Reply"))},
			// "we ensure that the other backend isn't currently in Reply
			// mode" — ternary: if the other backend is down, this is Unknown
			// and must not block the reply, so the implication form is used.
			dsl.Verify{Cond: formula.Implies(
				dsl.Running(other+"::"+WatchedJunction),
				formula.Not(formula.At(other+"::"+WatchedJunction, "Reply")),
			)},
			dsl.OtherwiseT(
				dsl.Scope{Body: []dsl.Expr{
					dsl.Write{Data: "m", To: f},
					dsl.Assert{Target: f, Prop: dsl.PR("Reply")},
				}},
				cfg.Timeout,
				complainOr(cfg.Complain),
			),
		}
	})

	backend := func(self, other string, onlyOnFailover bool) *dsl.JunctionDef {
		decls := dsl.Decls(
			dsl.InitProp{Name: dsl.IndexedName("Run", self), Init: false},
			dsl.InitProp{Name: "Reply", Init: false},
			dsl.InitData{Name: "n"},
			dsl.InitData{Name: "m"},
		)
		if onlyOnFailover {
			// The standby consults failover in its case; the watchdog's cs
			// junction asserts it here.
			decls = append(decls, dsl.InitProp{Name: "failover", Init: false})
		} else {
			// The primary only *receives* nofailover (from the watchdog's co
			// junction); its consumer is f. The declaration is required for
			// the remote assert to be deliverable.
			decls = append(decls, dsl.InitProp{Name: "nofailover", Init: false})
		}
		body := []dsl.Expr{
			dsl.Verify{Cond: formula.Not(formula.P("Reply"))},
			dsl.Restore{Data: "n", Writes: []string{"m"}, Into: func(ctx dsl.HostCtx, req []byte) error {
				resp, err := cfg.HandleRequest(ctx, req)
				if err != nil {
					return err
				}
				return ctx.Save("m", resp)
			}},
			dsl.OtherwiseT(
				dsl.Retract{Target: f, Prop: dsl.PRAt("Run", self)},
				cfg.Timeout,
				complainOr(cfg.Complain),
			),
		}
		if onlyOnFailover {
			body = append(body, dsl.Case{
				Arms: []dsl.CaseArm{
					dsl.Arm(formula.P("failover"), dsl.TermBreak,
						p.CallF("reply", other),
						dsl.Retract{Prop: dsl.PR("Reply")},
					),
				},
				Otherwise: []dsl.Expr{dsl.Skip{}},
			})
		} else {
			body = append(body,
				p.CallF("reply", other),
				dsl.Retract{Prop: dsl.PR("Reply")},
			)
		}
		return dsl.Def(decls, body...).Guarded(formula.P(dsl.IndexedName("Run", self)))
	}

	p.Type("tauO").Junction(WatchedJunction, backend(PrimaryBackend, StandbyBackend, false))
	p.Type("tauS").Junction(WatchedJunction, backend(StandbyBackend, PrimaryBackend, true))

	p.Instance(WatchedFront, "tauWF").
		Instance(Watchdog, "tauW").
		Instance(PrimaryBackend, "tauO").
		Instance(StandbyBackend, "tauS")
	// def main(t) ◀ (start w + start o(t) + start s(t)); start f(t)
	p.SetMain(
		dsl.Par{dsl.Start{Instance: Watchdog}, dsl.Start{Instance: PrimaryBackend}, dsl.Start{Instance: StandbyBackend}},
		dsl.Start{Instance: WatchedFront},
	)
	return p
}
