package patterns

import (
	"fmt"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
)

// Names of the fail-over architecture (§7.3, Figs. 8–14).
const (
	// FrontEnd is the single front-end instance f.
	FrontEnd = "f"
	// FrontBackJunction is τf::b, the backend-facing junction.
	FrontBackJunction = "b"
	// FrontClientJunction is τf::c, the client-facing junction.
	FrontClientJunction = "c"
	// ServeJunction, StartupJunction and ReactivateJunction are the three
	// back-end junctions of Fig. 8.
	ServeJunction      = "serve"
	StartupJunction    = "startup"
	ReactivateJunction = "reactivate"
)

// FailoverBackend names the i-th back-end instance (0-based) — b1, b2, ...
func FailoverBackend(i int) string { return fmt.Sprintf("b%d", i+1) }

// FailoverMode selects between the paper's §7.3 design points.
type FailoverMode int

const (
	// WarmAll engages every registered back-end per request (the paper's
	// primary design: implicit fail-over between warm replicas).
	WarmAll FailoverMode = iota
	// Sequential tries back-ends in order and returns on the first response
	// — the paper's suggested improvement "(i) less conservative, and lower
	// latency, by not requiring all the back-ends to respond ... (ii) use
	// less network overhead by only having a single back-end return a
	// pre-response" (§7.3). Expressed as a `for ... otherwise[t]` chain.
	Sequential
)

// FailoverConfig parameterizes the warm-replica fail-over architecture. The
// same architecture expression applies to any application that can capture
// and restore its state (the paper applies it to both Redis and Suricata).
type FailoverConfig struct {
	// N is the number of back-end replicas (≥ 2 for actual fail-over).
	N int
	// Mode selects the engagement strategy (default WarmAll).
	Mode FailoverMode
	// Timeout is the t parameter: the failure-detection deadline.
	Timeout time.Duration
	// ReactivateTimeout is the back-end inactivity timeout (main passes 3·t
	// in Fig. 12). Zero means 3·Timeout.
	ReactivateTimeout time.Duration
	// RegistrationBackoff paces a not-yet-active back-end's registration
	// attempts. Zero means Timeout.
	RegistrationBackoff time.Duration

	// InitialState produces the canonical system state at cold start
	// (evaluated at τf::b while Starting).
	InitialState dsl.SourceFunc
	// PrepareRequest is ⌊H1⌉ + save(..., req) at τf::c: serialize the
	// pending client request.
	PrepareRequest dsl.SourceFunc
	// ApplyStateAtFront consumes the canonical state at τf::c
	// (restore(state, ...)).
	ApplyStateAtFront dsl.SinkFunc
	// ApplyStateAtBack consumes the canonical state at τb::serve when a
	// back-end is (re)initialized.
	ApplyStateAtBack dsl.SinkFunc
	// HandleRequest is ⌊H2⌉ at τb::serve: process the request, produce the
	// pre-response.
	HandleRequest func(ctx dsl.HostCtx, req []byte) ([]byte, error)
	// DeliverResponse is restore(preresp, ...) + ⌊H3⌉ at τf::c: hand the
	// response to the client.
	DeliverResponse dsl.SinkFunc
	// CaptureState produces the new canonical state at τf::c after the
	// request completes (save(..., state)).
	CaptureState dsl.SourceFunc
	// Complain is the failure stub. Optional.
	Complain dsl.HostFunc
}

func (cfg *FailoverConfig) fill() {
	if cfg.ReactivateTimeout <= 0 {
		cfg.ReactivateTimeout = 3 * cfg.Timeout
	}
	if cfg.RegistrationBackoff <= 0 {
		cfg.RegistrationBackoff = cfg.Timeout
	}
}

// Failover builds the §7.3 program: a front-end with client- and
// backend-facing junctions, and N warm back-end replicas that register,
// serve and re-register after inactivity. Every registered back-end receives
// every request (implicit fail-over between warm replicas); the system
// answers as long as at least one back-end responds.
func Failover(cfg FailoverConfig) *dsl.Program {
	cfg.fill()
	p := dsl.NewProgram()

	backends := make([]string, cfg.N)
	for i := range backends {
		backends[i] = FailoverBackend(i) + "::" + ServeJunction
	}
	fb := dsl.J(FrontEnd, FrontBackJunction)
	fc := dsl.J(FrontEnd, FrontClientJunction)

	// def Initialize(tgt) — Fig. 12: called by τf::b to initialize a
	// newly-registered backend tgt.
	p.Func("Initialize", func(args ...string) []dsl.Expr {
		b := args[0]
		bref := dsl.J(splitInst(b), splitJn(b))
		return []dsl.Expr{
			dsl.Verify{Cond: formula.And(formula.Not(formula.P("Activating")), formula.Not(formula.P("Active")))},
			dsl.Write{Data: "state", To: bref},
			dsl.Assert{Target: bref, Prop: dsl.PR("Activating")},
			dsl.Wait{Cond: formula.Not(formula.P("Activating"))},
			dsl.Assert{Target: bref, Prop: dsl.PR("Active")},
			// "If we fail on this, the backend won't be used by f::c, and the
			// backend will reattempt reactivation later" (Fig. 12).
			dsl.Assert{Target: fc, Prop: dsl.PRAt("Backend", b)},
			dsl.Retract{Prop: dsl.PR("Active")},
		}
	})

	// --- τf::b (Fig. 10) ------------------------------------------------------
	fbDecls := dsl.Decls(
		dsl.InitData{Name: "state"},
		dsl.InitProp{Name: "Starting", Init: true},
		dsl.InitProp{Name: "Active", Init: false},
		dsl.InitProp{Name: "Activating", Init: false},
		dsl.InitProp{Name: "Retried", Init: false},
		dsl.InitProp{Name: "Call", Init: false},
		dsl.InitProp{Name: "HaveAtLeastOne", Init: false},
	)
	// Backend[b̃] is asserted *at f::c* (inside Initialize) and consumed there;
	// f::b itself never reads it, so the family is declared at f::c only.
	fbDecls = append(fbDecls, dsl.ForProps("InitBackend", backends, false)...)

	startingArm := []dsl.Expr{
		// Cold start: capture the initial canonical state once.
		dsl.If{
			Cond: formula.Not(formula.P("StateReady")),
			Then: dsl.Seq{
				dsl.Save{Data: "state", From: cfg.InitialState},
				dsl.Assert{Prop: dsl.PR("StateReady")},
			},
		},
		// for b̃ ∈ backends + ⟨wait [] InitBackend[b̃] otherwise[t] skip⟩
		dsl.ForExpr(dsl.OpPar, backends, 0, func(b string) dsl.Expr {
			return dsl.Scope{Body: []dsl.Expr{
				dsl.OtherwiseT(dsl.Wait{Cond: formula.P(dsl.IndexedName("InitBackend", b))}, cfg.Timeout, dsl.Skip{}),
			}}
		}),
		dsl.Retract{Prop: dsl.PR("HaveAtLeastOne")},
		// for b̃ ∈ backends ; if InitBackend[b̃] then ⟨|Initialize; assert HaveAtLeastOne|⟩ otherwise skip
		dsl.ForExpr(dsl.OpSeq, backends, 0, func(b string) dsl.Expr {
			return dsl.If{
				Cond: formula.P(dsl.IndexedName("InitBackend", b)),
				Then: dsl.OtherwiseT(
					dsl.Txn{Body: []dsl.Expr{
						p.CallF("Initialize", b),
						// "Next line relies on idempotence."
						dsl.Assert{Prop: dsl.PR("HaveAtLeastOne")},
					}},
					cfg.Timeout,
					dsl.Skip{},
				),
			}
		}),
		dsl.If{Cond: formula.Not(formula.P("HaveAtLeastOne")), Then: complainOr(cfg.Complain)},
		dsl.Retract{Prop: dsl.PR("Retried")},
		dsl.Case{
			Arms: []dsl.CaseArm{
				dsl.Arm(formula.P("Starting"), dsl.TermReconsider,
					// Progress f::c beyond Starting.
					dsl.OtherwiseT(
						dsl.Retract{Target: fc, Prop: dsl.PR("Starting")},
						cfg.Timeout,
						dsl.If{
							Cond: formula.Not(formula.P("Retried")),
							Then: dsl.Assert{Prop: dsl.PR("Retried")},
							Else: complainOr(cfg.Complain),
						},
					),
				),
			},
			Otherwise: []dsl.Expr{dsl.Skip{}},
		},
	}

	servingArms := []dsl.CaseArm{
		dsl.Arm(formula.P("Call"), dsl.TermBreak,
			// A transaction block (⟨|E|⟩) rather than Fig. 10's plain fate
			// scope: if the client round fails mid-exchange the local Active
			// assertion must roll back, or verify ¬Active wedges every later
			// Call and Initialize ("Here could implement more robust
			// handling", Fig. 10).
			dsl.OtherwiseT(
				dsl.Txn{Body: []dsl.Expr{
					dsl.Verify{Cond: formula.Not(formula.P("Active"))},
					dsl.Write{Data: "state", To: fc},
					dsl.Assert{Target: fc, Prop: dsl.PR("Active")},
					dsl.Wait{Data: []string{"state"}, Cond: formula.Not(formula.P("Active"))},
				}},
				cfg.Timeout,
				complainOr(cfg.Complain),
			),
			dsl.Retract{Prop: dsl.PR("Call")},
		),
	}
	// for b̃ ∈ backends: ¬Call ∧ InitBackend[b̃] ⇒ Initialize(b̃); retract InitBackend[b̃]
	servingArms = append(servingArms, dsl.ForArms(backends, func(b string) dsl.CaseArm {
		return dsl.Arm(
			formula.And(formula.Not(formula.P("Call")), formula.P(dsl.IndexedName("InitBackend", b))),
			dsl.TermBreak,
			dsl.OtherwiseT(p.CallF("Initialize", b), cfg.Timeout, dsl.Skip{}),
			dsl.Retract{Prop: dsl.PRAt("InitBackend", b)},
		)
	})...)

	fbDecls = append(fbDecls, dsl.InitProp{Name: "StateReady", Init: false})
	fbGuard := formula.Or(
		formula.P("Starting"),
		formula.P("Call"),
		dsl.ForAny(backends, func(b string) formula.Formula {
			return formula.P(dsl.IndexedName("InitBackend", b))
		}),
	)
	p.Type("tauF").Junction(FrontBackJunction, dsl.Def(
		fbDecls,
		dsl.If{
			Cond: formula.P("Starting"),
			Then: dsl.Seq(startingArm),
			Else: dsl.Case{Arms: servingArms, Otherwise: []dsl.Expr{dsl.Skip{}}},
		},
	).Guarded(fbGuard))

	// --- τf::c (Fig. 13) ------------------------------------------------------
	fcDecls := dsl.Decls(
		dsl.InitProp{Name: "Starting", Init: true},
		dsl.InitProp{Name: "Active", Init: false},
		dsl.InitProp{Name: "Req", Init: false},
		dsl.InitProp{Name: "Call", Init: false},
		dsl.InitProp{Name: "HaveAtLeastOne", Init: false},
		dsl.InitData{Name: "state"},
		dsl.InitData{Name: "req"},
		dsl.InitData{Name: "preresp"},
	)
	fcDecls = append(fcDecls, dsl.ForProps("Backend", backends, false)...)
	fcDecls = append(fcDecls, dsl.ForProps("Running", backends, false)...)

	engage := func(b string) dsl.Expr {
		bref := dsl.J(splitInst(b), splitJn(b))
		return dsl.If{
			Cond: formula.P(dsl.IndexedName("Backend", b)),
			Then: dsl.OtherwiseT(
				dsl.Txn{Body: []dsl.Expr{
					// verify S(b̃) → b̃@Active ∧ ¬b̃@Running[b̃]
					dsl.Verify{Cond: formula.Implies(
						dsl.Running(b),
						formula.And(
							formula.At(b, "Active"),
							formula.Not(formula.At(b, dsl.IndexedName("Running", b))),
						),
					)},
					dsl.Write{Data: "req", To: bref},
					dsl.Assert{Target: bref, Prop: dsl.PRAt("Running", b)},
					dsl.Wait{Data: []string{"preresp"}, Cond: formula.Not(formula.P(dsl.IndexedName("Running", b)))},
					dsl.Assert{Prop: dsl.PR("HaveAtLeastOne")},
				}},
				cfg.Timeout,
				// otherwise[t] retract [] Backend[b̃]
				dsl.Retract{Prop: dsl.PRAt("Backend", b)},
			),
		}
	}

	engageOnce := func(b string) dsl.Expr {
		bref := dsl.J(splitInst(b), splitJn(b))
		// Sequential mode: a branch must FAIL (not skip) when the backend is
		// unregistered or unresponsive, so the otherwise-chain falls through
		// to the next backend; the failed backend is deregistered first.
		return dsl.Scope{Body: []dsl.Expr{
			dsl.Verify{Cond: formula.P(dsl.IndexedName("Backend", b))},
			dsl.OtherwiseT(
				dsl.Txn{Body: []dsl.Expr{
					dsl.Write{Data: "req", To: bref},
					dsl.Assert{Target: bref, Prop: dsl.PRAt("Running", b)},
					dsl.Wait{Data: []string{"preresp"}, Cond: formula.Not(formula.P(dsl.IndexedName("Running", b)))},
					dsl.Assert{Prop: dsl.PR("HaveAtLeastOne")},
				}},
				cfg.Timeout,
				dsl.Seq{
					dsl.Retract{Prop: dsl.PRAt("Backend", b)},
					// Propagate the failure into the otherwise chain.
					dsl.Verify{Cond: formula.FalseF{}},
				},
			),
		}}
	}
	var fanOut dsl.Expr
	if cfg.Mode == Sequential {
		fanOut = dsl.OtherwiseT(
			dsl.ForExpr(dsl.OpOtherwise, backends, cfg.Timeout, engageOnce),
			cfg.Timeout,
			dsl.Skip{}, // no backend answered; HaveAtLeastOne stays false
		)
	} else {
		fanOut = dsl.ForExpr(dsl.OpPar, backends, 0, engage)
	}

	// guard ¬Starting ∧ Req — "Req is asserted externally to process client
	// request" (inject with runtime.Junction.InjectProp).
	p.Type("tauF").Junction(FrontClientJunction, dsl.Def(
		fcDecls,
		dsl.Retract{Prop: dsl.PR("Req")},
		dsl.Verify{Cond: formula.Not(formula.P("Call"))},
		dsl.OtherwiseT(
			dsl.Scope{Body: []dsl.Expr{
				dsl.Assert{Target: fb, Prop: dsl.PR("Call")},
				dsl.Wait{Data: []string{"state"}, Cond: formula.P("Active")},
			}},
			cfg.Timeout,
			complainOr(cfg.Complain),
		),
		dsl.Restore{Data: "state", Into: cfg.ApplyStateAtFront},
		dsl.Retract{Prop: dsl.PR("Call")},
		// ⌊H1⌉; save(..., req)
		dsl.Save{Data: "req", From: cfg.PrepareRequest},
		dsl.Retract{Prop: dsl.PR("HaveAtLeastOne")},
		// WarmAll: for b̃ ∈ backends + engage(b̃);
		// Sequential: for b̃ ∈ backends otherwise[t] engageOnce(b̃).
		fanOut,
		dsl.If{Cond: formula.Not(formula.P("HaveAtLeastOne")), Then: complainOr(cfg.Complain)},
		dsl.Verify{Cond: formula.P("HaveAtLeastOne")},
		dsl.Restore{Data: "preresp", Into: cfg.DeliverResponse},
		dsl.Save{Data: "state", From: cfg.CaptureState},
		dsl.OtherwiseT(
			dsl.Scope{Body: []dsl.Expr{
				dsl.Write{Data: "state", To: fb},
				// ⌊H3⌉ happens inside DeliverResponse; release f::b.
				dsl.Retract{Target: fb, Prop: dsl.PR("Active")},
			}},
			cfg.Timeout,
			complainOr(cfg.Complain),
		),
	).Guarded(formula.And(formula.Not(formula.P("Starting")), formula.P("Req"))).ManuallyScheduled())

	// --- τb::serve (Fig. 14) --------------------------------------------------
	p.Type("tauB").Junction(ServeJunction, dsl.Def(
		dsl.Decls(
			dsl.InitProp{Name: "Active", Init: false},
			dsl.InitProp{Name: "Activating", Init: false},
			// RecentlyActive lives at b::reactivate (serve only asserts it
			// there); no local declaration needed.
			dsl.InitData{Name: "preresp"},
			dsl.InitData{Name: "state"},
			dsl.InitData{Name: "req"},
			dsl.InitProp{Name: "Running[me::junction]", Init: false},
		),
		dsl.Case{
			Arms: []dsl.CaseArm{
				dsl.Arm(formula.P("Activating"), dsl.TermBreak,
					dsl.Restore{Data: "state", Into: cfg.ApplyStateAtBack},
					// "If the remote retraction fails, then b::reactivate
					// will eventually retry the startup."
					dsl.OtherwiseT(
						dsl.Retract{Target: fb, Prop: dsl.PR("Activating")},
						cfg.Timeout,
						dsl.Retract{Prop: dsl.PR("Activating")},
					),
				),
			},
			Otherwise: []dsl.Expr{
				dsl.Assert{Target: dsl.MeI(ReactivateJunction), Prop: dsl.PR("RecentlyActive")},
				dsl.Restore{Data: "req", Writes: []string{"preresp"}, Into: func(ctx dsl.HostCtx, req []byte) error {
					resp, err := cfg.HandleRequest(ctx, req)
					if err != nil {
						return err
					}
					return ctx.Save("preresp", resp)
				}},
				dsl.OtherwiseT(
					dsl.Scope{Body: []dsl.Expr{
						dsl.Write{Data: "preresp", To: fc},
						dsl.Retract{Target: fc, Prop: dsl.PRAt("Running", "me::junction")},
					}},
					cfg.Timeout,
					dsl.Retract{Prop: dsl.PR("Active")},
				),
			},
		},
	).Guarded(formula.Or(
		formula.P("Activating"),
		formula.And(formula.P("Active"), formula.P(dsl.IndexedName("Running", "me::junction"))),
	)))

	// --- τb::startup (Fig. 14) ------------------------------------------------
	// InitBackend[me::instance::serve] is declared at f::b (the assert's
	// target), not here: startup holds no state of its own.
	p.Type("tauB").Junction(StartupJunction, dsl.Def(
		nil,
		dsl.OtherwiseT(
			dsl.Assert{Target: fb, Prop: dsl.PRAt("InitBackend", "me::instance::serve")},
			cfg.Timeout,
			dsl.Skip{},
		),
		// Pace re-registration attempts: sleep(backoff) expressed in the DSL
		// as a wait on false with a timeout.
		dsl.OtherwiseT(dsl.Wait{Cond: formula.FalseF{}}, cfg.RegistrationBackoff, dsl.Skip{}),
	).Guarded(formula.Not(formula.At("me::instance::serve", "Active"))))

	// --- τb::reactivate (Fig. 14) ----------------------------------------------
	p.Type("tauB").Junction(ReactivateJunction, dsl.Def(
		dsl.Decls(
			// Active/Activating belong to b::serve, where the timeout handler
			// retracts them; reactivate only owns the liveness bit.
			dsl.InitProp{Name: "RecentlyActive", Init: false},
		),
		dsl.Retract{Prop: dsl.PR("RecentlyActive")},
		dsl.OtherwiseT(
			dsl.Wait{Cond: formula.P("RecentlyActive")},
			cfg.ReactivateTimeout,
			dsl.Scope{Body: []dsl.Expr{
				dsl.Retract{Target: dsl.MeI(ServeJunction), Prop: dsl.PR("Active")},
				dsl.Retract{Target: dsl.MeI(ServeJunction), Prop: dsl.PR("Activating")},
			}},
		),
	).Guarded(formula.TrueF()))

	// Instances and main (Fig. 12).
	p.Instance(FrontEnd, "tauF")
	starts := dsl.Par{}
	for i := 0; i < cfg.N; i++ {
		p.Instance(FailoverBackend(i), "tauB")
		starts = append(starts, dsl.Start{Instance: FailoverBackend(i)})
	}
	starts = append(starts, dsl.Start{Instance: FrontEnd})
	p.SetMain(starts)
	return p
}
