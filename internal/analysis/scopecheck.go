package analysis

import (
	"fmt"
	"sort"

	"csaw/internal/dsl"
	"csaw/internal/plan"
)

// ScopeCheck audits Scope/Txn nesting and replication-scope misuse against
// the runtime's actual signal and rollback semantics:
//
//   - retry inside a transaction: the runtime propagates the retry signal
//     out of ⟨|…|⟩ without rolling back, so the re-run observes the partial
//     effects the transaction was supposed to make atomic;
//   - save/restore inside a transaction: their host-side hooks run outside
//     the table snapshot, so rollback cannot undo them (validate already
//     rejects full ⌊H⌉ blocks there);
//   - nested transactions: the inner snapshot/rollback is subsumed by the
//     outer one and almost certainly not what was meant;
//   - start/stop under ∥n replication: every replica starts/stops the same
//     instance, and all but one fail;
//   - case terminators inside parallel branches: the winning signal is
//     picked by branch order after the barrier, which rarely reads as
//     intended;
//   - ∥n with n = 1: replication that replicates nothing.
var ScopeCheck = &Pass{
	Name: "scopecheck",
	Doc:  "Scope/Txn nesting and replication-scope misuse",
	Run:  runScopeCheck,
}

func runScopeCheck(c *Context) []Diagnostic {
	var out []Diagnostic
	emit := func(sev Severity, pos, format string, args ...any) {
		out = append(out, Diagnostic{Severity: sev, Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
	for _, tj := range c.TypeJuncs {
		walkOps(tj, func(pos string, nc NodeCtx, o *plan.Op) {
			switch n := o.Stmt.(type) {
			case dsl.Txn:
				if nc.TxnDepth > 0 {
					emit(SevWarning, pos, "transaction nested inside a transaction: the inner rollback is subsumed by the outer snapshot")
				}
			case dsl.Retry:
				if nc.TxnDepth > 0 {
					emit(SevError, pos, "retry inside a transaction: the retry signal escapes ⟨|…|⟩ without rollback, so the re-run observes partial transaction effects")
				} else if nc.ParDepth > 0 {
					emit(SevWarning, pos, "retry inside a parallel branch: the signal is selected by branch order after the barrier and re-runs the whole body")
				}
			case dsl.Save:
				if nc.TxnDepth > 0 {
					emit(SevWarning, pos, "save inside a transaction: its host-side source hook is not undone by rollback")
				}
			case dsl.Restore:
				if nc.TxnDepth > 0 {
					emit(SevWarning, pos, "restore inside a transaction: its host-side sink hook is not undone by rollback")
				}
			case dsl.Start:
				if nc.InParN {
					emit(SevError, pos, "start of %q under ∥n replication: every replica starts the same instance and all but one fail", n.Instance)
				}
			case dsl.Stop:
				if nc.InParN {
					emit(SevError, pos, "stop of %q under ∥n replication: every replica stops the same instance", n.Instance)
				}
			case dsl.Break, dsl.Next, dsl.Reconsider:
				if nc.InCaseArm && nc.ParSinceArm > 0 {
					emit(SevWarning, pos, "case terminator %s crosses a parallel barrier to reach its case: the winning signal is chosen by branch order, not completion order", n)
				}
			case dsl.ParN:
				if n.N == 1 {
					emit(SevInfo, pos, "∥n with n = 1 replicates nothing")
				}
			}
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Msg < out[j].Msg
	})
	return out
}
