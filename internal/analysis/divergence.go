package analysis

import (
	"fmt"
	"sort"

	"csaw/internal/dsl"
	"csaw/internal/plan"
)

// Divergence flags constructs that can block or spin forever:
//
//   - a wait with no enclosing otherwise[t] deadline may block the junction
//     indefinitely (an error when its condition is statically false — the
//     timed form of that wait is the catalogue's sleep idiom, the untimed
//     form never completes);
//   - a case in which two or more reconsider-terminated arms can bounce
//     control between one another while none of their bodies writes any
//     proposition the arm conditions read — the runtime's ReconsiderLimit is
//     the only thing bounding the ping-pong (a single reconsider arm is
//     bounded by the semantics: re-matching the same arm fails);
//   - a driver-scheduled guarded junction whose body never falsifies its
//     guard and never blocks: the driver re-schedules it in a hot loop.
var Divergence = &Pass{
	Name: "divergence",
	Doc:  "waits without deadlines, reconsider ping-pong without progress, guarded busy loops",
	Run:  runDivergence,
}

func runDivergence(c *Context) []Diagnostic {
	var out []Diagnostic
	emit := func(sev Severity, pos, format string, args ...any) {
		out = append(out, Diagnostic{Severity: sev, Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
	for _, tj := range c.TypeJuncs {
		ji := tj.Rep
		walkOps(tj, func(pos string, nc NodeCtx, o *plan.Op) {
			switch o.Kind {
			case plan.OpWait:
				if nc.DeadlineDepth > 0 {
					return
				}
				if staticallyFalse(o.Cond) {
					emit(SevError, pos, "wait on statically false condition %s with no enclosing otherwise[t] deadline: it never completes", o.Cond)
				} else {
					emit(SevWarning, pos, "wait has no enclosing otherwise[t] deadline and may block the junction forever")
				}
			case plan.OpCase:
				checkReconsiderPingPong(ji, pos, o.Case, emit)
			}
		})
		checkBusyLoop(ji, tj.FQ(), emit)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Msg < out[j].Msg
	})
	return out
}

// checkReconsiderPingPong flags cases where ≥2 reconsider arms could
// alternate forever: none of the reconsider arms' bodies writes a
// proposition any arm condition reads, so nothing the case does can change
// which arm matches next. Remote and @-props are not among the local keys a
// condition reads: the case cannot falsify them, but they can change
// underneath it, which counts as external progress.
func checkReconsiderPingPong(ji *plan.Junction, pos string, c *plan.Case, emit func(Severity, string, string, ...any)) {
	var reconsiderArms []int
	for i, a := range c.Arms {
		if a.Term == dsl.TermReconsider {
			reconsiderArms = append(reconsiderArms, i)
		}
	}
	if len(reconsiderArms) < 2 {
		return
	}
	condProps := map[string]bool{}
	for _, a := range c.Arms {
		for _, p := range plan.FormulaReadSet(ji, a.Cond).Props {
			condProps[p] = true
		}
	}
	for _, i := range reconsiderArms {
		if writesAny(ji, c.Arms[i].Body.Ops, condProps) {
			return // some reconsider arm makes progress
		}
	}
	emit(SevWarning, pos,
		"%d reconsider-terminated arms and none of them writes a proposition the arm conditions read: the case can ping-pong until ReconsiderLimit aborts it",
		len(reconsiderArms))
}

// writesAny reports whether ops, or an op they contain, writes one of keys in
// ji's own table (plan.Junction.LocalWrites).
func writesAny(ji *plan.Junction, ops []*plan.Op, keys map[string]bool) bool {
	found := false
	plan.Walk(ops, func(o *plan.Op, _ []*plan.Op) {
		for _, k := range ji.LocalWrites(o).Props {
			found = found || keys[k]
		}
	})
	return found
}

// checkBusyLoop flags a driver-scheduled guarded junction whose guard only
// reads local propositions, whose body never writes any of them, and whose
// body contains no wait: once the guard is true the driver re-runs the body
// in a hot loop with nothing to stop it.
func checkBusyLoop(ji *plan.Junction, pos string, emit func(Severity, string, string, ...any)) {
	if ji.Guard == nil || ji.Def.Manual || staticallyFalse(ji.Def.Guard) || ji.Guard.Remote {
		return // never scheduled at all (reachability's department), or paced by external state
	}
	hasWait := false
	plan.Walk(ji.Body.Ops, func(o *plan.Op, _ []*plan.Op) {
		hasWait = hasWait || o.Kind == plan.OpWait
	})
	if hasWait {
		return // the wait paces (or blocks) the loop
	}
	guardProps := map[string]bool{}
	for _, k := range ji.Guard.Props {
		guardProps[k] = true
	}
	if writesAny(ji, ji.Body.Ops, guardProps) {
		return // the body can falsify its own guard
	}
	emit(SevWarning, pos+"/guard",
		"guard reads only local propositions the body never writes, and the body never waits: the driver will re-schedule this junction in a busy loop")
}
