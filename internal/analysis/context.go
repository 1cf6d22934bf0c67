package analysis

import "csaw/internal/plan"

// Context is what a pass reads: the program's one static pass (plan.Compile —
// resolved declarations, lowered bodies, access facts, and through them the
// §8.7 topology) and the run's parameters. Passes must not mutate it.
type Context struct {
	*plan.Program
	// Unfold is the event-structure budget for semantic cross-checks.
	Unfold int
	// Placement maps instance names to deployment locations (from
	// Config.Placement); nil means everything is co-located. Location("")
	// sharing means co-located.
	Placement map[string]string
}

// Location returns the deployment location of an instance under the run's
// Placement ("" when unplaced — all unplaced instances are co-located).
func (c *Context) Location(inst string) string { return c.Placement[inst] }

// NodeCtx is the structural context of an op: what encloses it.
type NodeCtx struct {
	// TxnDepth counts enclosing transactions, ParDepth enclosing Par/ParN
	// branches, DeadlineDepth enclosing otherwise[t] tries with a timeout.
	TxnDepth      int
	ParDepth      int
	DeadlineDepth int
	InCaseArm     bool
	// InParN is set anywhere under a ∥n replica body.
	InParN bool
	// ParSinceArm counts Par/ParN boundaries crossed since the innermost
	// case arm: a terminator with ParSinceArm > 0 crosses a parallel barrier
	// to reach the case it binds to.
	ParSinceArm int
}

// walkOps visits every op of a type-level junction's lowered body with its
// type-level position (plan.TypeJunction.Pos) and structural context.
func walkOps(tj *plan.TypeJunction, fn func(pos string, nc NodeCtx, o *plan.Op)) {
	plan.Walk(tj.Rep.Body.Ops, func(o *plan.Op, in []*plan.Op) {
		var nc NodeCtx
		for i, a := range in {
			switch a.Kind {
			case plan.OpTxn:
				nc.TxnDepth++
			case plan.OpPar:
				nc.ParDepth++
				nc.ParSinceArm++
				nc.InParN = nc.InParN || a.N > 0
			case plan.OpOtherwise:
				child := o // the op on the path under a: its try or its handler
				if i+1 < len(in) {
					child = in[i+1]
				}
				if a.Timeout > 0 && child == a.Try {
					nc.DeadlineDepth++
				}
			case plan.OpCase:
				nc.InCaseArm = true
				nc.ParSinceArm = 0
			}
		}
		fn(tj.Pos(o), nc, o)
	})
}
