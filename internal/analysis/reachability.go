package analysis

import (
	"fmt"
	"sort"
	"strings"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

// Reachability flags junctions no entry junction can ever reach over the
// §8.7 Topo graph, statically false case arms, and instances that are never
// started. A junction is an entry when the application can schedule it
// directly (no guard, or manually scheduled), when its guard is already true
// under the declared initial proposition values, or when the guard consults
// state outside its own table (a remote γ@P read or an @-predicate such as
// @running) — the driver wakes on that state, which can flip without any
// incoming communication. Every other guarded junction only ever runs after
// a reachable junction writes to it, i.e. when it has an incoming topology
// edge from a reachable node.
var Reachability = &Pass{
	Name: "reachability",
	Doc:  "junctions and case arms unreachable from any entry junction (§8.7 topology)",
	Run:  runReachability,
}

func runReachability(c *Context) []Diagnostic {
	var out []Diagnostic
	emit := func(sev Severity, pos, format string, args ...any) {
		out = append(out, Diagnostic{Severity: sev, Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}

	for _, inst := range c.Prog.InstanceNames() {
		if !c.Started[inst] {
			emit(SevWarning, inst, "instance %q is declared but never started", inst)
		}
	}

	// Entry set, then closure over topology edges restricted to started
	// instances (a stopped instance's junctions process nothing).
	reachable := map[string]bool{}
	for _, ji := range c.Juncs {
		if c.Started[ji.Inst] && isEntry(ji) {
			reachable[ji.FQ] = true
		}
	}
	edges := c.Topo().Edges
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if !reachable[e.From] || reachable[e.To] {
				continue
			}
			to := c.Lookup(e.To)
			if to == nil || !c.Started[to.Inst] {
				continue
			}
			reachable[e.To] = true
			changed = true
		}
	}
	for _, ji := range c.Juncs {
		if !c.Started[ji.Inst] {
			continue // already reported as never started
		}
		if !reachable[ji.FQ] {
			emit(SevError, ji.FQ, "junction is unreachable: its guard waits on local state, is not initially true, and no reachable junction communicates with it")
		}
	}

	// Statically false conditions: a case arm (or if-branch) whose condition
	// has an empty DNF can never match.
	for _, tj := range c.TypeJuncs {
		walkOps(tj, func(pos string, _ NodeCtx, o *plan.Op) {
			switch o.Kind {
			case plan.OpCase:
				for i, a := range o.Case.Arms {
					if staticallyFalse(a.Cond) {
						emit(SevError, fmt.Sprintf("%s/arm[%d]", pos, i), "case arm condition %s is statically false; the arm is unreachable", a.Cond)
					}
				}
			case plan.OpIf:
				if staticallyFalse(o.Cond) {
					emit(SevWarning, pos, "if condition %s is statically false; the then-branch is unreachable", o.Cond)
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

// isEntry reports whether the junction can run without any incoming
// communication.
func isEntry(ji *plan.Junction) bool {
	if ji.Def.Guard == nil || ji.Def.Manual {
		return true
	}
	env := formula.MapEnv{}
	for _, pr := range formula.Props(ji.Def.Guard) {
		if pr.Junction != "" || strings.HasPrefix(pr.Name, "@") {
			// Another junction's table or liveness: it changes without an
			// incoming write, and the driver wakes on it.
			return true
		}
		name := ji.ResolveName(pr.Name)
		if _, _, ok := dsl.SplitIdxProp(name); ok {
			// Idx-indexed guard prop: the idx starts undef, so the guard
			// cannot be initially true through it — leave it Unknown.
			continue
		}
		if ji.HasProp(name) {
			env[pr.Name] = ji.PropInit(name)
		}
	}
	return ji.Def.Guard.Eval(env) == formula.True
}

// staticallyFalse reports whether a formula is unsatisfiable: its DNF has no
// clauses (ToDNF drops contradictory clauses, so an empty disjunction cannot
// be made true by any assignment).
func staticallyFalse(f formula.Formula) bool {
	if f == nil {
		return false
	}
	return len(formula.ToDNF(f)) == 0
}
