package cost

import (
	"csaw/internal/analysis"
	"csaw/internal/dsl"
	"csaw/internal/plan"
)

// wire prices one junction's firing on the wire — frames and sequential ack
// rounds — by following the runtime's lowering (runtime/compiled.go) statement
// for statement, with the same two judgments from internal/plan: a frame is
// one group send, and a group is either the plain update arms of a par that
// share a destination or consecutive same-destination members of a
// straight-line run (plan.UpdateRun). Everything else about the model's
// reading of a body stays as in walkBody: every if/case alternative is
// charged, an idx target sends with the weight of its universe, otherwise
// handlers are off the steady-state path.
type wire struct {
	m  *Model
	ji *analysis.JunctionInfo
}

// seq prices a statement list: frames add up, and so do rounds — each group
// is awaited before the next statement starts.
func (x wire) seq(body []dsl.Expr, w float64) (frames float64, rounds int) {
	flat := plan.FlattenSeq(body)
	for i := 0; i < len(flat); {
		n := plan.UpdateRun(x.ji, flat[i:])
		if n == 0 {
			f, r := x.expr(flat[i], w)
			frames += f
			rounds += r
			i++
			continue
		}
		open := "" // destination of the group being filled
		for _, e := range flat[i : i+n] {
			ref, _ := plan.RemoteUpdate(e)
			fw := x.weight(ref, w)
			if fw == 0 {
				continue // resolves to nothing, or only to this junction
			}
			if d := x.dest(ref); d != open {
				open = d
				frames += fw
				rounds++
			}
		}
		i += n
	}
	return frames, rounds
}

// par prices parallel composition over already spliced branches: the plain
// update arms leave as one group per destination, every other arm is priced
// on its own, and the arms overlap, so the deepest one sets the rounds.
func (x wire) par(branches dsl.Par, w float64) (frames float64, rounds int) {
	if len(branches) == 1 {
		return x.expr(branches[0], w)
	}
	seen := map[string]bool{}
	for _, b := range branches {
		if ref, ok := plan.RemoteUpdate(b); ok {
			fw := x.weight(ref, w)
			if d := x.dest(ref); fw > 0 && !seen[d] {
				seen[d] = true
				frames += fw
				rounds = max(rounds, 1)
			}
			continue
		}
		f, r := x.expr(b, w)
		frames += f
		rounds = max(rounds, r)
	}
	return frames, rounds
}

func (x wire) expr(e dsl.Expr, w float64) (frames float64, rounds int) {
	switch n := e.(type) {
	case dsl.Seq:
		return x.seq(n, w)
	case dsl.Scope:
		return x.seq(n.Body, w)
	case dsl.Txn:
		return x.seq(n.Body, w)
	case dsl.Par:
		return x.par(plan.FlattenPar(n), w)
	case dsl.ParN:
		branches := make(dsl.Par, 0, n.N*len(n.Body))
		for i := 0; i < n.N; i++ {
			branches = append(branches, n.Body...)
		}
		return x.par(branches, w)
	case dsl.Otherwise:
		return x.expr(n.Try, w)
	case dsl.If:
		f1, r1 := x.expr(n.Then, w)
		f2, r2 := x.expr(n.Else, w)
		return f1 + f2, max(r1, r2)
	case dsl.Case:
		for _, a := range n.Arms {
			f, r := x.seq(a.Body, w)
			frames += f
			rounds = max(rounds, r)
		}
		f, r := x.seq(n.Otherwise, w)
		return frames + f, max(rounds, r)
	}
	// A lone statement (a par arm, an if branch): a remote update is the
	// group of one, anything else sends nothing.
	if ref, ok := plan.RemoteUpdate(e); ok {
		if fw := x.weight(ref, w); fw > 0 {
			return fw, 1
		}
	}
	return 0, 0
}

// weight is how much of w an update aimed at ref puts on the wire: an idx
// target reaches one element of its universe per execution, and an element
// that is this junction itself sends nothing.
func (x wire) weight(ref dsl.JunctionRef, w float64) float64 {
	if ref.MeJunction {
		return 0
	}
	targets := x.m.Ctx.ResolveTargets(x.ji, ref)
	sent := 0
	for _, t := range targets {
		if t.FQ != x.ji.FQ {
			sent++
		}
	}
	if sent == 0 {
		return 0
	}
	if ref.Idx != "" {
		return w * float64(sent) / float64(len(targets))
	}
	return w
}

// dest names a destination for grouping: the runtime groups by resolved
// endpoint, so two statements through the same idx variable always share one,
// two static references share one when they resolve alike, and an idx
// reference is never assumed to coincide with anything else.
func (x wire) dest(ref dsl.JunctionRef) string {
	if ref.Idx != "" {
		return "idx " + ref.Idx
	}
	if ts := x.m.Ctx.ResolveTargets(x.ji, ref); len(ts) == 1 {
		return ts[0].FQ
	}
	return ref.String()
}
