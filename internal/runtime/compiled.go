package runtime

// This file is the executor: each junction's guard and body are lowered once,
// at StartInstance time, into closure evaluators and step slices built on the
// static metadata of internal/plan. What a statement means is specified by the
// §8 denotation (internal/events/semantics.go); events.Conforms holds every
// traced test run to it, and the catalogue's outcomes are frozen under
// internal/patterns/testdata and internal/runtime/testdata.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"csaw/internal/compart"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/kv"
	"csaw/internal/obsv"
	"csaw/internal/plan"
)

// signal is the control-flow outcome of executing an expression; failures
// travel separately as errors (and are what otherwise / transactions handle).
type signal uint8

const (
	sigNone signal = iota
	sigBreak
	sigNext
	sigReconsider
	sigReturn
	sigRetry
)

// step is one lowered statement: a control-flow signal plus failure, with all
// name/target resolution that does not depend on runtime idx state hoisted to
// compile time.
type step func(ctx context.Context) (signal, error)

// compiledJunction is a junction's lowered guard and body.
type compiledJunction struct {
	guard     func() formula.Truth // nil when unguarded
	guardRS   *plan.ReadSet        // nil when unguarded
	guardKeys *kv.Keys             // guardRS's local keys, bound: what a guard watcher subscribes to
	body      []step
}

func (j *Junction) compile(pj *plan.Junction) *compiledJunction {
	c := &compiledJunction{body: j.compileBody(j.def.Body)}
	if j.def.Guard != nil {
		c.guard = j.compileFormula(j.def.Guard)
		c.guardRS = pj.Guard
		c.guardKeys = j.table.Bind(pj.Guard.Props, nil)
	}
	return c
}

// runSteps executes a flattened statement sequence: the first failure or
// non-none signal stops the sequence, and an expired deadline surfaces as
// ErrTimeout.
func runSteps(ctx context.Context, steps []step) (signal, error) {
	_, sig, err := runStepsAt(ctx, steps)
	return sig, err
}

// runStepsAt is runSteps that also reports the index of the step that ended
// the sequence (len(steps) when it ran to the end).
func runStepsAt(ctx context.Context, steps []step) (int, signal, error) {
	for i, st := range steps {
		if err := ctx.Err(); err != nil {
			return i, sigNone, fmt.Errorf("%w: %v", ErrTimeout, err)
		}
		sig, err := st(ctx)
		if err != nil || sig != sigNone {
			return i, sig, err
		}
	}
	return len(steps), sigNone, nil
}

// compileBody lowers a statement list — a junction body, a scope, a
// transaction, a case arm, a par arm that is a sequence — flattening nested
// Seq levels into one step slice.
func (j *Junction) compileBody(body []dsl.Expr) []step {
	steps, _ := j.compileStatements(plan.FlattenSeq(body))
	return steps
}

// compileStatements lowers a flattened statement list; ends[i] is the index
// in flat one past the last statement step i covers.
//
// Every maximal run of adjacent plain remote updates (plan.UpdateRun) becomes
// one step that sends consecutive members with the same destination as one
// group. Adjacency is the whole legality test: any other statement between
// two updates — a local update, a wait, a host block, an if — ends the run,
// because it could observe that the first was acknowledged. What makes a
// group legal for a sequence, which unlike a par has a failure order, is in
// updateStep (the sender's fate), compart.Network.SendBatch and SendGroup (a
// receiver sees a prefix) and plan.UpdateRun (no early remote visibility).
func (j *Junction) compileStatements(flat []dsl.Expr) (steps []step, ends []int) {
	for i := 0; i < len(flat); {
		n := plan.UpdateRun(j.pj.Info, flat[i:])
		if n < 2 {
			steps = append(steps, j.compileExpr(flat[i]))
			i++
		} else {
			arms := make([]updateArm, n)
			for k := range arms {
				arms[k] = j.remoteUpdateArm(flat[i+k])
			}
			steps = append(steps, j.updateStep(arms...))
			i += n
		}
		ends = append(ends, i)
	}
	return steps, ends
}

func (j *Junction) compileExpr(e dsl.Expr) step {
	switch n := e.(type) {
	case dsl.Skip:
		return func(context.Context) (signal, error) { return sigNone, nil }
	case dsl.Return:
		return func(context.Context) (signal, error) { return sigReturn, nil }
	case dsl.Retry:
		return func(context.Context) (signal, error) { return sigRetry, nil }
	case dsl.Break:
		return func(context.Context) (signal, error) { return sigBreak, nil }
	case dsl.Next:
		return func(context.Context) (signal, error) { return sigNext, nil }
	case dsl.Reconsider:
		return func(context.Context) (signal, error) { return sigReconsider, nil }

	case dsl.Seq:
		steps := j.compileBody(n)
		return func(ctx context.Context) (signal, error) { return runSteps(ctx, steps) }

	case dsl.Par:
		return j.compilePar(n)

	case dsl.ParN:
		branches := make(dsl.Par, 0, n.N*len(n.Body))
		for i := 0; i < n.N; i++ {
			branches = append(branches, n.Body...)
		}
		return j.compilePar(branches)

	case dsl.Scope:
		steps := j.compileBody(n.Body)
		return func(ctx context.Context) (signal, error) {
			sig, err := runSteps(ctx, steps)
			if sig == sigReturn {
				sig = sigNone
			}
			return sig, err
		}

	case dsl.Txn:
		flat := plan.FlattenSeq(n.Body)
		steps, ends := j.compileStatements(flat)
		ws := plan.CompileTxn(j.pj.Info, flat)
		snap := j.table.Snapshot
		if !ws.Full {
			props, data := ws.Props, ws.Data
			snap = func() kv.Snapshot { return j.table.SnapshotKeys(props, data) }
		}
		// wrote[i] is what the transaction can have written once step i has
		// started. A rollback restores that and no more: the keys of steps
		// never reached are still as the snapshot found them unless a sibling
		// par arm committed to them meanwhile, which must stand.
		wrote := make([]plan.WriteSet, len(steps))
		for i, end := range ends {
			wrote[i] = plan.CompileTxn(j.pj.Info, flat[:end])
		}
		return func(ctx context.Context) (signal, error) {
			s := snap()
			j.noteTxn(obsv.EvTxnBegin)
			at, sig, err := runStepsAt(ctx, steps)
			if err != nil {
				if w := wrote[at]; w.Full {
					j.table.Restore(s)
				} else {
					j.table.RestoreKeys(s, w.Props, w.Data)
				}
				j.noteTxn(obsv.EvTxnRollback)
				return sigNone, err
			}
			j.noteTxn(obsv.EvTxnCommit)
			if sig == sigReturn {
				sig = sigNone
			}
			return sig, nil
		}

	case dsl.Otherwise:
		try := j.compileExpr(n.Try)
		handler := j.compileExpr(n.Handler)
		timeout := n.Timeout
		return func(ctx context.Context) (signal, error) {
			sub := ctx
			cancel := func() {}
			if timeout > 0 {
				sub, cancel = context.WithTimeout(ctx, timeout)
			}
			sig, err := try(sub)
			cancel()
			if err == nil {
				return sig, nil
			}
			if ctx.Err() != nil {
				return sigNone, err
			}
			return handler(ctx)
		}

	case dsl.Host:
		hc := j.newHostCtx(n.Writes)
		return func(context.Context) (signal, error) {
			if err := n.Fn(hc); err != nil {
				return sigNone, fmt.Errorf("host %s: %w", n.Label, err)
			}
			return sigNone, nil
		}

	case dsl.Save:
		hc := j.newHostCtx([]string{n.Data})
		return func(context.Context) (signal, error) {
			payload, err := n.From(hc)
			if err != nil {
				return sigNone, fmt.Errorf("save %s: %w", n.Data, err)
			}
			return sigNone, hc.Save(n.Data, payload)
		}

	case dsl.Restore:
		hc := j.newHostCtx(n.Writes)
		cell := j.table.DataCell(n.Data)
		return func(context.Context) (signal, error) {
			var payload []byte
			var err error
			if cell != nil {
				payload, err = cell.Get()
			} else {
				payload, err = j.table.Data(n.Data)
			}
			if err != nil {
				return sigNone, fmt.Errorf("restore %s: %w", n.Data, err)
			}
			if n.Into == nil {
				return sigNone, nil
			}
			if err := n.Into(hc, payload); err != nil {
				return sigNone, fmt.Errorf("restore %s: %w", n.Data, err)
			}
			return sigNone, nil
		}

	case dsl.Write:
		return j.updateStep(j.compileWrite(n))
	case dsl.Assert:
		return j.compilePropUpdate(n.Target, n.Prop, true)
	case dsl.Retract:
		return j.compilePropUpdate(n.Target, n.Prop, false)

	case dsl.Wait:
		return j.compileWait(n)

	case dsl.Verify:
		eval := j.compileFormula(n.Cond)
		return func(context.Context) (signal, error) {
			switch eval() {
			case formula.True:
				return sigNone, nil
			case formula.False:
				return sigNone, fmt.Errorf("%w: %s", ErrVerifyFailed, n.Cond)
			default:
				return sigNone, fmt.Errorf("%w: %s", ErrVerifyUnknown, n.Cond)
			}
		}

	case dsl.Keep:
		props := make([]string, len(n.Props))
		for i, p := range n.Props {
			props[i] = j.resolveSelfName(p)
		}
		return func(context.Context) (signal, error) {
			j.table.Keep(props, n.Data)
			return sigNone, nil
		}

	case dsl.If:
		eval := j.compileFormula(n.Cond)
		then := j.compileExpr(n.Then)
		var els step
		if n.Else != nil {
			els = j.compileExpr(n.Else)
		}
		return func(ctx context.Context) (signal, error) {
			if eval() == formula.True {
				return then(ctx)
			}
			if els != nil {
				return els(ctx)
			}
			return sigNone, nil
		}

	case dsl.Case:
		cc := j.compileCase(n)
		return func(ctx context.Context) (signal, error) { return cc.run(ctx, 0) }

	case dsl.Start:
		return func(context.Context) (signal, error) { return sigNone, j.sys.StartInstance(n.Instance, n.Args) }
	case dsl.Stop:
		return func(context.Context) (signal, error) { return sigNone, j.sys.StopInstance(n.Instance) }

	case dsl.IdxAssign:
		return func(context.Context) (signal, error) { return sigNone, j.SetIdx(n.Idx, n.Elem) }

	default:
		return func(context.Context) (signal, error) {
			return sigNone, fmt.Errorf("runtime: %s: unhandled expression %T", j.FQName, e)
		}
	}
}

// compilePar lowers parallel composition with barrier semantics: all branches
// run, every failure is awaited, the first failure (by branch order) wins,
// then the first non-none signal propagates.
//
// An arm that completes at a delivery ack may be sent whenever the schedule
// likes, and sending the plain remote assert/retract/write arms in branch
// order is one legal interleaving of §6's par. The compiler picks that one:
// those arms get no goroutine of their own and become one step that applies
// their local halves in branch order, groups them by destination (first use
// first) and hands each group to sendGroup — one sequence range, one
// delivery group and one ack wait per destination, with seq order = branch
// order = wire order. Every other arm still runs on its own goroutine beside
// it.
func (j *Junction) compilePar(branches dsl.Par) step {
	branches = plan.FlattenPar(branches)
	if len(branches) == 0 {
		return func(context.Context) (signal, error) { return sigNone, nil }
	}
	if len(branches) == 1 {
		return j.compileExpr(branches[0])
	}
	// idx is an arm's position among the par's branches.
	type updateBranch struct {
		idx int
		run updateArm
	}
	type otherBranch struct {
		idx int
		run step
	}
	var updates []updateBranch
	var others []otherBranch
	for i, b := range branches {
		if arm := j.remoteUpdateArm(b); arm != nil {
			updates = append(updates, updateBranch{i, arm})
		} else {
			others = append(others, otherBranch{i, j.compileExpr(b)})
		}
	}
	// destGroup is the updates one firing sends to one destination; a failed
	// send fails all of them alike, so the first arm's position stands for
	// the group when errors are ranked by branch order.
	type destGroup struct {
		to    string
		first int
		ups   []remoteUpdate
	}
	return func(ctx context.Context) (signal, error) {
		sigs := make([]signal, len(branches))
		errs := make([]error, len(branches))
		var wg sync.WaitGroup
		for _, o := range others {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sigs[o.idx], errs[o.idx] = o.run(ctx)
			}()
		}
		var groups []destGroup
		for _, u := range updates {
			m, err := u.run()
			if m.local && j.traced {
				j.noteLocalWrite(m.up.key, wrote(m.up.flag))
			}
			if err != nil {
				errs[u.idx] = err
				continue
			}
			g := 0
			for g < len(groups) && groups[g].to != m.to {
				g++
			}
			if g == len(groups) {
				groups = append(groups, destGroup{to: m.to, first: u.idx})
				if g == 0 {
					// Most pars update one destination: size the first
					// group for all of them.
					groups[0].ups = make([]remoteUpdate, 0, len(updates))
				}
			}
			groups[g].ups = append(groups[g].ups, m.up)
		}
		// A par's group stands or falls as one statement: only the error counts.
		send := func(g destGroup) { _, errs[g.first] = j.sys.sendGroup(ctx, j, g.to, g.ups) }
		for i, g := range groups {
			if i == len(groups)-1 {
				send(g) // the last group waits on this goroutine
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				send(g)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return sigNone, err
			}
		}
		for _, s := range sigs {
			if s != sigNone {
				return s, nil
			}
		}
		return sigNone, nil
	}
}

// compileTarget lowers a communication target. Static references resolve at
// compile time; idx references get a precomputed element→endpoint map over
// the idx's universe, with the dynamic resolver as fallback.
func (j *Junction) compileTarget(ref dsl.JunctionRef) func() (string, error) {
	constant := func(fq string) func() (string, error) {
		return func() (string, error) { return fq, nil }
	}
	fail := func(err error) func() (string, error) {
		return func() (string, error) { return "", err }
	}
	switch {
	case ref.MeJunction:
		return constant(j.FQName)
	case ref.MeInstance:
		return constant(j.inst.Name + "::" + ref.Junction)
	case ref.Idx != "":
		byElem := map[string]string{}
		if universe, ok := j.pj.Info.IdxUniverse(ref.Idx); ok {
			for _, e := range universe {
				re := j.resolveSelfName(e)
				if fq, err := j.elemToFQ(re); err == nil {
					byElem[re] = fq
				}
			}
		}
		idx := ref.Idx
		return func() (string, error) {
			elem, err := j.Idx(idx)
			if err != nil {
				return "", err
			}
			if fq, ok := byElem[elem]; ok {
				return fq, nil
			}
			return j.elemToFQ(elem)
		}
	case ref.Instance != "":
		if ref.Junction != "" {
			return constant(ref.Instance + "::" + ref.Junction)
		}
		fq, err := j.elemToFQ(ref.Instance)
		if err != nil {
			return fail(err)
		}
		return constant(fq)
	default:
		return fail(fmt.Errorf("runtime: %s: empty junction reference", j.FQName))
	}
}

// armedUpdate is what running an updateArm yields: where to send what, and
// how to take the arm's local effect back.
type armedUpdate struct {
	to   string
	up   remoteUpdate
	undo kv.PropUndo
	// local is set when the sender declares the proposition too, so the arm
	// wrote its own table.
	local bool
}

// updateArm is the lowered sender half of a remote assert/retract/write: it
// applies the statement's local effect and resolves what to send where. The
// delivery itself is sendGroup's, for a straight-line run of arms
// (updateStep) or the update arms of a par (compilePar). When an arm fails
// after its local effect, the effect's undo comes back with the error.
type updateArm func() (armedUpdate, error)

// remoteUpdateArm lowers e when it is a plain assert/retract/write aimed at
// another junction (plan.RemoteUpdate), and returns nil for everything else.
func (j *Junction) remoteUpdateArm(e dsl.Expr) updateArm {
	if _, ok := plan.RemoteUpdate(e); !ok {
		return nil
	}
	switch n := e.(type) {
	case dsl.Write:
		return j.compileWrite(n)
	case dsl.Assert:
		return j.compileRemoteProp(n.Target, n.Prop, true)
	case dsl.Retract:
		return j.compileRemoteProp(n.Target, n.Prop, false)
	}
	return nil
}

// updateStep lowers a straight-line run of remote updates — one statement, or
// the adjacent ones compileStatements found — to one step. The arms run in
// statement order; consecutive members with the same resolved destination
// leave as one group (sendGroup), and a change of destination closes the open
// group and awaits it before the next one opens.
//
// The step's fate is the fate the statements would have had one at a time. A
// group that fails fails at its first unacknowledged member p: the error is
// the one statement p would have returned, members before p were delivered
// and acknowledged, and the local halves of the members after p — applied
// when their arms ran, ahead of p's outcome — are taken back, so the table
// reads as if they had never started. An arm that fails to resolve first
// sends and awaits the members before it, and then fails as its statement
// would have, its local half standing. The one thing a group widens: when
// acknowledgments (not updates) are lost, members after p may have reached
// the receiver although the sender reports p failed — every such receiver
// state is one the statements reach one at a time when a later ack is lost.
func (j *Junction) updateStep(arms ...updateArm) step {
	return func(ctx context.Context) (signal, error) {
		var (
			upBuf  [4]remoteUpdate
			ranBuf [4]armedUpdate
		)
		ups := upBuf[:0]   // the open group
		ran := ranBuf[:0]  // one per arm run so far
		to, first := "", 0 // the open group's destination and first member
		for k := 0; ; k++ {
			var m armedUpdate
			var err error
			last := k == len(arms)
			if !last {
				m, err = arms[k]()
				ran = append(ran, m)
			}
			if len(ups) > 0 && (last || err != nil || m.to != to) {
				acked, serr := j.sys.sendGroup(ctx, j, to, ups)
				if serr != nil {
					for u := len(ran) - 1; u > first+acked; u-- {
						j.table.UndoProp(ran[u].undo)
					}
					j.noteLocalHalves(ran[first : first+acked+1])
					return sigNone, serr
				}
				j.noteLocalHalves(ran[first : first+len(ups)])
				ups = ups[:0]
				if cerr := ctx.Err(); cerr != nil && !last {
					// The deadline passed between two groups, where it would
					// have stopped the sequence before statement k began.
					j.table.UndoProp(m.undo)
					return sigNone, fmt.Errorf("%w: %v", ErrTimeout, cerr)
				}
			}
			if err != nil {
				j.noteLocalHalves(ran[k:])
			}
			if last || err != nil {
				return sigNone, err
			}
			if len(ups) == 0 {
				to, first = m.to, k
			}
			ups = append(ups, m.up)
		}
	}
}

// noteLocalHalves reports the local halves of arms whose fate is settled and
// left them standing: a traced run shows a local write when it can no longer
// be taken back (obsv.EvLocalWrite).
func (j *Junction) noteLocalHalves(ran []armedUpdate) {
	for _, m := range ran {
		if m.local && j.traced {
			j.noteLocalWrite(m.up.key, wrote(m.up.flag))
		}
	}
}

func (j *Junction) compileWrite(n dsl.Write) updateArm {
	resolveTo := j.compileTarget(n.To)
	cell := j.table.DataCell(n.Data)
	return func() (armedUpdate, error) {
		// The table's internal slice is safe here: sendGroup copies the
		// payload into the framed message body before handing it off.
		var payload []byte
		var err error
		if cell != nil {
			payload, err = cell.Ref()
		} else {
			payload, err = j.table.DataRef(n.Data)
		}
		if err != nil {
			return armedUpdate{}, fmt.Errorf("write %s: %w", n.Data, err)
		}
		to, err := resolveTo()
		if err != nil {
			return armedUpdate{}, err
		}
		if to == j.FQName {
			return armedUpdate{}, fmt.Errorf("runtime: %s: write to self", j.FQName)
		}
		return armedUpdate{to: to, up: remoteUpdate{kind: compart.KindData, key: n.Data, payload: payload}}, nil
	}
}

// compilePropUpdate lowers assert/retract: the local table is updated first
// ("this line updates the KV table of f and g", paper §4), then the update is
// pushed to a non-local target; a communication failure fails the statement
// after the local effect (use a transaction block to undo).
func (j *Junction) compilePropUpdate(target dsl.JunctionRef, pr dsl.PropRef, value bool) step {
	if !target.IsLocal() {
		return j.updateStep(j.compileRemoteProp(target, pr, value))
	}
	resolve := j.compilePropRef(pr)
	return func(context.Context) (signal, error) {
		p, err := resolve()
		if err != nil {
			return sigNone, err
		}
		if p.cell != nil {
			p.cell.Set(value)
		} else if !j.table.HasProp(p.name) {
			return sigNone, fmt.Errorf("runtime: %s: local proposition %q not declared", j.FQName, p.name)
		} else if err := j.table.SetProp(p.name, value); err != nil {
			return sigNone, err
		}
		if j.traced {
			j.noteLocalWrite(p.name, wrote(value))
		}
		return sigNone, nil
	}
}

func (j *Junction) compileRemoteProp(target dsl.JunctionRef, pr dsl.PropRef, value bool) updateArm {
	resolve := j.compilePropRef(pr)
	resolveTo := j.compileTarget(target)
	return func() (armedUpdate, error) {
		p, err := resolve()
		if err != nil {
			return armedUpdate{}, err
		}
		// The local half, when the sender declares the proposition too.
		m := armedUpdate{up: remoteUpdate{kind: compart.KindProp, key: p.name, flag: value}, local: p.cell != nil}
		if m.local {
			m.undo = p.cell.Swap(value)
		} else {
			m.undo, m.local = j.table.SwapProp(p.name, value)
		}
		if m.to, err = resolveTo(); err != nil {
			return m, err
		}
		if m.to == j.FQName {
			return m, fmt.Errorf("runtime: %s: assert/retract to self — use the local form", j.FQName)
		}
		return m, nil
	}
}

// boundProp is a local proposition resolved as far as compile time can take
// it: the table key and, when the junction declares it, its cell. A nil cell
// sends the access through the table by name, which reports the undeclared
// name.
type boundProp struct {
	name string
	cell *kv.PropCell
}

func (j *Junction) bindProp(name string) boundProp {
	return boundProp{name: name, cell: j.table.PropCell(name)}
}

// read is the proposition's truth value; Unknown when it is not declared.
func (p boundProp) read(t *kv.Table) formula.Truth {
	if p.cell != nil {
		return formula.FromBool(p.cell.Get())
	}
	v, err := t.Prop(p.name)
	if err != nil {
		return formula.Unknown
	}
	return formula.FromBool(v)
}

// compilePropRef lowers a PropRef to a resolver; everything but idx-variable
// indices resolves at compile time.
func (j *Junction) compilePropRef(pr dsl.PropRef) func() (boundProp, error) {
	constant := func(name string) func() (boundProp, error) {
		p := j.bindProp(name)
		return func() (boundProp, error) { return p, nil }
	}
	if pr.Index == "" {
		return constant(j.resolveSelfName(pr.Base))
	}
	if !pr.IndexIsVar {
		return constant(dsl.IndexedName(pr.Base, j.resolveSelfName(pr.Index)))
	}
	byElem := j.idxProps(pr.Base, pr.Index)
	base, idx := pr.Base, pr.Index
	return func() (boundProp, error) {
		elem, err := j.Idx(idx)
		if err != nil {
			return boundProp{}, err
		}
		if p, ok := byElem[elem]; ok {
			return p, nil
		}
		return boundProp{name: dsl.IndexedName(base, elem)}, nil
	}
}

// idxProps precomputes element→"base[element]" over an idx's universe, key
// and cell, so per-evaluation resolution is one map lookup instead of a
// concatenation and a table lookup.
func (j *Junction) idxProps(base, idx string) map[string]boundProp {
	byElem := map[string]boundProp{}
	if universe, ok := j.pj.Info.IdxUniverse(idx); ok {
		for _, e := range universe {
			re := j.resolveSelfName(e)
			byElem[re] = j.bindProp(dsl.IndexedName(base, re))
		}
	}
	return byElem
}

// compileWait lowers a wait statement. The admission set is bound once and
// shared when the formula reads no idx variables; the subscription, bound once
// too, covers the formula's read-set and the waited data keys, so a local-only
// wait blocks without polling. Idx bindings are captured at wait entry
// (substituteIdx).
func (j *Junction) compileWait(n dsl.Wait) step {
	wp := plan.CompileWait(j.pj.Info, n)
	condText := n.Cond.String()
	var eval func() formula.Truth
	var admit *kv.Keys
	if wp.Static {
		eval = j.compileFormula(n.Cond)
		admit = wp.WS.Bind(j.table)
	}
	watch := j.table.Bind(wp.Reads.Props, wp.Reads.Data)
	return func(ctx context.Context) (signal, error) {
		ws := admit
		ev := eval
		if !wp.Static {
			cond := j.substituteIdx(n.Cond)
			ws = kv.NewWaitSet(cond, n.Data).Bind(j.table)
			ev = func() formula.Truth { return cond.Eval(j.env()) }
		}
		handle := j.table.BeginWaitKeys(ws)
		defer j.table.EndWait(handle)
		sub := j.table.SubscribeKeys(watch)
		defer j.table.Unsubscribe(sub)
		armed := j.noteWaitArmed(condText)
		for {
			if ev() == formula.True {
				j.noteWaitAdmitted(condText, armed)
				return sigNone, nil
			}
			if wp.Reads.Remote {
				select {
				case <-ctx.Done():
					j.noteWaitTimeout(condText)
					return sigNone, fmt.Errorf("%w: wait %s", ErrTimeout, n.Cond)
				case <-sub.Ch():
				case <-time.After(j.sys.opts.Poll):
				}
			} else {
				select {
				case <-ctx.Done():
					j.noteWaitTimeout(condText)
					return sigNone, fmt.Errorf("%w: wait %s", ErrTimeout, n.Cond)
				case <-sub.Ch():
				}
			}
		}
	}
}

// substituteIdx rewrites $idx-indexed propositions in a formula to their
// concrete names using the junction's current idx values, so the wait set
// admits the right keys. Unresolvable indices are left as-is (they evaluate
// to Unknown).
func (j *Junction) substituteIdx(f formula.Formula) formula.Formula {
	switch n := f.(type) {
	case formula.Prop:
		if n.Junction != "" {
			return n
		}
		if base, idxVar, ok := dsl.SplitIdxProp(n.Name); ok {
			if elem, err := j.Idx(idxVar); err == nil {
				return formula.P(dsl.IndexedName(base, elem))
			}
			return n
		}
		return formula.P(j.resolveSelfName(n.Name))
	case formula.FalseF:
		return n
	case formula.NotF:
		return formula.NotF{F: j.substituteIdx(n.F)}
	case formula.AndF:
		return formula.AndF{L: j.substituteIdx(n.L), R: j.substituteIdx(n.R)}
	case formula.OrF:
		return formula.OrF{L: j.substituteIdx(n.L), R: j.substituteIdx(n.R)}
	case formula.ImpliesF:
		return formula.ImpliesF{L: j.substituteIdx(n.L), R: j.substituteIdx(n.R)}
	default:
		return f
	}
}

// compileFormula lowers a formula to a closure evaluator with all static
// name and endpoint resolution hoisted out of the evaluation path. The
// evaluator returns exactly what Eval(j.env()) would.
func (j *Junction) compileFormula(f formula.Formula) func() formula.Truth {
	switch n := f.(type) {
	case formula.FalseF:
		return func() formula.Truth { return formula.False }
	case formula.Prop:
		return j.compileProp(n)
	case formula.NotF:
		sub := j.compileFormula(n.F)
		return func() formula.Truth { return sub().Not() }
	// The binary connectives stop at a left operand that decides them:
	// False ∧ x = False and True ∨ x = True for every x in Kleene's tables.
	case formula.AndF:
		l, r := j.compileFormula(n.L), j.compileFormula(n.R)
		return func() formula.Truth {
			if a := l(); a != formula.False {
				return a.And(r())
			}
			return formula.False
		}
	case formula.OrF:
		l, r := j.compileFormula(n.L), j.compileFormula(n.R)
		return func() formula.Truth {
			if a := l(); a != formula.True {
				return a.Or(r())
			}
			return formula.True
		}
	case formula.ImpliesF:
		l, r := j.compileFormula(n.L), j.compileFormula(n.R)
		return func() formula.Truth {
			if a := l().Not(); a != formula.True {
				return a.Or(r())
			}
			return formula.True
		}
	default:
		// A formula kind this compiler does not know: fall back to the
		// reference evaluator.
		return func() formula.Truth { return f.Eval(j.env()) }
	}
}

func (j *Junction) compileProp(p formula.Prop) func() formula.Truth {
	if p.Junction == "" {
		if base, idxVar, ok := dsl.SplitIdxProp(p.Name); ok {
			byElem := j.idxProps(base, idxVar)
			return func() formula.Truth {
				elem, err := j.Idx(idxVar)
				if err != nil {
					return formula.Unknown
				}
				bp, ok := byElem[elem]
				if !ok {
					bp.name = dsl.IndexedName(base, elem)
				}
				return bp.read(j.table)
			}
		}
		bp := j.bindProp(j.resolveSelfName(p.Name))
		return func() formula.Truth { return bp.read(j.table) }
	}
	// Junction-qualified proposition: the endpoint is static.
	unknown := func() formula.Truth { return formula.Unknown }
	fq, err := j.elemToFQ(j.resolveSelfName(p.Junction))
	if err != nil {
		return unknown
	}
	inst, jn, ok := strings.Cut(fq, "::")
	if !ok {
		return unknown
	}
	isRunning := p.Name == RunningProp
	var resolveName func() (string, bool)
	if base, idxVar, idxed := dsl.SplitIdxProp(p.Name); idxed {
		// Only the precomputed keys are used: the cells belong to the other
		// junction, and which incarnation of it answers can change between
		// evaluations (migration), so that read stays by name.
		byElem := j.idxProps(base, idxVar)
		resolveName = func() (string, bool) {
			elem, err := j.Idx(idxVar)
			if err != nil {
				return "", false
			}
			if p, ok := byElem[elem]; ok {
				return p.name, true
			}
			return dsl.IndexedName(base, elem), true
		}
	} else {
		name := j.resolveSelfName(p.Name)
		resolveName = func() (string, bool) { return name, true }
	}
	return func() formula.Truth {
		other := j.sys.junctionQuiet(inst, jn)
		if other == nil || !other.inst.running.Load() {
			if isRunning {
				return formula.False
			}
			return formula.Unknown
		}
		if isRunning {
			return formula.True
		}
		name, ok := resolveName()
		if !ok {
			return formula.Unknown
		}
		v, err := other.table.Prop(name)
		if err != nil {
			return formula.Unknown
		}
		return formula.FromBool(v)
	}
}

// --- case ---------------------------------------------------------------------

// compiledArm is one lowered F ⇒ E; T arm.
type compiledArm struct {
	cond func() formula.Truth
	body []step
	term dsl.Terminator
}

// compiledCase is a case expression over pre-lowered arms; arm subranges
// ("next" restarts matching below an arm) are expressed as a base offset.
type compiledCase struct {
	j         *Junction
	arms      []compiledArm
	otherwise []step
}

func (j *Junction) compileCase(c dsl.Case) *compiledCase {
	cc := &compiledCase{j: j, otherwise: j.compileBody(c.Otherwise)}
	for _, a := range c.Arms {
		cc.arms = append(cc.arms, compiledArm{
			cond: j.compileFormula(a.Cond),
			body: j.compileBody(a.Body),
			term: a.Term,
		})
	}
	return cc
}

// run interprets the case over the arm subrange starting at base.
//
// The first arm whose guard is definitely true runs; with no match the
// otherwise branch runs. Terminators: break leaves the case; next retries
// matching only after the arm that succeeded (function N of §8.3);
// reconsider re-evaluates from the top and only proceeds when a different
// match is made — otherwise the expression fails (paper §6). Reconsider
// rounds are bounded by plan.ReconsiderLimit as a termination backstop.
func (cc *compiledCase) run(ctx context.Context, base int) (signal, error) {
	j := cc.j
	arms := cc.arms[base:]
	start := 0
	for round := 0; ; round++ {
		if round > plan.ReconsiderLimit {
			return sigNone, fmt.Errorf("runtime: %s: case exceeded %d reconsider/next rounds", j.FQName, plan.ReconsiderLimit)
		}
		match := -1
		for i := start; i < len(arms); i++ {
			if arms[i].cond() == formula.True {
				match = i
				break
			}
		}
		var body []step
		var term dsl.Terminator
		if match >= 0 {
			body = arms[match].body
			term = arms[match].term
		} else {
			body = cc.otherwise
			term = dsl.TermBreak
			match = len(arms)
		}
		sig, err := runSteps(ctx, body)
		if err != nil {
			return sigNone, err
		}
		switch sig {
		case sigNone:
			switch term {
			case dsl.TermBreak:
				return sigNone, nil
			case dsl.TermNext:
				start = match + 1
				if start >= len(arms) {
					return cc.otherwiseTail(ctx)
				}
				continue
			case dsl.TermReconsider:
				return cc.reconsider(ctx, base, match)
			}
		case sigBreak:
			return sigNone, nil
		case sigNext:
			start = match + 1
			if start >= len(arms) {
				return cc.otherwiseTail(ctx)
			}
			continue
		case sigReconsider:
			return cc.reconsider(ctx, base, match)
		default:
			return sig, nil
		}
	}
}

// otherwiseTail runs the otherwise branch after next exhausted the arms;
// only return/retry propagate.
func (cc *compiledCase) otherwiseTail(ctx context.Context) (signal, error) {
	sig, err := runSteps(ctx, cc.otherwise)
	if sig == sigReturn || sig == sigRetry {
		return sig, err
	}
	return sigNone, err
}

// reconsider re-evaluates the case from the top of the arm subrange starting
// at base (currentArm is relative to base). If a different arm, or the
// otherwise branch, now matches, it runs; matching the same arm again fails
// the expression (paper §6).
func (cc *compiledCase) reconsider(ctx context.Context, base, currentArm int) (signal, error) {
	arms := cc.arms[base:]
	match := len(arms)
	for i := 0; i < len(arms); i++ {
		if arms[i].cond() == formula.True {
			match = i
			break
		}
	}
	if match == currentArm {
		return sigNone, fmt.Errorf("%w: arm %d still matches", ErrReconsiderFailed, currentArm)
	}
	var body []step
	var term dsl.Terminator
	if match < len(arms) {
		body = arms[match].body
		term = arms[match].term
	} else {
		body = cc.otherwise
		term = dsl.TermBreak
	}
	sig, err := runSteps(ctx, body)
	if err != nil {
		return sigNone, err
	}
	next := func() (signal, error) {
		// A next after reconsider restarts matching below the new arm; with
		// no arms left the otherwise branch runs with its signal propagated
		// unfiltered (mirroring Junction.reconsider).
		newBase := base + match + 1
		if newBase >= len(cc.arms) {
			return runSteps(ctx, cc.otherwise)
		}
		return cc.run(ctx, newBase)
	}
	switch sig {
	case sigNone:
		switch term {
		case dsl.TermBreak:
			return sigNone, nil
		case dsl.TermNext:
			return next()
		case dsl.TermReconsider:
			return cc.reconsider(ctx, base, match)
		}
	case sigBreak:
		return sigNone, nil
	case sigReconsider:
		return cc.reconsider(ctx, base, match)
	case sigNext:
		return next()
	default:
		return sig, nil
	}
	return sigNone, nil
}
