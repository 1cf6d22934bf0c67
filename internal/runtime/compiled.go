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

// step is one lowered plan step — a statement, or a straight-line run of
// remote updates — with all name/target resolution that does not depend on
// runtime idx state hoisted to compile time.
type step func(ctx context.Context) (plan.Signal, error)

// compiledJunction is a junction's lowered guard and body.
type compiledJunction struct {
	guard     func() formula.Truth // nil when unguarded
	guardRS   *plan.ReadSet        // nil when unguarded
	guardKeys *kv.Keys             // guardRS's local keys, bound: what a guard watcher subscribes to
	body      []step
}

func (j *Junction) compile(pj *plan.Junction) *compiledJunction {
	c := &compiledJunction{body: j.compileBlock(pj.Body)}
	if j.def.Guard != nil {
		c.guard = j.compileFormula(j.def.Guard)
		c.guardRS = pj.Guard
		c.guardKeys = j.table.Bind(pj.Guard.Props, nil)
	}
	return c
}

// runSteps executes a step sequence: the first failure or non-none signal
// stops the sequence, and an expired deadline surfaces as ErrTimeout.
func runSteps(ctx context.Context, steps []step) (plan.Signal, error) {
	_, sig, err := runStepsAt(ctx, steps)
	return sig, err
}

// runStepsAt is runSteps that also reports the index of the step that ended
// the sequence (len(steps) when it ran to the end).
func runStepsAt(ctx context.Context, steps []step) (int, plan.Signal, error) {
	for i, st := range steps {
		if err := ctx.Err(); err != nil {
			return i, plan.SigNone, fmt.Errorf("%w: %w", ErrTimeout, err)
		}
		sig, err := st(ctx)
		if err != nil || sig != plan.SigNone {
			return i, sig, err
		}
	}
	return len(steps), plan.SigNone, nil
}

// compileBlock lowers a statement list — a junction body, a scope, a
// transaction, a case arm — to one closure per plan step. A straight-line run
// of remote updates becomes one updateStep, which sends consecutive members
// with the same destination as one group. What makes a group legal for a
// sequence, which unlike a par has a failure order, is in updateStep (the
// sender's fate), the group message (delivered whole or not at all, and
// split by a proxy only into consecutive sub-groups in order: a receiver sees
// a prefix) and plan.Compile (adjacency, and no early remote visibility).
func (j *Junction) compileBlock(b *plan.Block) []step {
	steps := make([]step, len(b.Steps))
	for i, s := range b.Steps {
		if len(s) == 1 {
			steps[i] = j.compileOp(s[0])
			continue
		}
		arms := make([]updateArm, len(s))
		for k, o := range s {
			arms[k] = j.updateArm(o)
		}
		steps[i] = j.updateStep(arms...)
	}
	return steps
}

func (j *Junction) compileOp(o *plan.Op) step {
	switch o.Kind {
	case plan.OpSkip:
		return func(context.Context) (plan.Signal, error) { return plan.SigNone, nil }
	case plan.OpSignal:
		sig := o.Sig
		return func(context.Context) (plan.Signal, error) { return sig, nil }

	case plan.OpSeq:
		steps := j.compileBlock(o.Body)
		return func(ctx context.Context) (plan.Signal, error) { return runSteps(ctx, steps) }

	case plan.OpPar:
		return j.compilePar(o.Flat)

	case plan.OpScope:
		steps := j.compileBlock(o.Body)
		return func(ctx context.Context) (plan.Signal, error) {
			sig, err := runSteps(ctx, steps)
			if sig == plan.SigReturn {
				sig = plan.SigNone
			}
			return sig, err
		}

	case plan.OpTxn:
		steps := j.compileBlock(o.Body)
		wrote := o.Wrote
		snap := j.table.Snapshot
		if n := len(wrote); n > 0 && !wrote[n-1].Full {
			props, data := wrote[n-1].Props, wrote[n-1].Data
			snap = func() kv.Snapshot { return j.table.SnapshotKeys(props, data) }
		}
		return func(ctx context.Context) (plan.Signal, error) {
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
				return plan.SigNone, err
			}
			j.noteTxn(obsv.EvTxnCommit)
			if sig == plan.SigReturn {
				sig = plan.SigNone
			}
			return sig, nil
		}

	case plan.OpOtherwise:
		try := j.compileOp(o.Try)
		handler := j.compileOp(o.Handler)
		timeout := o.Timeout
		var dl *deadline // this step's own, re-armed per firing until it ends (deadline.go)
		return func(ctx context.Context) (plan.Signal, error) {
			var sig plan.Signal
			var err error
			if timeout > 0 {
				if dl == nil {
					dl = newDeadline()
				}
				dl.arm(ctx, timeout)
				sig, err = try(dl)
				if !dl.disarm() {
					dl = nil
				}
			} else {
				sig, err = try(ctx)
			}
			if err == nil {
				return sig, nil
			}
			if ctx.Err() != nil {
				return plan.SigNone, err
			}
			return handler(ctx)
		}

	case plan.OpHost:
		n := o.Stmt.(dsl.Host)
		hc := j.newHostCtx(n.Writes)
		return func(context.Context) (plan.Signal, error) {
			if err := n.Fn(hc); err != nil {
				return plan.SigNone, fmt.Errorf("host %s: %w", n.Label, err)
			}
			return plan.SigNone, nil
		}

	case plan.OpSave:
		n := o.Stmt.(dsl.Save)
		hc := j.newHostCtx([]string{n.Data})
		return func(context.Context) (plan.Signal, error) {
			payload, err := n.From(hc)
			if err != nil {
				return plan.SigNone, fmt.Errorf("save %s: %w", n.Data, err)
			}
			return plan.SigNone, hc.Save(n.Data, payload)
		}

	case plan.OpRestore:
		n := o.Stmt.(dsl.Restore)
		hc := j.newHostCtx(n.Writes)
		cell := j.table.DataCell(n.Data)
		return func(context.Context) (plan.Signal, error) {
			var payload []byte
			var err error
			if cell != nil {
				payload, err = cell.Get()
			} else {
				payload, err = j.table.Data(n.Data)
			}
			if err != nil {
				return plan.SigNone, fmt.Errorf("restore %s: %w", n.Data, err)
			}
			if n.Into == nil {
				return plan.SigNone, nil
			}
			if err := n.Into(hc, payload); err != nil {
				return plan.SigNone, fmt.Errorf("restore %s: %w", n.Data, err)
			}
			return plan.SigNone, nil
		}

	case plan.OpProp:
		if o.Remote {
			return j.updateStep(j.updateArm(o))
		}
		return j.compileLocalProp(o.Prop, o.Value)
	case plan.OpWrite:
		return j.updateStep(j.updateArm(o))

	case plan.OpWait:
		return j.compileWait(o)

	case plan.OpVerify:
		cond := o.Cond
		eval := j.compileFormula(cond)
		return func(context.Context) (plan.Signal, error) {
			switch eval() {
			case formula.True:
				return plan.SigNone, nil
			case formula.False:
				return plan.SigNone, fmt.Errorf("%w: %s", ErrVerifyFailed, cond)
			default:
				return plan.SigNone, fmt.Errorf("%w: %s", ErrVerifyUnknown, cond)
			}
		}

	case plan.OpKeep:
		n := o.Stmt.(dsl.Keep)
		props := make([]string, len(n.Props))
		for i, p := range n.Props {
			props[i] = j.pj.ResolveName(p)
		}
		return func(context.Context) (plan.Signal, error) {
			j.table.Keep(props, n.Data)
			return plan.SigNone, nil
		}

	case plan.OpIf:
		eval := j.compileFormula(o.Cond)
		then := j.compileOp(o.Then)
		var els step
		if o.Else != nil {
			els = j.compileOp(o.Else)
		}
		return func(ctx context.Context) (plan.Signal, error) {
			if eval() == formula.True {
				return then(ctx)
			}
			if els != nil {
				return els(ctx)
			}
			return plan.SigNone, nil
		}

	case plan.OpCase:
		return j.compileCase(o.Case)

	case plan.OpStart:
		n := o.Stmt.(dsl.Start)
		return func(context.Context) (plan.Signal, error) {
			return plan.SigNone, j.sys.StartInstance(n.Instance, n.Args)
		}
	case plan.OpStop:
		n := o.Stmt.(dsl.Stop)
		return func(context.Context) (plan.Signal, error) { return plan.SigNone, j.sys.StopInstance(n.Instance) }

	case plan.OpIdxAssign:
		n := o.Stmt.(dsl.IdxAssign)
		return func(context.Context) (plan.Signal, error) { return plan.SigNone, j.SetIdx(n.Idx, n.Elem) }

	default:
		e := o.Stmt
		return func(context.Context) (plan.Signal, error) {
			return plan.SigNone, fmt.Errorf("runtime: %s: unhandled expression %T", j.FQName, e)
		}
	}
}

// compilePar lowers parallel composition over the arms its barrier joins
// (plan.Op.Flat): all arms run, every failure is awaited, the first failure
// (by arm order) wins, then the first non-none signal propagates.
//
// An arm that completes at a delivery ack may be sent whenever the schedule
// likes, and sending the remote update arms in arm order is one legal
// interleaving of §6's par. The compiler picks that one: those arms get no
// goroutine of their own and become one step that applies their local halves
// in arm order, groups them by destination (first use first) and hands each
// group to sendGroup — one sequence range, one delivery group and one ack
// wait per destination, with seq order = arm order = wire order. Every other
// arm still runs on its own goroutine beside it.
func (j *Junction) compilePar(arms []*plan.Op) step {
	if len(arms) == 0 {
		return func(context.Context) (plan.Signal, error) { return plan.SigNone, nil }
	}
	if len(arms) == 1 {
		return j.compileOp(arms[0])
	}
	// idx is an arm's position among the par's arms.
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
	for i, a := range arms {
		if a.Remote {
			updates = append(updates, updateBranch{i, j.updateArm(a)})
		} else {
			others = append(others, otherBranch{i, j.compileOp(a)})
		}
	}
	// destGroup is the updates one firing sends to one destination; a failed
	// send fails all of them alike, so the first arm's position stands for
	// the group when errors are ranked by arm order.
	type destGroup struct {
		to    string
		first int
		ups   []remoteUpdate
	}
	n := len(arms) // the closure keeps no op alive
	return func(ctx context.Context) (plan.Signal, error) {
		sigs := make([]plan.Signal, n)
		errs := make([]error, n)
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
				return plan.SigNone, err
			}
		}
		for _, s := range sigs {
			if s != plan.SigNone {
				return s, nil
			}
		}
		return plan.SigNone, nil
	}
}

// compileTarget lowers a communication target. Static references resolve at
// compile time; idx references get a precomputed element→endpoint map over
// the idx's universe, which holds every element SetIdx admits.
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
		// An element that names no junction keeps its resolution error.
		type endpoint struct {
			fq  string
			err error
		}
		byElem := map[string]endpoint{}
		universe, _ := j.pj.IdxUniverse(ref.Idx)
		for _, e := range universe {
			fq, err := j.elemToFQ(e)
			byElem[j.pj.ResolveName(e)] = endpoint{fq, err}
		}
		idx := ref.Idx
		return func() (string, error) {
			elem, err := j.Idx(idx)
			if err != nil {
				return "", err
			}
			ep := byElem[elem]
			return ep.fq, ep.err
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

// updateArm lowers the sender half of a remote update op (plan.Op.Remote).
func (j *Junction) updateArm(o *plan.Op) updateArm {
	if o.Kind == plan.OpWrite {
		return j.compileWrite(o.Data, o.To)
	}
	return j.compileRemoteProp(o.To, o.Prop, o.Value)
}

// updateStep lowers a straight-line run of remote updates — one statement, or
// the adjacent ones of one plan step — to one step. The arms run in
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
	return func(ctx context.Context) (plan.Signal, error) {
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
					return plan.SigNone, serr
				}
				j.noteLocalHalves(ran[first : first+len(ups)])
				ups = ups[:0]
				if cerr := ctx.Err(); cerr != nil && !last {
					// The deadline passed between two groups, where it would
					// have stopped the sequence before statement k began.
					j.table.UndoProp(m.undo)
					return plan.SigNone, fmt.Errorf("%w: %w", ErrTimeout, cerr)
				}
			}
			if err != nil {
				j.noteLocalHalves(ran[k:])
			}
			if last || err != nil {
				return plan.SigNone, err
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

func (j *Junction) compileWrite(data string, target dsl.JunctionRef) updateArm {
	resolveTo := j.compileTarget(target)
	cell := j.table.DataCell(data)
	return func() (armedUpdate, error) {
		// The table's internal slice is safe here: sendGroup copies the
		// payload into the framed message body before handing it off.
		var payload []byte
		var err error
		if cell != nil {
			payload, err = cell.Ref()
		} else {
			payload, err = j.table.DataRef(data)
		}
		if err != nil {
			return armedUpdate{}, fmt.Errorf("write %s: %w", data, err)
		}
		to, err := resolveTo()
		if err != nil {
			return armedUpdate{}, err
		}
		if to == j.FQName {
			return armedUpdate{}, fmt.Errorf("runtime: %s: write to self", j.FQName)
		}
		return armedUpdate{to: to, up: remoteUpdate{kind: compart.KindData, key: data, payload: payload}}, nil
	}
}

// compileLocalProp lowers an assert/retract of a local proposition. A remote
// one (compileRemoteProp) updates the local table first ("this line updates
// the KV table of f and g", paper §4), then pushes the update to its target;
// a communication failure fails the statement after the local effect (use a
// transaction block to undo).
func (j *Junction) compileLocalProp(pr dsl.PropRef, value bool) step {
	resolve := j.compilePropRef(pr)
	return func(context.Context) (plan.Signal, error) {
		p, err := resolve()
		if err != nil {
			return plan.SigNone, err
		}
		if p.cell == nil {
			return plan.SigNone, fmt.Errorf("runtime: %s: local proposition %q not declared", j.FQName, p.name)
		}
		p.cell.Set(value)
		if j.traced {
			j.noteLocalWrite(p.name, wrote(value))
		}
		return plan.SigNone, nil
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
		// The local half, when the sender declares the proposition too: p's
		// cell was bound when the arm compiled, and a nil one means undeclared
		// for good (boundProp), so the arm never goes through the table by name.
		m := armedUpdate{up: remoteUpdate{kind: compart.KindProp, key: p.name, flag: value}, local: p.cell != nil}
		if m.local {
			m.undo = p.cell.Swap(value)
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
// means the name is not declared, now or ever: a junction's table gains its
// declarations in newJunction, before the junction compiles, and none after
// (a migrated junction's RestoreAll restores the names its source declared
// from the same definition, so it finds every cell already there).
type boundProp struct {
	name string
	cell *kv.PropCell
}

func (j *Junction) bindProp(name string) boundProp {
	return boundProp{name: name, cell: j.table.PropCell(name)}
}

// read is the proposition's truth value; Unknown when it is not declared.
func (p boundProp) read() formula.Truth {
	if p.cell == nil {
		return formula.Unknown
	}
	return formula.FromBool(p.cell.Get())
}

// compilePropRef lowers a PropRef to a resolver; everything but idx-variable
// indices resolves at compile time.
func (j *Junction) compilePropRef(pr dsl.PropRef) func() (boundProp, error) {
	if !pr.IndexIsVar {
		keys, _ := j.pj.PropKeys(pr)
		p := j.bindProp(keys[0])
		return func() (boundProp, error) { return p, nil }
	}
	byElem := j.idxProps(pr.Base, pr.Index)
	idx := pr.Index
	return func() (boundProp, error) {
		elem, err := j.Idx(idx)
		if err != nil {
			return boundProp{}, err
		}
		return byElem[elem], nil
	}
}

// idxProps precomputes element→"base[element]" over an idx's universe, key
// and cell, so per-evaluation resolution is one map lookup instead of a
// concatenation and a table lookup. The keys are the plan's (Family), the
// ones a transaction's write-set names. The map holds every element SetIdx
// admits, so an evaluation never misses it.
func (j *Junction) idxProps(base, idx string) map[string]boundProp {
	elems, keys, _ := j.pj.Family(base, idx)
	byElem := make(map[string]boundProp, len(elems))
	for i, e := range elems {
		byElem[e] = j.bindProp(keys[i])
	}
	return byElem
}

// compileWait lowers a wait op. The admission set is bound once and
// shared when the formula reads no idx variables; the subscription, bound once
// too, covers the formula's read-set and the waited data keys, so a local-only
// wait blocks without polling. Idx bindings are captured at wait entry
// (plan.SubstIdx).
func (j *Junction) compileWait(o *plan.Op) step {
	n := o.Stmt.(dsl.Wait)
	wp := *o.Wait
	condText := n.Cond.String()
	var eval func() formula.Truth
	var admit *kv.Keys
	if wp.Static {
		eval = j.compileFormula(n.Cond)
		admit = wp.WS.Bind(j.table)
	}
	watch := j.table.Bind(wp.Reads.Props, wp.Reads.Data)
	return func(ctx context.Context) (plan.Signal, error) {
		ws := admit
		ev := eval
		if !wp.Static {
			cond := plan.SubstIdx(n.Cond, j.pj.ResolveName, j.idxElem)
			ws = kv.NewWaitSet(cond, n.Data).Bind(j.table)
			ev = j.compileFormula(cond)
		}
		handle := j.table.BeginWaitKeys(ws)
		defer j.table.EndWait(handle)
		sub := j.table.SubscribeKeys(watch)
		defer j.table.Unsubscribe(sub)
		armed := j.noteWaitArmed(condText)
		for {
			if ev() == formula.True {
				j.noteWaitAdmitted(condText, armed)
				return plan.SigNone, nil
			}
			if wp.Reads.Remote {
				select {
				case <-ctx.Done():
					j.noteWaitTimeout(condText)
					return plan.SigNone, fmt.Errorf("%w: wait %s", ErrTimeout, n.Cond)
				case <-sub.Ch():
				case <-time.After(j.sys.opts.Poll):
				}
			} else {
				select {
				case <-ctx.Done():
					j.noteWaitTimeout(condText)
					return plan.SigNone, fmt.Errorf("%w: wait %s", ErrTimeout, n.Cond)
				case <-sub.Ch():
				}
			}
		}
	}
}

// idxElem is idx v's current element, "" when it is undef.
func (j *Junction) idxElem(v string) string {
	elem, _ := j.Idx(v)
	return elem
}

// compileFormula lowers a formula to a closure evaluator with all static
// name and endpoint resolution hoisted out of the evaluation path. It is the
// runtime's one formula evaluator: guards, waits and verify, if and case
// conditions all run through it.
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
	}
	// formula.Formula is sealed by its unexported walk: there is no other kind.
	panic(fmt.Sprintf("runtime: %s: formula kind %T", j.FQName, f))
}

// compileProp lowers one proposition read. An unqualified one reads the
// junction's own table through a cell bound here, taking no lock. A qualified
// one reads the other junction's table only while that junction runs at this
// junction's location: placed at another location, its propositions read
// Unknown and its @running False, as they would on two machines.
func (j *Junction) compileProp(p formula.Prop) func() formula.Truth {
	if p.Junction == "" {
		if base, idxVar, ok := dsl.SplitIdxProp(p.Name); ok {
			byElem := j.idxProps(base, idxVar)
			return func() formula.Truth {
				elem, err := j.Idx(idxVar)
				if err != nil {
					return formula.Unknown
				}
				return byElem[elem].read()
			}
		}
		bp := j.bindProp(j.pj.ResolveName(p.Name))
		return func() formula.Truth { return bp.read() }
	}
	// Junction-qualified proposition: the endpoint is static.
	fq, err := j.elemToFQ(p.Junction)
	if err != nil {
		return func() formula.Truth { return formula.Unknown }
	}
	inst, jn, _ := strings.Cut(fq, "::")
	isRunning := p.Name == RunningProp
	var resolveName func() (string, bool)
	if base, idxVar, idxed := dsl.SplitIdxProp(p.Name); idxed {
		// Only the precomputed keys are used: the cells belong to the other
		// junction, and which incarnation of it answers can change between
		// evaluations (migration), so that read stays by name.
		byElem := j.idxProps(base, idxVar)
		resolveName = func() (string, bool) {
			elem, err := j.Idx(idxVar)
			return byElem[elem].name, err == nil
		}
	} else {
		name := j.pj.ResolveName(p.Name)
		resolveName = func() (string, bool) { return name, true }
	}
	return func() formula.Truth {
		other := j.sys.junctionQuiet(inst, jn)
		if other == nil || !other.inst.running.Load() || !j.sys.deploy.colocated(j.inst.Name, inst) {
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

// compiledCase is a case expression over pre-lowered arm guards and bodies;
// plan.CaseMachine decides which body runs and what its signal does.
type compiledCase struct {
	j      *Junction
	c      *plan.Case
	conds  []func() formula.Truth
	bodies [][]step // arm i's body; the otherwise at len(c.Arms)
}

func (j *Junction) compileCase(c *plan.Case) step {
	cc := &compiledCase{j: j, c: c, conds: make([]func() formula.Truth, len(c.Arms))}
	for i, a := range c.Arms {
		cc.conds[i] = j.compileFormula(a.Cond)
		cc.bodies = append(cc.bodies, j.compileBlock(a.Body))
	}
	cc.bodies = append(cc.bodies, j.compileBlock(c.Otherwise))
	return cc.run
}

func (cc *compiledCase) holds(arm int) bool { return cc.conds[arm]() == formula.True }

// run executes the case: the machine's match picks a body, the body runs,
// and the machine reads its signal, until the case exits or fails.
func (cc *compiledCase) run(ctx context.Context) (plan.Signal, error) {
	m := plan.NewCaseMachine()
	for {
		arm, err := m.Match(cc.c, cc.holds)
		if err != nil {
			return plan.SigNone, fmt.Errorf("runtime: %s: %w", cc.j.FQName, err)
		}
		sig, err := runSteps(ctx, cc.bodies[arm])
		if err != nil {
			return plan.SigNone, err
		}
		switch next, out := m.Done(cc.c, sig); next {
		case plan.CaseExit:
			return out, nil
		case plan.CaseTail:
			sig, err := runSteps(ctx, cc.bodies[len(cc.c.Arms)])
			return plan.TailSignal(sig), err
		}
	}
}
