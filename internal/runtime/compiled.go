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
		var props, data []string // all the body can write: none when it has no steps
		if n := len(wrote); n > 0 {
			props, data = wrote[n-1].Props, wrote[n-1].Data
		}
		return func(ctx context.Context) (plan.Signal, error) {
			s := j.table.SnapshotKeys(props, data)
			j.noteTxn(obsv.EvTxnBegin)
			at, sig, err := runStepsAt(ctx, steps)
			if err != nil {
				j.table.RestoreKeys(s, wrote[at].Props, wrote[at].Data)
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
		cell := j.table.DataCell(n.Data) // declared: Compile rejects undeclared data
		return func(context.Context) (plan.Signal, error) {
			payload, err := cell.Get()
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
		return j.compileLocalProp(o)
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
	return j.newPar(arms).fire
}

// compiledPar is a lowered par with the scratch its firings work in. The
// scratch belongs to the step, not to a firing: a compiled step runs one
// firing at a time (DESIGN.md, "A compiled step owns its scratch"), and each
// firing clears what it used before it returns, so a firing allocates
// nothing and leaves no payload reachable.
type compiledPar struct {
	j       *Junction
	updates []updateBranch
	others  []otherBranch

	sigs   []plan.Signal // by arm position
	errs   []error       // by arm position
	m      armedUpdate   // the slot each update arm writes into, in turn
	groups []destGroup   // this firing's destinations; the slots past len keep their ups
	wg     sync.WaitGroup
}

// updateBranch and otherBranch are a par's arms; idx is the arm's position
// among the par's arms.
type updateBranch struct {
	idx int
	run updateArm
}

type otherBranch struct {
	idx int
	run step
}

// destGroup is the updates one firing sends to one destination; a failed
// send fails all of them alike, so the first arm's position stands for the
// group when errors are ranked by arm order.
type destGroup struct {
	to    string
	first int
	ups   []remoteUpdate
}

func (j *Junction) newPar(arms []*plan.Op) *compiledPar {
	n := len(arms) // the par keeps no op alive
	p := &compiledPar{j: j, sigs: make([]plan.Signal, n), errs: make([]error, n)}
	for i, a := range arms {
		if a.Remote {
			p.updates = append(p.updates, updateBranch{i, j.updateArm(a)})
		} else {
			p.others = append(p.others, otherBranch{i, j.compileOp(a)})
		}
	}
	if len(p.updates) > 0 {
		// Most pars update one destination: size the first group for all of
		// them. Any further group grows on its first firings and keeps what
		// it grew.
		p.groups = []destGroup{{ups: make([]remoteUpdate, 0, len(p.updates))}}[:0]
	}
	return p
}

func (p *compiledPar) fire(ctx context.Context) (plan.Signal, error) {
	j := p.j
	for i := range p.others {
		o := &p.others[i]
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.sigs[o.idx], p.errs[o.idx] = o.run(ctx)
		}()
	}
	m := &p.m
	for _, u := range p.updates {
		*m = armedUpdate{}
		err := u.run(m)
		if m.local && j.traced {
			j.noteLocalWrite(m.up.key, wrote(m.up.flag))
		}
		if err != nil {
			p.errs[u.idx] = err
			continue
		}
		g := p.group(m.to, u.idx)
		g.ups = append(g.ups, m.up)
	}
	// A par's group stands or falls as one statement: only the error counts.
	// The last group waits on this goroutine.
	if last := len(p.groups) - 1; last >= 0 {
		for i := range p.groups[:last] {
			g := &p.groups[i]
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				_, p.errs[g.first] = j.sys.sendGroup(ctx, j, g.to, g.ups)
			}()
		}
		g := &p.groups[last]
		_, p.errs[g.first] = j.sys.sendGroup(ctx, j, g.to, g.ups)
	}
	p.wg.Wait()
	sig, err := p.outcome()
	p.clear()
	return sig, err
}

// group is the open group for destination to, opened at arm first when the
// firing has none yet.
func (p *compiledPar) group(to string, first int) *destGroup {
	for i := range p.groups {
		if p.groups[i].to == to {
			return &p.groups[i]
		}
	}
	// Reslicing, unlike append, keeps the ups an earlier firing grew.
	if len(p.groups) == cap(p.groups) {
		p.groups = append(p.groups, destGroup{})
	} else {
		p.groups = p.groups[:len(p.groups)+1]
	}
	g := &p.groups[len(p.groups)-1]
	g.to, g.first = to, first
	return g
}

// outcome ranks a firing's results: the first failure by arm order, then the
// first non-none signal.
func (p *compiledPar) outcome() (plan.Signal, error) {
	for _, err := range p.errs {
		if err != nil {
			return plan.SigNone, err
		}
	}
	for _, s := range p.sigs {
		if s != plan.SigNone {
			return s, nil
		}
	}
	return plan.SigNone, nil
}

// clear readies the scratch for the next firing and drops every reference the
// firing put there: errors, signals, and the keys and payloads of its groups.
func (p *compiledPar) clear() {
	clear(p.sigs)
	clear(p.errs)
	p.m = armedUpdate{}
	for i := range p.groups {
		g := &p.groups[i]
		clear(g.ups)
		g.to, g.first, g.ups = "", 0, g.ups[:0]
	}
	p.groups = p.groups[:0]
}

// compileTarget lowers a remote update's destination (plan.Ref.Dest), which
// plan.Compile guarantees names a junction: a static one is a constant, an idx
// one an element→junction map over the idx's universe, which holds every
// element SetIdx admits.
func (j *Junction) compileTarget(o *plan.Op) func() (string, error) {
	if o.To.Idx == "" {
		fq := o.Ref.Dest[0]
		return func() (string, error) { return fq, nil }
	}
	universe, _ := j.pj.IdxUniverse(o.To.Idx)
	byElem := make(map[string]string, len(universe))
	for i, e := range universe {
		byElem[e] = o.Ref.Dest[i]
	}
	idx := o.To.Idx
	return func() (string, error) {
		elem, err := j.Idx(idx)
		if err != nil {
			return "", err
		}
		return byElem[elem], nil
	}
}

// armedUpdate is what running an updateArm writes: where to send what, and
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
// applies the statement's local effect and resolves what to send where,
// writing both into the zeroed slot its caller owns (a step's scratch, so an
// arm copies nothing out). The delivery itself is sendGroup's, for a
// straight-line run of arms (updateStep) or the update arms of a par
// (compilePar). When an arm fails after its local effect, the slot holds the
// effect's undo beside the error.
type updateArm func(*armedUpdate) error

// updateArm lowers the sender half of a remote update op (plan.Op.Remote).
func (j *Junction) updateArm(o *plan.Op) updateArm {
	if o.Kind == plan.OpWrite {
		return j.compileWrite(o)
	}
	return j.compileRemoteProp(o)
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
//
// The step owns its scratch, one slot per arm and the open group, and clears
// it when a firing ends (DESIGN.md, "A compiled step owns its scratch"): a
// pointer into a firing's own frame would escape through the indirect arm
// call, and cost an allocation per firing.
func (j *Junction) updateStep(arms ...updateArm) step { return j.newUpdateRun(arms).fire }

// updateRun is a lowered straight-line run of remote updates and its scratch.
type updateRun struct {
	j    *Junction
	arms []updateArm
	ran  []armedUpdate  // arm k's slot is ran[k]
	ups  []remoteUpdate // the open group; room for every arm
}

func (j *Junction) newUpdateRun(arms []updateArm) *updateRun {
	return &updateRun{j: j, arms: arms, ran: make([]armedUpdate, len(arms)), ups: make([]remoteUpdate, 0, len(arms))}
}

func (r *updateRun) fire(ctx context.Context) (plan.Signal, error) {
	err := r.run(ctx)
	clear(r.ran)
	clear(r.ups[:cap(r.ups)])
	return plan.SigNone, err
}

func (r *updateRun) run(ctx context.Context) error {
	j := r.j
	ups := r.ups[:0]   // the open group
	ran := r.ran[:0]   // the slots of the arms run so far
	to, first := "", 0 // the open group's destination and first member
	for k := 0; ; k++ {
		var m *armedUpdate
		var err error
		last := k == len(r.arms)
		if !last {
			m = &r.ran[k]
			err = r.arms[k](m)
			ran = r.ran[:k+1]
		}
		if len(ups) > 0 && (last || err != nil || m.to != to) {
			acked, serr := j.sys.sendGroup(ctx, j, to, ups)
			if serr != nil {
				for u := len(ran) - 1; u > first+acked; u-- {
					j.table.UndoProp(ran[u].undo)
				}
				j.noteLocalHalves(ran[first : first+acked+1])
				return serr
			}
			j.noteLocalHalves(ran[first : first+len(ups)])
			ups = ups[:0]
			if cerr := ctx.Err(); cerr != nil && !last {
				// The deadline passed between two groups, where it would
				// have stopped the sequence before statement k began.
				j.table.UndoProp(m.undo)
				return fmt.Errorf("%w: %w", ErrTimeout, cerr)
			}
		}
		if err != nil {
			j.noteLocalHalves(ran[k:])
		}
		if last || err != nil {
			return err
		}
		if len(ups) == 0 {
			to, first = m.to, k
		}
		ups = append(ups, m.up)
	}
}

// noteLocalHalves reports the local halves of arms whose fate is settled and
// left them standing: a traced run shows a local write when it can no longer
// be taken back (obsv.EvLocalWrite).
func (j *Junction) noteLocalHalves(ran []armedUpdate) {
	if !j.traced {
		return
	}
	for i := range ran {
		if m := &ran[i]; m.local {
			j.noteLocalWrite(m.up.key, wrote(m.up.flag))
		}
	}
}

func (j *Junction) compileWrite(o *plan.Op) updateArm {
	data := o.Data
	resolveTo := j.compileTarget(o)
	cell := j.table.DataCell(data) // declared: Compile rejects undeclared data
	return func(m *armedUpdate) error {
		// The table's internal slice is safe here: sendGroup copies the
		// payload into the framed message body before handing it off, and
		// the step clears its slots when the firing ends.
		payload, err := cell.Ref()
		if err != nil {
			return fmt.Errorf("write %s: %w", data, err)
		}
		to, err := resolveTo()
		if err != nil {
			return err
		}
		if to == j.FQName {
			return fmt.Errorf("runtime: %s: write to self", j.FQName)
		}
		m.to, m.up = to, remoteUpdate{kind: compart.KindData, key: data, payload: payload}
		return nil
	}
}

// compileLocalProp lowers an assert/retract of a local proposition. A remote
// one (compileRemoteProp) updates the local table first ("this line updates
// the KV table of f and g", paper §4), then pushes the update to its target;
// a communication failure fails the statement after the local effect (use a
// transaction block to undo).
func (j *Junction) compileLocalProp(o *plan.Op) step {
	resolve := j.compilePropRef(o)
	value := o.Value
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

func (j *Junction) compileRemoteProp(o *plan.Op) updateArm {
	resolve := j.compilePropRef(o)
	resolveTo := j.compileTarget(o)
	value := o.Value
	return func(m *armedUpdate) error {
		p, err := resolve()
		if err != nil {
			return err
		}
		// The local half, when the sender declares the proposition too: p's
		// cell was bound when the arm compiled, and a nil one means undeclared
		// for good (boundProp), so the arm never goes through the table by name.
		m.up = remoteUpdate{kind: compart.KindProp, key: p.name, flag: value}
		if m.local = p.cell != nil; m.local {
			m.undo = p.cell.Swap(value)
		}
		if m.to, err = resolveTo(); err != nil {
			return err
		}
		if m.to == j.FQName {
			return fmt.Errorf("runtime: %s: assert/retract to self — use the local form", j.FQName)
		}
		return nil
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

// compilePropRef lowers an assert's or retract's proposition (plan.Ref.Keys)
// to a resolver; everything but idx-variable indices resolves at compile time.
func (j *Junction) compilePropRef(o *plan.Op) func() (boundProp, error) {
	if !o.Prop.IndexIsVar {
		p := j.bindProp(o.Ref.Keys[0])
		return func() (boundProp, error) { return p, nil }
	}
	idx := o.Prop.Index
	byElem := j.idxProps(idx, o.Ref.Keys)
	return func() (boundProp, error) {
		elem, err := j.Idx(idx)
		if err != nil {
			return boundProp{}, err
		}
		return byElem[elem], nil
	}
}

// idxProps maps each element of an idx's universe to its key of a family,
// keys in universe order (plan's, the ones a transaction's write-set names),
// and its cell, so per-evaluation resolution is one map lookup instead of a
// concatenation and a table lookup. The map holds every element SetIdx
// admits, so an evaluation never misses it.
func (j *Junction) idxProps(idx string, keys []string) map[string]boundProp {
	universe, _ := j.pj.IdxUniverse(idx)
	byElem := make(map[string]boundProp, len(keys))
	for i, k := range keys {
		byElem[universe[i]] = j.bindProp(k)
	}
	return byElem
}

// compileWait lowers a wait op. What the wait admits is plan's
// (plan.Admits): bound once when the formula reads no idx variables, taken at
// wait entry otherwise, over the formula with its idx bindings captured
// (plan.SubstIdx). The subscription, bound once, covers the formula's
// read-set and the waited data keys, so a local-only wait blocks without
// polling.
func (j *Junction) compileWait(o *plan.Op) step {
	n := o.Stmt.(dsl.Wait)
	wp := *o.Wait
	condText := n.Cond.String()
	var eval func() formula.Truth
	var admit *kv.Keys
	if wp.Static {
		eval = j.compileFormula(n.Cond)
		admit = j.table.Bind(wp.Admit.Props, wp.Admit.Data)
	}
	watch := j.table.Bind(wp.Reads.Props, wp.Reads.Data)
	return func(ctx context.Context) (plan.Signal, error) {
		ks := admit
		ev := eval
		if !wp.Static {
			cond := plan.SubstIdx(n.Cond, j.pj.ResolveName, j.idxElem)
			ad := plan.Admits(cond, n.Data)
			ks = j.table.Bind(ad.Props, ad.Data)
			ev = j.compileFormula(cond)
		}
		handle := j.table.BeginWait(ks)
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
			keys, _ := j.pj.Family(base, idxVar)
			byElem := j.idxProps(idxVar, keys)
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
	// Junction-qualified proposition: the endpoint is static, and a junction
	// of the program (plan.Compile rejects a qualifier that names none).
	inst, jn, _ := strings.Cut(j.pj.Qualifier(p.Junction), "::")
	isRunning := p.Name == dsl.RunningProp
	var resolveName func() (string, bool)
	if base, idxVar, idxed := dsl.SplitIdxProp(p.Name); idxed {
		// Only the precomputed keys are used: the cells belong to the other
		// junction, and which incarnation of it answers can change between
		// evaluations (migration), so that read stays by name.
		keys, _ := j.pj.Family(base, idxVar)
		byElem := j.idxProps(idxVar, keys)
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
