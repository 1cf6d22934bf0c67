package check

import (
	"fmt"
	"slices"
	"strings"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

// waitInfo is a blocked wait: the substituted formula and its admission sets
// of prop and data slots, which condStr and the wait op determine.
type waitInfo struct {
	cond           formula.Formula
	condStr        string
	admitP, admitD words
}

// thread is one strand of execution inside a scheduling: the root thread runs
// the junction body; Par branches spawn child threads joined by slot. Its
// control state is plan's frame machine; what it is blocked on and the tree
// it sits in are the checker's.
type thread struct {
	id       int
	gen      uint64 // the generation of the state that owns it (state.own)
	j        *junc
	m        plan.FrameMachine[words]
	wait     *waitInfo
	waiting  int
	children []plan.Outcome // by slot; an arm still running has none yet
	parent   int            // -1 for the scheduling root
	slot     int
	retries  int
}

func (t *thread) clone() *thread {
	cp := *t
	cp.m.Frames = append([]plan.Frame[words](nil), t.m.Frames...)
	cp.children = append([]plan.Outcome(nil), t.children...)
	return &cp
}

func (t *thread) runnable() bool { return t.wait == nil && t.waiting == 0 }

// ---- the action classifier (peek) ---------------------------------------

// havoc is one resolution of a host block's nondeterministic writes.
type havoc struct {
	label  string
	writes []havocWrite
}

// havocWrite is one write of a havoc: a prop slot's value, a data slot
// defined, an idx's element number, or a subset's one member (-1: every
// member).
type havocWrite struct {
	kind  uint8 // 0 prop, 1 data, 2 idx, 3 subset, 255 unchanged
	slot  int
	val   bool
	idx   *idxSlot
	sub   *subSlot
	elem  int
	label string
}

// act classifies a thread's next action for partial-order reduction. An
// invisible action commutes with every action of every other thread and
// affects no property, so it is fused into its predecessor without a
// scheduling point.
type act struct {
	visible bool
	havocs  []havoc
}

func (j *junc) hasShared() bool {
	return len(j.observable.exact) > 0 || len(j.observable.prefixes) > 0 ||
		len(j.incomingP) > 0 || len(j.incomingD) > 0
}

// keyVisibleWrite reports whether a local write to key at j is observable by
// anything outside the writing thread.
func keyVisibleWrite(j *junc, key string, multi bool) bool {
	if j.observable.has(key) || j.incomingP[key] {
		return true
	}
	return multi && (j.bodyReadP[key] || j.raceKeys.has(key))
}

// formulaVisible reports whether evaluating f at j can race with any other
// enabled action: qualified reads always can (the target's state is shared);
// unqualified reads race with sibling-branch writes and with wait-admitted
// incoming updates.
func (c *checker) formulaVisible(st *state, j *junc, f formula.Formula, multi bool) bool {
	for _, pr := range formula.Props(f) {
		if pr.Junction != "" {
			return true
		}
		if strings.HasPrefix(pr.Name, "@") {
			continue
		}
		key, ok := c.localKey(st, j, pr.Name)
		if !ok {
			return true // idx undef: be conservative
		}
		if j.incomingP[key] {
			return true
		}
		if multi && (j.bodyWriteP[key] || j.raceKeys.has(key)) {
			return true
		}
	}
	return false
}

// peek classifies the next action of a runnable thread without executing it.
func (c *checker) peek(st *state, t *thread) act {
	multi := st.threadsOf(t.j) >= 2
	switch a, o, out := t.m.Next(); a {
	case plan.ActDeliver:
		// An error crossing a transaction frame rolls the table back — a bulk
		// local write.
		return act{visible: out.Err != "" && (multi || t.j.hasShared()) &&
			slices.ContainsFunc(t.m.Frames, func(f plan.Frame[words]) bool { return f.Kind == plan.FrameTxn })}
	case plan.ActMatch:
		// Matching evaluates arm formulas.
		for _, arm := range o.Case.Arms {
			if c.formulaVisible(st, t.j, arm.Cond, multi) {
				return act{visible: true}
			}
		}
		return act{}
	default:
		return c.classifyStmt(st, t, o, multi)
	}
}

func (c *checker) classifyStmt(st *state, t *thread, o *plan.Op, multi bool) act {
	j := t.j
	switch o.Kind {
	case plan.OpSkip, plan.OpSignal, plan.OpSeq, plan.OpScope, plan.OpCase, plan.OpOtherwise:
		// Pure control flow (the otherwise frame push included: its deadline
		// only acts through timeout transitions of blocked waits).
		return act{}
	case plan.OpTxn:
		// The snapshot races with sibling writes.
		return act{visible: multi}
	case plan.OpIf, plan.OpVerify:
		return act{visible: c.formulaVisible(st, j, o.Cond, multi)}
	case plan.OpWait, plan.OpWrite, plan.OpStart, plan.OpStop:
		return act{visible: true}
	case plan.OpPar:
		return act{visible: len(o.Arms) >= 2}
	case plan.OpHost:
		return act{visible: true, havocs: c.havocsFor(st, j, o.Stmt.(dsl.Host).Writes)}
	case plan.OpRestore:
		n := o.Stmt.(dsl.Restore)
		if n.Into != nil {
			return act{visible: true, havocs: c.havocsFor(st, j, n.Writes)}
		}
		return act{visible: multi || j.incomingD[n.Data]}
	case plan.OpSave:
		return act{visible: multi || j.incomingD[o.Stmt.(dsl.Save).Data]}
	case plan.OpKeep:
		n := o.Stmt.(dsl.Keep)
		for _, p := range n.Props {
			if j.incomingP[j.info.ResolveName(p)] {
				return act{visible: true}
			}
		}
		for _, d := range n.Data {
			if j.incomingD[d] {
				return act{visible: true}
			}
		}
		return act{}
	case plan.OpIdxAssign:
		// Sibling [$idx] resolutions read the cursor.
		return act{visible: multi}
	case plan.OpProp:
		if !o.To.IsLocal() {
			return act{visible: true} // remote send
		}
		key, err := c.updateKey(st, j, o)
		if err != nil {
			return act{} // the action is an error delivery
		}
		return act{visible: keyVisibleWrite(j, key, multi)}
	default:
		c.unsup[fmt.Sprintf("statement %T treated as visible", o.Stmt)] = true
		return act{visible: true}
	}
}

// havocsFor enumerates the write combinations of a host block over its
// declared write-set: propositions take {unchanged, tt, ff}, data
// {unchanged, defined}, idx {unchanged} ∪ valid elements, subsets
// {unchanged, full parent, singletons}. Capped at maxHavoc with the
// all-unchanged combination always first.
func (c *checker) havocsFor(st *state, j *junc, writes []string) []havoc {
	ji := j.info
	perName := make([][]havocWrite, 0, len(writes))
	for _, w := range writes {
		name := ji.ResolveName(w)
		opts := []havocWrite{{kind: 255}} // unchanged
		if s, ok := ji.PropSlot(name); ok {
			opts = append(opts, havocWrite{kind: 0, slot: s, val: true, label: name + "=true"},
				havocWrite{kind: 0, slot: s, val: false, label: name + "=false"})
		} else if s, ok := ji.DataSlot(name); ok {
			opts = append(opts, havocWrite{kind: 1, slot: s, label: name + "=def"})
		} else if x := j.idx[name]; x != nil {
			c.idxUniverseNow(st, x, func(e int) {
				opts = append(opts, havocWrite{kind: 2, idx: x, elem: e, label: name + ":=" + x.universe[e-1]})
			})
		} else if sb := j.sub[name]; sb != nil {
			if sb.known {
				opts = append(opts, havocWrite{kind: 3, sub: sb, elem: -1, label: name + "={" + strings.Join(sb.members, " ") + "}"})
			}
			for k, e := range sb.members {
				opts = append(opts, havocWrite{kind: 3, sub: sb, elem: k, label: name + "={" + e + "}"})
			}
		} else {
			c.unsup[fmt.Sprintf("%s: host write-set name %q not resolvable, treated as no-op", j.fq, w)] = true
		}
		perName = append(perName, opts)
	}

	var out []havoc
	var build func(i int, cur []havocWrite, parts []string)
	build = func(i int, cur []havocWrite, parts []string) {
		if len(out) >= maxHavoc {
			return
		}
		if i == len(perName) {
			label := "noop"
			if len(parts) > 0 {
				label = strings.Join(parts, ",")
			}
			out = append(out, havoc{label: label, writes: append([]havocWrite(nil), cur...)})
			return
		}
		for _, o := range perName[i] {
			if o.kind == 255 {
				build(i+1, cur, parts)
			} else {
				build(i+1, append(cur, o), append(parts, o.label))
			}
		}
	}
	build(0, nil, nil)
	total := 1
	for _, opts := range perName {
		total *= len(opts)
	}
	if total > maxHavoc {
		c.unsup[fmt.Sprintf("%s: host havoc truncated to %d of %d combinations", j.fq, maxHavoc, total)] = true
	}
	return out
}

// idxUniverseNow mirrors Junction.SetIdx's validation universe, calling each
// with the element number of every element: the current subset membership,
// in sorted element order, when the idx ranges over a subset (an undef subset
// has none, and ok is false), the static set elements in declaration order
// otherwise.
func (c *checker) idxUniverseNow(st *state, x *idxSlot, each func(e int)) (ok bool) {
	if sb := x.over; sb != nil {
		if !st.tab.has(sb.def) {
			return false
		}
		for k, m := range sb.members {
			if st.tab.has(sb.mem + k) {
				each(x.num[m])
			}
		}
		return true
	}
	for e := range x.universe {
		each(e + 1)
	}
	return x.known
}

// ---- action execution ----------------------------------------------------

const fuseCap = 4096

// execOne performs exactly one action of a runnable thread, a step of its
// frame machine; hv resolves a host havoc when the action is
// nondeterministic.
func (c *checker) execOne(st *state, t *thread, hv *havoc) {
	c.rd.st, c.rd.j = st, t.j // what c.fx acts on
	switch o, out, ended := t.m.Step(&c.fx); {
	case ended:
		c.rootComplete(st, t, out)
	case o == nil:
	case o.Kind == plan.OpPar:
		c.spawnPar(st, t, o.Arms)
	default:
		c.execStmt(st, t, o, hv)
	}
}

// fuse runs t while its next action stays invisible (the partial-order
// reduction step): execution stops at the next visible action, block, or
// completion.
func (c *checker) fuse(st *state, tid int) {
	for n := 0; n < fuseCap; n++ {
		t := st.own(tid)
		if t == nil || !t.runnable() {
			return
		}
		a := c.peek(st, t)
		if a.visible || a.havocs != nil {
			return
		}
		c.execOne(st, t, nil)
	}
	c.unsup["fusion cap hit (runaway invisible loop?)"] = true
}

// newEffects acts on the state and junction c.rd is bound to. A transaction
// snapshots the junction's prop and data words (never written after, so
// clones share it); a rollback restores the write-set plan hands it, as the
// runtime's kv.RestoreKeys does, so a key of a step never reached keeps what
// a sibling par arm may have committed to it.
func (c *checker) newEffects() plan.Effects[words] {
	return plan.Effects[words]{
		Holds: func(f formula.Formula) bool { return f.Eval(&c.rd) == formula.True },
		Snap: func() words {
			st, j := c.rd.st, c.rd.j
			n := j.np + j.nd
			snap := append(words(nil), st.tab[j.base>>6:(j.base+n+63)>>6]...)
			if n&63 != 0 {
				snap[len(snap)-1] &= 1<<(n&63) - 1 // the pending bits that share the last word
			}
			return snap
		},
		Restore: func(snap words, ws plan.WriteSet) {
			st, j := c.rd.st, c.rd.j
			for _, k := range ws.Props {
				if s, ok := j.info.PropSlot(k); ok {
					st.tab.set(j.base+s, snap.has(s))
				}
			}
			for _, k := range ws.Data {
				if s, ok := j.info.DataSlot(k); ok {
					st.tab.set(j.data(s), snap.has(j.np+s))
				}
			}
		},
	}
}

// rootComplete handles a thread that ended with out: par children post it to
// the parent's join slot, and the last one posts the join; scheduling roots
// retry, fail (driver-error semantics: effects persist, the thread dies), or
// fire.
func (c *checker) rootComplete(st *state, t *thread, out plan.Outcome) {
	if t.parent >= 0 {
		p := st.own(t.parent) // waits for t, so never ends first
		st.removeThread(t.id)
		p.children[t.slot] = out
		if p.waiting--; p.waiting == 0 {
			p.m.Out = plan.Join(p.children)
			p.children = nil
		}
		return
	}
	j, err := t.j, out.Err
	if err == "" && out.Sig == plan.SigRetry {
		if t.retries+1 < j.info.Def.RetryLimit {
			t.retries++
			t.m.Frames = []plan.Frame[words]{{Body: j.info.Body.Ops}}
			return
		}
		err = "retry limit exhausted"
	}
	if err == "" {
		j.fired = true
	} else if j.bodyErr == "" {
		j.bodyErr = err
	}
	st.removeThread(t.id)
}

// below is thread t and the threads of the par arms under it, in id order
// (an arm's id is above its parent's), and whether a wait blocks one of them.
func (st *state) below(t *thread) (ids []int, blocked bool) {
	for _, u := range st.threads {
		if u == t || u.parent >= 0 && slices.Contains(ids, u.parent) {
			ids = append(ids, u.id)
			blocked = blocked || u.wait != nil
		}
	}
	return ids, blocked
}

// expire expires the otherwise[t] deadline of frame k of thread tid, within
// one transition as at run time: every wait blocked below it fails at once,
// the arms of a par under it fail at their next statement, and the failures
// that reach the frame run its handler.
func (c *checker) expire(st *state, tid, k int) {
	t := st.own(tid)
	t.m.Frames[k].Expired = true
	ids, _ := st.below(t)
	c.rd.st, c.rd.j = st, t.j
	for _, id := range ids {
		u := st.own(id)
		u.m.Expired = u.m.Expired || u != t
		if u.wait != nil {
			u.wait = nil
			if out, ended := u.m.Deliver(plan.Outcome{Err: plan.ErrDeadline}, &c.fx); ended {
				c.rootComplete(st, u, out)
			}
		}
	}
	for _, id := range ids {
		c.fuse(st, id)
	}
}

// ---- statement execution -------------------------------------------------

// execStmt mirrors the runtime's compiled op for one leaf statement. A
// failure is posted for the thread's next action to deliver.
func (c *checker) execStmt(st *state, t *thread, o *plan.Op, hv *havoc) {
	j := t.j
	fail := func(format string, args ...any) {
		t.m.Out = plan.Outcome{Err: fmt.Sprintf(format, args...)}
	}
	switch o.Kind {
	case plan.OpVerify:
		switch c.eval(st, j, o.Cond) {
		case formula.True:
		case formula.False:
			fail("verify failed: %s", o.Cond)
		default:
			fail("verify needs state of a junction that is not running: %s", o.Cond)
		}

	case plan.OpWait:
		w := c.waits[o]
		if w == nil {
			// The runtime resolves the formula's idx families at wait entry.
			cond := plan.SubstIdx(o.Cond, j.info.ResolveName, func(v string) string { return c.idxElem(st, j, v) })
			w = &waitInfo{cond: cond, condStr: cond.String(), admitP: make(words, (j.np+63)/64), admitD: make(words, (j.nd+63)/64)}
			admit := plan.Admits(cond, o.Stmt.(dsl.Wait).Data)
			for _, p := range admit.Props {
				if s, ok := j.info.PropSlot(p); ok {
					w.admitP.set(s, true)
				}
			}
			for _, d := range admit.Data {
				if s, ok := j.info.DataSlot(d); ok {
					w.admitD.set(s, true)
				}
			}
			if o.Wait.Static {
				c.waits[o] = w // nothing in it depends on the state
			}
		}
		// BeginWait drains queued admitted updates before the first eval.
		for s := 0; s < j.np; s++ {
			if w.admitP.has(s) && st.tab.has(j.pendP+s) {
				setPropLocal(st, j, s, st.tab.has(j.pendV+s))
			}
		}
		for s := 0; s < j.nd; s++ {
			if w.admitD.has(s) && st.tab.has(j.pendD+s) {
				setDataLocal(st, j, s)
			}
		}
		if c.eval(st, j, w.cond) != formula.True {
			t.wait = w
		}

	case plan.OpProp:
		c.propUpdate(st, t, o)

	case plan.OpWrite:
		if s, ok := j.info.DataSlot(o.Data); !ok || !st.tab.has(j.data(s)) {
			fail("write %s: data is undef", o.Data)
			return
		}
		to, err := c.updateDest(st, j, o)
		if err != nil {
			fail("write %s: %v", o.Data, err)
			return
		}
		if to == j.fq {
			fail("write %s: self-targeted", o.Data)
			return
		}
		tj := c.byFQ[to]
		if tj == nil || !st.running(tj.inst) {
			fail("write %s: %s is not running", o.Data, to)
			return
		}
		if s, ok := tj.info.DataSlot(o.Data); ok {
			enqueueData(st, tj, s)
		}

	case plan.OpSave:
		if s, ok := j.info.DataSlot(o.Stmt.(dsl.Save).Data); ok {
			setDataLocal(st, j, s)
		}
	case plan.OpRestore:
		n := o.Stmt.(dsl.Restore)
		if s, ok := j.info.DataSlot(n.Data); !ok || !st.tab.has(j.data(s)) {
			fail("restore %s: data is undef", n.Data)
			return
		}
		if n.Into != nil && hv != nil {
			applyHavoc(st, j, hv)
		}
	case plan.OpHost:
		if hv != nil {
			applyHavoc(st, j, hv)
		}
	case plan.OpKeep:
		n := o.Stmt.(dsl.Keep)
		for _, p := range n.Props {
			if s, ok := j.info.PropSlot(j.info.ResolveName(p)); ok {
				st.tab.set(j.pendP+s, false)
				st.tab.set(j.pendV+s, false)
			}
		}
		for _, d := range n.Data {
			if s, ok := j.info.DataSlot(d); ok {
				st.tab.set(j.pendD+s, false)
			}
		}

	case plan.OpStart:
		n := o.Stmt.(dsl.Start)
		if st.running(c.insts[n.Instance]) {
			fail("start %s: instance already started", n.Instance)
			return
		}
		c.startInstance(st, c.insts[n.Instance])
	case plan.OpStop:
		n := o.Stmt.(dsl.Stop)
		if !st.running(c.insts[n.Instance]) {
			fail("stop %s: instance not running", n.Instance)
			return
		}
		st.tab.set(2*c.insts[n.Instance], false)

	case plan.OpIdxAssign:
		n := o.Stmt.(dsl.IdxAssign)
		elem := j.info.ResolveName(n.Elem)
		if err := c.setIdx(st, j, n.Idx, elem); err != nil {
			fail("%s := %s: %v", n.Idx, elem, err)
		}

	default:
		c.unsup[fmt.Sprintf("statement %T executed as skip", o.Stmt)] = true
	}
}

// setIdx mirrors Junction.SetIdx: membership validates against the current
// subset membership when the idx ranges over a subset (error when undef),
// against the static set otherwise.
func (c *checker) setIdx(st *state, j *junc, idx, elem string) error {
	x := j.idx[idx]
	member := false
	if x == nil || !c.idxUniverseNow(st, x, func(e int) { member = member || x.universe[e-1] == elem }) {
		return fmt.Errorf("idx %q has no resolvable universe", idx)
	}
	if !member {
		return fmt.Errorf("%q is not a member", elem)
	}
	st.tab.put(x.off, x.width, x.num[elem])
	return nil
}

// propUpdate mirrors the runtime's assert/retract: locally-declared keys
// update the local table first (even for remote targets); remote targets then
// receive the update through the pending queue or a blocked wait's admission.
func (c *checker) propUpdate(st *state, t *thread, o *plan.Op) {
	j, target, val := t.j, o.To, o.Value
	fail := func(err string) { t.m.Out = plan.Outcome{Err: err} }
	name, err := c.updateKey(st, j, o)
	if err != nil {
		fail(err.Error())
		return
	}
	if s, declared := j.info.PropSlot(name); declared {
		setPropLocal(st, j, s, val)
	} else if target.IsLocal() {
		fail(fmt.Sprintf("local proposition %q not declared", name))
		return
	}
	if target.IsLocal() {
		return
	}
	to, rerr := c.updateDest(st, j, o)
	if rerr != nil {
		fail(rerr.Error())
		return
	}
	if to == j.fq {
		fail(fmt.Sprintf("self-targeted update of %q", name))
		return
	}
	tj := c.byFQ[to]
	if tj == nil || !st.running(tj.inst) {
		fail(fmt.Sprintf("update %q: %s is not running", name, to))
		return
	}
	if s, ok := tj.info.PropSlot(name); ok {
		enqueueProp(st, tj, s, val)
	}
}

// spawnPar runs the two or more arms of a par as written (plan.Op.Arms) as
// child threads: a nested par is a child that spawns its own.
func (c *checker) spawnPar(st *state, t *thread, arms []*plan.Op) {
	t.waiting = len(arms)
	t.children = make([]plan.Outcome, len(arms))
	for i := range arms {
		st.spawn(t.j, t.id, i, arms[i:i+1])
	}
}

func applyHavoc(st *state, j *junc, hv *havoc) {
	for _, w := range hv.writes {
		switch w.kind {
		case 0:
			setPropLocal(st, j, w.slot, w.val)
		case 1:
			setDataLocal(st, j, w.slot)
		case 2:
			st.tab.put(w.idx.off, w.idx.width, w.elem)
		case 3:
			st.tab.set(w.sub.def, len(w.sub.members) > 0)
			for k := range w.sub.members {
				st.tab.set(w.sub.mem+k, w.elem < 0 || w.elem == k)
			}
		}
	}
}
