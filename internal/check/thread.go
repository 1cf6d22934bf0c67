package check

import (
	"fmt"
	"strings"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

type frameKind uint8

const (
	// fBody executes a statement sequence.
	fBody frameKind = iota
	// fScope marks a fate scope: a return delivered through it becomes none.
	fScope
	// fTxn holds the entry snapshot; an error delivered through it rolls the
	// table back.
	fTxn
	// fOtherwise catches the first error from its try (or a timeout) and runs
	// the handler.
	fOtherwise
	// fCase runs the case terminator machine (plan.CaseMachine).
	fCase
	// fCaseTail is the otherwise-after-next tail: only return/retry propagate.
	fCaseTail
)

// frame is one activation record over lowered ops (plan.Compile). Bodies are
// identified structurally (the creating statement's position plus a role),
// so frames never need stable slice identity.
type frame struct {
	kind frameKind
	role string
	body []*plan.Op
	pc   int

	// fTxn: the transaction and the entry snapshot of the junction's prop
	// and data words (never written after the snapshot, so clones share it).
	txn  *plan.Op
	snap words

	// fOtherwise
	handler   *plan.Op
	deadline  bool
	inHandler bool

	// fCase
	cs *plan.Case
	cm plan.CaseMachine
}

// waitInfo is a blocked wait: the substituted formula and its admission sets
// of prop and data slots, which condStr and the wait op determine.
type waitInfo struct {
	cond           formula.Formula
	condStr        string
	admitP, admitD words
}

type childRes struct {
	sig  plan.Signal
	err  string
	done bool
}

// thread is one strand of execution inside a scheduling: the root thread runs
// the junction body; Par branches spawn child threads joined by slot.
type thread struct {
	id       int
	gen      uint64 // the generation of the state that owns it (state.own)
	j        *junc
	frames   []frame
	hasPend  bool
	pendSig  plan.Signal
	pendErr  string
	wait     *waitInfo
	waiting  int
	children []childRes
	parent   int // -1 for the scheduling root
	slot     int
	retries  int
}

func (t *thread) clone() *thread {
	cp := *t
	cp.frames = append([]frame(nil), t.frames...)
	cp.children = append([]childRes(nil), t.children...)
	return &cp
}

func (t *thread) runnable() bool { return t.wait == nil && t.waiting == 0 }

// top is the innermost frame, valid until the next push.
func (t *thread) top() *frame {
	if len(t.frames) == 0 {
		return nil
	}
	return &t.frames[len(t.frames)-1]
}

func (t *thread) push(f frame) { t.frames = append(t.frames, f) }
func (t *thread) pop()         { t.frames = t.frames[:len(t.frames)-1] }
func (t *thread) setPend(s plan.Signal, err string) {
	t.hasPend, t.pendSig, t.pendErr = true, s, err
}

func pushBody(t *thread, role string, body []*plan.Op) {
	t.push(frame{kind: fBody, role: role, body: body})
}

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

func hasTxnFrame(t *thread) bool {
	for _, f := range t.frames {
		if f.kind == fTxn {
			return true
		}
	}
	return false
}

// peek classifies the next action of a runnable thread without executing it.
func (c *checker) peek(st *state, t *thread) act {
	multi := st.threadsOf(t.j) >= 2
	if t.hasPend {
		// Signal/error delivery. An error crossing a transaction frame rolls
		// the table back — a bulk local write.
		if t.pendErr != "" && hasTxnFrame(t) {
			return act{visible: multi || t.j.hasShared()}
		}
		return act{}
	}
	f := t.top()
	if f == nil {
		return act{}
	}
	switch f.kind {
	case fCase:
		if f.cm.Phase != plan.CaseRunning {
			// Matching evaluates arm formulas.
			for _, arm := range f.cs.Arms {
				if c.formulaVisible(st, t.j, arm.Cond, multi) {
					return act{visible: true}
				}
			}
		}
		return act{}
	case fBody:
		if f.pc >= len(f.body) {
			return act{} // end-of-body pop
		}
		return c.classifyStmt(st, t, f.body[f.pc], multi)
	default:
		return act{}
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
// {unchanged, full parent, singletons}. Capped at Options.MaxHavoc with the
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
		if len(out) >= c.opts.MaxHavoc {
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
	if total > c.opts.MaxHavoc {
		c.unsup[fmt.Sprintf("%s: host havoc truncated to %d of %d combinations", j.fq, c.opts.MaxHavoc, total)] = true
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

// execOne performs exactly one action of a runnable thread; hv resolves a
// host havoc when the action is nondeterministic.
func (c *checker) execOne(st *state, t *thread, hv *havoc) {
	if t.hasPend {
		c.processDelivery(st, t)
		return
	}
	f := t.top()
	if f == nil {
		// A thread with no frames and no pending signal completed; deliver
		// completion (defensive — processDelivery removes such threads).
		t.setPend(plan.SigNone, "")
		c.processDelivery(st, t)
		return
	}
	switch f.kind {
	case fCase:
		c.caseMatch(st, t, f)
		return
	case fBody:
		if f.pc >= len(f.body) {
			t.pop()
			t.setPend(plan.SigNone, "")
			c.processDelivery(st, t)
			return
		}
		o := f.body[f.pc]
		f.pc++
		c.execStmt(st, t, o, hv)
		return
	default:
		// Non-body frames only act on delivery; reaching here is a bug kept
		// non-fatal: deliver none through them.
		t.pop()
		t.setPend(plan.SigNone, "")
		c.processDelivery(st, t)
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

// processDelivery propagates a pending (signal, error) through the frame
// stack until a frame absorbs it or the scheduling root completes. This is
// the single place the runtime's unwinding semantics (scope return
// absorption, transaction rollback, otherwise handling, case terminators)
// are modeled.
func (c *checker) processDelivery(st *state, t *thread) {
	sig, errS := t.pendSig, t.pendErr
	t.hasPend = false
	at := 0 // the statement that stopped the body popped last
	for {
		if len(t.frames) == 0 {
			c.rootComplete(st, t, sig, errS)
			return
		}
		f := t.top()
		switch f.kind {
		case fBody:
			if errS != "" || sig != plan.SigNone {
				at = f.pc - 1
				t.pop() // abort the rest of the sequence
				continue
			}
			return // landed: the body continues at its pc
		case fScope:
			t.pop()
			if sig == plan.SigReturn {
				sig = plan.SigNone
			}
			continue
		case fTxn:
			if errS != "" {
				// Roll the applied table back; pending updates queued during
				// the transaction survive (the kv snapshot excludes the queue).
				rollback(st, t.j, f, at)
				sig = plan.SigNone
			} else if sig == plan.SigReturn {
				sig = plan.SigNone
			}
			t.pop()
			continue
		case fOtherwise:
			if errS != "" && !f.inHandler {
				f.inHandler = true
				errS = ""
				sig = plan.SigNone
				pushBody(t, "handler", []*plan.Op{f.handler})
				return // landed in the handler
			}
			t.pop()
			continue
		case fCaseTail:
			t.pop()
			if errS == "" {
				sig = plan.TailSignal(sig)
			}
			continue
		case fCase:
			if errS != "" {
				t.pop()
				continue
			}
			cs := f.cs
			next, out := f.cm.Done(cs, sig)
			switch next {
			case plan.CaseMatch:
				return // landed: the case matches next
			case plan.CaseTail:
				t.pop()
				t.push(frame{kind: fCaseTail, role: "tail"})
				pushBody(t, "ow", cs.Otherwise.Ops)
				return
			}
			t.pop()
			sig = out
			continue
		}
	}
}

// rollback restores what the failed transaction of frame f can have written
// by the time its body stopped at statement at: the write-set of the steps it
// had started (plan.Op.Wrote), as the runtime restores it (kv.RestoreKeys).
// A key of a step never reached keeps what a sibling par arm may have
// committed to it.
func rollback(st *state, j *junc, f *frame, at int) {
	restore := func(s int) { st.tab.set(j.base+s, f.snap.has(s)) }
	w := f.txn.Wrote[f.txn.Body.StepAt(at)]
	for _, k := range w.Props {
		if s, ok := j.info.PropSlot(k); ok {
			restore(s)
		}
	}
	for _, k := range w.Data {
		if s, ok := j.info.DataSlot(k); ok {
			restore(j.np + s)
		}
	}
}

// rootComplete handles a thread finishing its last frame: par children post
// their result to the parent's join slot; scheduling roots retry, fail
// (driver-error semantics: effects persist, the thread dies), or fire.
func (c *checker) rootComplete(st *state, t *thread, sig plan.Signal, errS string) {
	if t.parent >= 0 {
		p := st.own(t.parent)
		st.removeThread(t.id)
		if p == nil {
			return
		}
		p.children[t.slot] = childRes{sig: sig, err: errS, done: true}
		p.waiting--
		if p.waiting > 0 {
			return
		}
		// Join: first error in branch order wins, else the first non-none
		// signal in branch order (mirrors the runtime's compilePar).
		for _, cr := range p.children {
			if cr.err != "" {
				p.children = nil
				p.setPend(plan.SigNone, cr.err)
				return
			}
		}
		joined := plan.SigNone
		for _, cr := range p.children {
			if cr.sig != plan.SigNone {
				joined = cr.sig
				break
			}
		}
		p.children = nil
		p.setPend(joined, "")
		return
	}
	j := t.j
	if errS != "" {
		if j.bodyErr == "" {
			j.bodyErr = errS
		}
		st.removeThread(t.id)
		return
	}
	if sig == plan.SigRetry {
		if t.retries+1 >= j.info.Def.RetryLimit {
			if j.bodyErr == "" {
				j.bodyErr = "retry limit exhausted"
			}
			st.removeThread(t.id)
			return
		}
		t.retries++
		t.frames = []frame{{kind: fBody, role: "body", body: j.info.Body.Ops}}
		return
	}
	j.fired = true
	st.removeThread(t.id)
}

// caseMatch performs one matching step of a case frame's terminator machine;
// a case that fails there delivers the error past its frame, as in the
// runtime.
func (c *checker) caseMatch(st *state, t *thread, f *frame) {
	arm, err := f.cm.Match(f.cs, func(i int) bool {
		return c.eval(st, t.j, f.cs.Arms[i].Cond) == formula.True
	})
	if err != nil {
		t.pop()
		t.setPend(plan.SigNone, err.Error())
		c.processDelivery(st, t)
		return
	}
	pushBody(t, "arm", f.cs.Body(arm).Ops)
}

// ---- statement execution -------------------------------------------------

// execStmt mirrors the runtime's compiled op for one statement. Signals and
// errors are posted as a pending delivery processed by the thread's next
// action.
func (c *checker) execStmt(st *state, t *thread, o *plan.Op, hv *havoc) {
	j := t.j
	fail := func(format string, args ...any) {
		t.setPend(plan.SigNone, fmt.Sprintf(format, args...))
	}
	switch o.Kind {
	case plan.OpSkip:
	case plan.OpSignal:
		t.setPend(o.Sig, "")

	case plan.OpSeq:
		pushBody(t, "seq", o.Body.Ops)
	case plan.OpScope:
		t.push(frame{kind: fScope, role: "scope"})
		pushBody(t, "scopebody", o.Body.Ops)
	case plan.OpTxn:
		n := j.np + j.nd
		snap := append(words(nil), st.tab[j.base>>6:(j.base+n+63)>>6]...)
		if n&63 != 0 {
			snap[len(snap)-1] &= 1<<(n&63) - 1 // the pending bits that share the last word
		}
		t.push(frame{kind: fTxn, role: "txn", txn: o, snap: snap})
		pushBody(t, "txnbody", o.Body.Ops)
	case plan.OpOtherwise:
		t.push(frame{kind: fOtherwise, role: "ow", handler: o.Handler, deadline: o.Timeout > 0})
		pushBody(t, "try", []*plan.Op{o.Try})
	case plan.OpCase:
		t.push(frame{kind: fCase, role: "case", cs: o.Case, cm: plan.NewCaseMachine()})

	case plan.OpIf:
		if c.eval(st, j, o.Cond) == formula.True {
			pushBody(t, "then", []*plan.Op{o.Then})
		} else if o.Else != nil {
			pushBody(t, "else", []*plan.Op{o.Else})
		}
	case plan.OpVerify:
		switch c.eval(st, j, o.Cond) {
		case formula.True:
		case formula.False:
			fail("verify failed: %s", o.Cond)
		default:
			fail("verify needs state of a junction that is not running: %s", o.Cond)
		}

	case plan.OpPar:
		c.spawnPar(st, t, o.Arms)

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
	name, err := c.updateKey(st, j, o)
	if err != nil {
		t.setPend(plan.SigNone, err.Error())
		return
	}
	if s, declared := j.info.PropSlot(name); declared {
		setPropLocal(st, j, s, val)
	} else if target.IsLocal() {
		t.setPend(plan.SigNone, fmt.Sprintf("local proposition %q not declared", name))
		return
	}
	if target.IsLocal() {
		return
	}
	to, rerr := c.updateDest(st, j, o)
	if rerr != nil {
		t.setPend(plan.SigNone, rerr.Error())
		return
	}
	if to == j.fq {
		t.setPend(plan.SigNone, fmt.Sprintf("self-targeted update of %q", name))
		return
	}
	tj := c.byFQ[to]
	if tj == nil || !st.running(tj.inst) {
		t.setPend(plan.SigNone, fmt.Sprintf("update %q: %s is not running", name, to))
		return
	}
	if s, ok := tj.info.PropSlot(name); ok {
		enqueueProp(st, tj, s, val)
	}
}

// spawnPar runs a par's arms as written (plan.Op.Arms): a nested par is a
// child that spawns its own.
func (c *checker) spawnPar(st *state, t *thread, arms []*plan.Op) {
	switch len(arms) {
	case 0:
		return
	case 1:
		pushBody(t, "branch", arms)
		return
	}
	t.waiting = len(arms)
	t.children = make([]childRes, len(arms))
	for i := range arms {
		st.threads = append(st.threads, &thread{
			id:     st.nextTid,
			gen:    st.gen,
			j:      t.j,
			parent: t.id,
			slot:   i,
			frames: []frame{{kind: fBody, role: "branch", body: arms[i : i+1]}},
		})
		st.nextTid++
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

// unwindToHandler models a deadline expiring under a blocked wait: frames
// above the otherwise frame unwind (transactions roll back), and the handler
// runs — equivalent to the wait returning ErrTimeout and the error
// propagating to the deadline's otherwise.
func (c *checker) unwindToHandler(st *state, t *thread, frameIdx int) {
	t.wait = nil
	at := 0 // the statement that stopped the body popped last
	for len(t.frames) > frameIdx+1 {
		switch f := t.top(); f.kind {
		case fBody:
			at = f.pc - 1
		case fTxn:
			rollback(st, t.j, f, at)
		}
		t.pop()
	}
	f := t.top()
	f.inHandler = true
	pushBody(t, "handler", []*plan.Op{f.handler})
}
