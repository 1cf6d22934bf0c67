package check

import (
	"fmt"
	"sort"
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

	// fTxn: the transaction and the entry snapshot of the junction's own
	// applied table.
	txn   *plan.Op
	snapP map[string]bool
	snapD map[string]bool

	// fOtherwise
	handler   *plan.Op
	deadline  bool
	inHandler bool

	// fCase
	cs *plan.Case
	cm plan.CaseMachine
}

func (f *frame) clone() *frame {
	cp := *f
	return &cp
}

// waitInfo is a blocked wait: the substituted formula and its admission sets.
type waitInfo struct {
	cond    formula.Formula
	condStr string
	admitP  map[string]bool
	admitD  map[string]bool
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
	fq       string
	frames   []*frame
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
	cp.frames = make([]*frame, len(t.frames))
	for i, f := range t.frames {
		cp.frames[i] = f.clone()
	}
	cp.children = append([]childRes(nil), t.children...)
	return &cp
}

func (t *thread) runnable() bool { return t.wait == nil && t.waiting == 0 }

func (t *thread) top() *frame {
	if len(t.frames) == 0 {
		return nil
	}
	return t.frames[len(t.frames)-1]
}

func (t *thread) push(f *frame) { t.frames = append(t.frames, f) }
func (t *thread) pop()          { t.frames = t.frames[:len(t.frames)-1] }
func (t *thread) setPend(s plan.Signal, err string) {
	t.hasPend, t.pendSig, t.pendErr = true, s, err
}

func pushBody(t *thread, role string, body []*plan.Op) {
	t.push(&frame{kind: fBody, role: role, body: body})
}

// ---- the action classifier (peek) ---------------------------------------

// havoc is one resolution of a host block's nondeterministic writes.
type havoc struct {
	label  string
	writes []havocWrite
}

type havocWrite struct {
	kind  uint8 // 0 prop, 1 data, 2 idx, 3 subset
	name  string
	val   bool
	elem  string
	elems []string
}

// act classifies a thread's next action for partial-order reduction. An
// invisible action commutes with every action of every other thread and
// affects no property, so it is fused into its predecessor without a
// scheduling point.
type act struct {
	visible bool
	havocs  []havoc
}

func (c *checker) multiThread(st *state, fq string) bool {
	return st.threadsOf(fq) >= 2
}

func (c *checker) hasShared(fq string) bool {
	obs := c.observable[fq]
	return (obs != nil && (len(obs.exact) > 0 || len(obs.prefixes) > 0)) ||
		len(c.incomingP[fq]) > 0 || len(c.incomingD[fq]) > 0
}

// keyVisibleWrite reports whether a local write to key at fq is observable
// by anything outside the writing thread.
func (c *checker) keyVisibleWrite(st *state, fq, key string, multi bool) bool {
	if c.observable[fq].has(key) || c.incomingP[fq][key] {
		return true
	}
	if multi && (c.allReads[fq] || c.bodyReadP[fq][key] || c.raceKeys[fq].has(key)) {
		return true
	}
	return false
}

// formulaVisible reports whether evaluating f at fq can race with any other
// enabled action: qualified reads always can (the target's state is shared);
// unqualified reads race with sibling-branch writes and with wait-admitted
// incoming updates.
func (c *checker) formulaVisible(st *state, fq string, f formula.Formula, multi bool) bool {
	for _, pr := range formula.Props(f) {
		if pr.Junction != "" {
			return true
		}
		if strings.HasPrefix(pr.Name, "@") {
			continue
		}
		key := pr.Name
		if base, idxVar, ok := dsl.SplitIdxProp(key); ok {
			js := st.js[fq]
			elem := ""
			if js != nil {
				elem = js.idx[idxVar]
			}
			if elem == "" {
				return true // unresolvable family: be conservative
			}
			key = dsl.IndexedName(base, elem)
		} else {
			key = c.infos[fq].ResolveName(key)
		}
		if c.incomingP[fq][key] {
			return true
		}
		if multi && (c.bodyWriteP[fq][key] || c.raceKeys[fq].has(key)) {
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
	multi := c.multiThread(st, t.fq)
	if t.hasPend {
		// Signal/error delivery. An error crossing a transaction frame rolls
		// the table back — a bulk local write.
		if t.pendErr != "" && hasTxnFrame(t) {
			return act{visible: multi || c.hasShared(t.fq)}
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
				if c.formulaVisible(st, t.fq, arm.Cond, multi) {
					return act{visible: true}
				}
			}
			return act{}
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
	switch o.Kind {
	case plan.OpSkip, plan.OpSignal, plan.OpSeq, plan.OpScope, plan.OpCase, plan.OpOtherwise:
		// Pure control flow (the otherwise frame push included: its deadline
		// only acts through timeout transitions of blocked waits).
		return act{}
	case plan.OpTxn:
		// The snapshot races with sibling writes.
		return act{visible: multi}
	case plan.OpIf, plan.OpVerify:
		return act{visible: c.formulaVisible(st, t.fq, o.Cond, multi)}
	case plan.OpWait, plan.OpWrite, plan.OpStart, plan.OpStop:
		return act{visible: true}
	case plan.OpPar:
		return act{visible: len(o.Arms) >= 2}
	case plan.OpHost:
		return act{visible: true, havocs: c.havocsFor(st, t.fq, o.Stmt.(dsl.Host).Writes)}
	case plan.OpRestore:
		n := o.Stmt.(dsl.Restore)
		if n.Into != nil {
			return act{visible: true, havocs: c.havocsFor(st, t.fq, n.Writes)}
		}
		return act{visible: multi || c.incomingD[t.fq][n.Data]}
	case plan.OpSave:
		return act{visible: multi || c.incomingD[t.fq][o.Stmt.(dsl.Save).Data]}
	case plan.OpKeep:
		n := o.Stmt.(dsl.Keep)
		for _, p := range n.Props {
			if c.incomingP[t.fq][c.infos[t.fq].ResolveName(p)] {
				return act{visible: true}
			}
		}
		for _, d := range n.Data {
			if c.incomingD[t.fq][d] {
				return act{visible: true}
			}
		}
		return act{}
	case plan.OpIdxAssign:
		// Sibling [$idx] resolutions read the cursor.
		return act{visible: multi}
	case plan.OpProp:
		return c.classifyPropUpdate(st, t, o.To, o.Prop, multi)
	default:
		c.unsup[fmt.Sprintf("statement %T treated as visible", o.Stmt)] = true
		return act{visible: true}
	}
}

func (c *checker) classifyPropUpdate(st *state, t *thread, target dsl.JunctionRef, pr dsl.PropRef, multi bool) act {
	if !target.IsLocal() {
		return act{visible: true} // remote send
	}
	key, err := c.resolvePropName(st, t.fq, pr)
	if err != nil {
		return act{} // the action is an error delivery
	}
	return act{visible: c.keyVisibleWrite(st, t.fq, key, multi)}
}

// havocsFor enumerates the write combinations of a host block over its
// declared write-set: propositions take {unchanged, tt, ff}, data
// {unchanged, defined}, idx {unchanged} ∪ valid elements, subsets
// {unchanged, full parent, singletons}. Capped at Options.MaxHavoc with the
// all-unchanged combination always first.
func (c *checker) havocsFor(st *state, fq string, writes []string) []havoc {
	ji := c.infos[fq]
	js := st.js[fq]
	perName := make([][]havocWrite, 0, len(writes))
	for _, w := range writes {
		name := c.infos[fq].ResolveName(w)
		var opts []havocWrite
		opts = append(opts, havocWrite{kind: 255}) // unchanged
		switch {
		case ji.HasProp(name):
			opts = append(opts,
				havocWrite{kind: 0, name: name, val: true},
				havocWrite{kind: 0, name: name, val: false})
		case ji.HasData(name):
			opts = append(opts, havocWrite{kind: 1, name: name})
		case hasString(ji.Idxs(), name):
			if members, ok := c.idxUniverseNow(ji, js, name); ok {
				for _, elem := range members {
					opts = append(opts, havocWrite{kind: 2, name: name, elem: elem})
				}
			}
		case hasString(ji.Subsets(), name):
			if parent, ok := ji.SetUniverse(name); ok {
				full := append([]string(nil), parent...)
				sort.Strings(full)
				opts = append(opts, havocWrite{kind: 3, name: name, elems: full})
				for _, e := range full {
					opts = append(opts, havocWrite{kind: 3, name: name, elems: []string{e}})
				}
			}
		default:
			c.unsup[fmt.Sprintf("%s: host write-set name %q not resolvable, treated as no-op", fq, w)] = true
		}
		perName = append(perName, opts)
	}

	var out []havoc
	var build func(i int, cur []havocWrite)
	build = func(i int, cur []havocWrite) {
		if len(out) >= c.opts.MaxHavoc {
			return
		}
		if i == len(perName) {
			hw := make([]havocWrite, 0, len(cur))
			var parts []string
			for _, w := range cur {
				if w.kind == 255 {
					continue
				}
				hw = append(hw, w)
				switch w.kind {
				case 0:
					parts = append(parts, fmt.Sprintf("%s=%v", w.name, w.val))
				case 1:
					parts = append(parts, w.name+"=def")
				case 2:
					parts = append(parts, w.name+":="+w.elem)
				case 3:
					parts = append(parts, w.name+"={"+strings.Join(w.elems, " ")+"}")
				}
			}
			label := "noop"
			if len(parts) > 0 {
				label = strings.Join(parts, ",")
			}
			out = append(out, havoc{label: label, writes: hw})
			return
		}
		for _, o := range perName[i] {
			build(i+1, append(cur, o))
		}
	}
	build(0, nil)
	total := 1
	for _, opts := range perName {
		total *= len(opts)
	}
	if total > c.opts.MaxHavoc {
		c.unsup[fmt.Sprintf("%s: host havoc truncated to %d of %d combinations", fq, c.opts.MaxHavoc, total)] = true
	}
	return out
}

// idxUniverseNow mirrors Junction.SetIdx's validation universe: the current
// subset membership when the idx ranges over a subset (nil subset = nothing
// assignable), the static set elements otherwise.
func (c *checker) idxUniverseNow(ji *plan.Junction, js *jstate, idx string) ([]string, bool) {
	for _, d := range ji.Def.Decls {
		id, ok := d.(dsl.DeclIdx)
		if !ok || id.Name != idx {
			continue
		}
		if hasString(ji.Subsets(), id.Of) {
			if js == nil || js.sub[id.Of] == nil {
				return nil, false
			}
			return js.sub[id.Of], true
		}
		return ji.SetUniverse(id.Of)
	}
	return nil, false
}

func hasString(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
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
		t := st.thread(tid)
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
			t.pop()
			if errS != "" {
				// Roll the applied table back; pending updates queued during
				// the transaction survive (the kv snapshot excludes the queue).
				rollback(st.js[t.fq], f, at)
				sig = plan.SigNone
				continue
			}
			if sig == plan.SigReturn {
				sig = plan.SigNone
			}
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
			next, out := f.cm.Done(f.cs, sig)
			switch next {
			case plan.CaseMatch:
				return // landed: the case matches next
			case plan.CaseTail:
				t.pop()
				t.push(&frame{kind: fCaseTail, role: "tail"})
				pushBody(t, "ow", f.cs.Otherwise.Ops)
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
// had started (plan.Op.Wrote), as the runtime restores it (kv.RestoreKeys),
// or the whole entry snapshot when that write-set is unbounded. A key of a
// step never reached keeps what a sibling par arm may have committed to it.
func rollback(js *jstate, f *frame, at int) {
	if js == nil {
		return
	}
	w := f.txn.Wrote[f.txn.Body.StepAt(at)]
	if w.Full {
		for k, v := range f.snapP {
			js.props[k] = v
		}
		for k, v := range f.snapD {
			js.data[k] = v
		}
		return
	}
	for _, k := range w.Props {
		if v, ok := f.snapP[k]; ok {
			js.props[k] = v
		}
	}
	for _, k := range w.Data {
		if v, ok := f.snapD[k]; ok {
			js.data[k] = v
		}
	}
}

// rootComplete handles a thread finishing its last frame: par children post
// their result to the parent's join slot; scheduling roots retry, fail
// (driver-error semantics: effects persist, the thread dies), or fire.
func (c *checker) rootComplete(st *state, t *thread, sig plan.Signal, errS string) {
	if t.parent >= 0 {
		p := st.thread(t.parent)
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
	if errS != "" {
		if _, seen := c.bodyErrs[t.fq]; !seen {
			c.bodyErrs[t.fq] = errS
		}
		st.removeThread(t.id)
		return
	}
	if sig == plan.SigRetry {
		limit := c.infos[t.fq].Def.RetryLimit
		if t.retries+1 >= limit {
			if _, seen := c.bodyErrs[t.fq]; !seen {
				c.bodyErrs[t.fq] = "retry limit exhausted"
			}
			st.removeThread(t.id)
			return
		}
		t.retries++
		t.frames = []*frame{{kind: fBody, role: "body", body: c.infos[t.fq].Body.Ops}}
		return
	}
	c.fired[t.fq] = true
	st.removeThread(t.id)
}

// caseMatch performs one matching step of a case frame's terminator machine;
// a case that fails there delivers the error past its frame, as in the
// runtime.
func (c *checker) caseMatch(st *state, t *thread, f *frame) {
	env := c.envFor(st, t.fq)
	arm, err := f.cm.Match(f.cs, func(i int) bool {
		return c.substIdx(st, t.fq, f.cs.Arms[i].Cond).Eval(env) == formula.True
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
	fq := t.fq
	js := st.js[fq]
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
		t.push(&frame{kind: fScope, role: "scope"})
		pushBody(t, "scopebody", o.Body.Ops)
	case plan.OpTxn:
		snapP := make(map[string]bool, len(js.props))
		for k, v := range js.props {
			snapP[k] = v
		}
		snapD := make(map[string]bool, len(js.data))
		for k, v := range js.data {
			snapD[k] = v
		}
		t.push(&frame{kind: fTxn, role: "txn", txn: o, snapP: snapP, snapD: snapD})
		pushBody(t, "txnbody", o.Body.Ops)
	case plan.OpOtherwise:
		t.push(&frame{kind: fOtherwise, role: "ow", handler: o.Handler, deadline: o.Timeout > 0})
		pushBody(t, "try", []*plan.Op{o.Try})
	case plan.OpCase:
		t.push(&frame{kind: fCase, role: "case", cs: o.Case, cm: plan.NewCaseMachine()})

	case plan.OpIf:
		truth := c.substIdx(st, fq, o.Cond).Eval(c.envFor(st, fq))
		if truth == formula.True {
			pushBody(t, "then", []*plan.Op{o.Then})
		} else if o.Else != nil {
			pushBody(t, "else", []*plan.Op{o.Else})
		}
	case plan.OpVerify:
		switch c.substIdx(st, fq, o.Cond).Eval(c.envFor(st, fq)) {
		case formula.True:
		case formula.False:
			fail("verify failed: %s", o.Cond)
		default:
			fail("verify needs state of a junction that is not running: %s", o.Cond)
		}

	case plan.OpPar:
		c.spawnPar(st, t, o.Arms)

	case plan.OpWait:
		cond := c.substIdx(st, fq, o.Cond)
		admitP := map[string]bool{}
		for _, pr := range formula.Props(cond) {
			if pr.Junction == "" {
				admitP[pr.Name] = true
			}
		}
		admitD := map[string]bool{}
		for _, d := range o.Stmt.(dsl.Wait).Data {
			admitD[d] = true
		}
		// BeginWait drains queued admitted updates before the first eval.
		for k, v := range js.pendP {
			if admitP[k] {
				js.props[k] = v
				delete(js.pendP, k)
			}
		}
		for k := range js.pendD {
			if admitD[k] {
				js.data[k] = true
				delete(js.pendD, k)
			}
		}
		if cond.Eval(c.envFor(st, fq)) == formula.True {
			return
		}
		t.wait = &waitInfo{cond: cond, condStr: cond.String(), admitP: admitP, admitD: admitD}

	case plan.OpProp:
		c.propUpdate(st, t, o.To, o.Prop, o.Value)

	case plan.OpWrite:
		if defined := js.data[o.Data]; !defined {
			fail("write %s: data is undef", o.Data)
			return
		}
		to, err := c.resolveTarget(st, fq, o.To)
		if err != nil {
			fail("write %s: %v", o.Data, err)
			return
		}
		if to == fq {
			fail("write %s: self-targeted", o.Data)
			return
		}
		if !st.running[instOf(to)] || st.js[to] == nil {
			fail("write %s: %s is not running", o.Data, to)
			return
		}
		c.enqueueData(st, to, o.Data)

	case plan.OpSave:
		c.setDataLocal(js, o.Stmt.(dsl.Save).Data)
	case plan.OpRestore:
		n := o.Stmt.(dsl.Restore)
		if defined := js.data[n.Data]; !defined {
			fail("restore %s: data is undef", n.Data)
			return
		}
		if n.Into != nil && hv != nil {
			c.applyHavoc(st, fq, hv)
		}
	case plan.OpHost:
		if hv != nil {
			c.applyHavoc(st, fq, hv)
		}
	case plan.OpKeep:
		n := o.Stmt.(dsl.Keep)
		for _, p := range n.Props {
			delete(js.pendP, c.infos[fq].ResolveName(p))
		}
		for _, d := range n.Data {
			delete(js.pendD, d)
		}

	case plan.OpStart:
		n := o.Stmt.(dsl.Start)
		if st.running[n.Instance] {
			fail("start %s: instance already started", n.Instance)
			return
		}
		c.startInstance(st, n.Instance)
	case plan.OpStop:
		n := o.Stmt.(dsl.Stop)
		if !st.running[n.Instance] {
			fail("stop %s: instance not running", n.Instance)
			return
		}
		st.running[n.Instance] = false

	case plan.OpIdxAssign:
		n := o.Stmt.(dsl.IdxAssign)
		elem := c.infos[fq].ResolveName(n.Elem)
		if err := c.setIdx(st, fq, n.Idx, elem); err != nil {
			fail("%s := %s: %v", n.Idx, elem, err)
		}

	default:
		c.unsup[fmt.Sprintf("statement %T executed as skip", o.Stmt)] = true
	}
}

// setIdx mirrors Junction.SetIdx: membership validates against the current
// subset membership when the idx ranges over a subset (error when undef),
// against the static set otherwise.
func (c *checker) setIdx(st *state, fq, idx, elem string) error {
	ji := c.infos[fq]
	js := st.js[fq]
	universe, ok := c.idxUniverseNow(ji, js, idx)
	if !ok {
		return fmt.Errorf("idx %q has no resolvable universe", idx)
	}
	if !hasString(universe, elem) {
		return fmt.Errorf("%q is not a member", elem)
	}
	js.idx[idx] = elem
	return nil
}

// propUpdate mirrors the runtime's assert/retract: locally-declared keys
// update the local table first (even for remote targets); remote targets then
// receive the update through the pending queue or a blocked wait's admission.
func (c *checker) propUpdate(st *state, t *thread, target dsl.JunctionRef, pr dsl.PropRef, val bool) {
	fq := t.fq
	js := st.js[fq]
	name, err := c.resolvePropName(st, fq, pr)
	if err != nil {
		t.setPend(plan.SigNone, err.Error())
		return
	}
	if _, declared := js.props[name]; declared {
		c.setPropLocal(js, name, val)
	} else if target.IsLocal() {
		t.setPend(plan.SigNone, fmt.Sprintf("local proposition %q not declared", name))
		return
	}
	if target.IsLocal() {
		return
	}
	to, rerr := c.resolveTarget(st, fq, target)
	if rerr != nil {
		t.setPend(plan.SigNone, rerr.Error())
		return
	}
	if to == fq {
		t.setPend(plan.SigNone, fmt.Sprintf("self-targeted update of %q", name))
		return
	}
	if !st.running[instOf(to)] || st.js[to] == nil {
		t.setPend(plan.SigNone, fmt.Sprintf("update %q: %s is not running", name, to))
		return
	}
	c.enqueueProp(st, to, name, val)
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
	for i, a := range arms {
		child := &thread{
			id:     st.nextTid,
			fq:     t.fq,
			parent: t.id,
			slot:   i,
			frames: []*frame{{kind: fBody, role: "branch", body: []*plan.Op{a}}},
		}
		st.nextTid++
		st.threads = append(st.threads, child)
	}
}

func (c *checker) applyHavoc(st *state, fq string, hv *havoc) {
	js := st.js[fq]
	for _, w := range hv.writes {
		switch w.kind {
		case 0:
			c.setPropLocal(js, w.name, w.val)
		case 1:
			c.setDataLocal(js, w.name)
		case 2:
			js.idx[w.name] = w.elem
		case 3:
			js.sub[w.name] = append([]string(nil), w.elems...)
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
			rollback(st.js[t.fq], f, at)
		}
		t.pop()
	}
	f := t.top()
	f.inHandler = true
	pushBody(t, "handler", []*plan.Op{f.handler})
}
