package check

import (
	"fmt"
	"strconv"
	"strings"

	"csaw/internal/formula"
)

// succ is one outgoing transition of a state.
type succ struct {
	step Step
	st   *state
}

func (c *checker) spawnRoot(st *state, fq string) int {
	t := &thread{
		id:     st.nextTid,
		fq:     fq,
		parent: -1,
		frames: []*frame{{kind: fBody, role: "body", body: c.infos[fq].Body.Ops}},
	}
	st.nextTid++
	st.threads = append(st.threads, t)
	return t.id
}

// successors enumerates the outgoing transitions of st. wouldEnv reports
// that an environment action (invoke, inject) exists but the budget is spent
// — such a state is never a deadlock, merely under-explored.
func (c *checker) successors(st *state) ([]succ, bool) {
	// Partial-order reduction: when some runnable thread's next action is
	// invisible (commutes with every other thread), running it alone is a
	// sound ample set — no other interleaving is lost.
	for _, t := range st.threads {
		if !t.runnable() {
			continue
		}
		a := c.peek(st, t)
		if !a.visible && a.havocs == nil {
			cp := st.clone()
			c.execOne(cp, cp.thread(t.id), nil)
			c.fuse(cp, t.id)
			return []succ{{Step{Kind: StepStrand, Junction: t.fq, Thread: t.id}, cp}}, false
		}
	}

	var succs []succ
	wouldEnv := false

	// Visible thread actions, every runnable thread, every havoc resolution.
	for _, t := range st.threads {
		if !t.runnable() {
			continue
		}
		a := c.peek(st, t)
		if a.havocs != nil {
			for _, hv := range a.havocs {
				hv := hv
				cp := st.clone()
				c.execOne(cp, cp.thread(t.id), &hv)
				c.fuse(cp, t.id)
				succs = append(succs, succ{Step{Kind: StepStrand, Junction: t.fq, Thread: t.id, Choice: hv.label}, cp})
			}
			continue
		}
		cp := st.clone()
		c.execOne(cp, cp.thread(t.id), nil)
		c.fuse(cp, t.id)
		succs = append(succs, succ{Step{Kind: StepStrand, Junction: t.fq, Thread: t.id}, cp})
	}

	// Schedulings: at most one per junction at a time (the runtime's schedMu).
	for _, fq := range c.fqs {
		if st.threadsOf(fq) > 0 {
			continue
		}
		if !st.running[instOf(fq)] || st.js[fq] == nil {
			continue
		}
		ji := c.infos[fq]
		if ji.Def.Guard == nil {
			// Unguarded: only an external invoke runs it — an environment
			// action drawing on the budget.
			wouldEnv = true
			if st.envLeft > 0 {
				cp := st.clone()
				applyPending(cp.js[fq])
				c.spawnRoot(cp, fq)
				cp.envLeft--
				succs = append(succs, succ{Step{Kind: StepInvoke, Junction: fq}, cp})
			}
			continue
		}
		cp := st.clone()
		js := cp.js[fq]
		pend := len(js.pendP) + len(js.pendD)
		applyPending(js)
		switch c.substIdx(cp, fq, ji.Def.Guard).Eval(c.envFor(cp, fq)) {
		case formula.True:
			c.guardTrue[fq] = true
			c.spawnRoot(cp, fq)
			succs = append(succs, succ{Step{Kind: StepSchedule, Junction: fq}, cp})
		default:
			// Not schedulable; the attempt still absorbed pending updates.
			if pend > 0 {
				succs = append(succs, succ{Step{Kind: StepAbsorb, Junction: fq}, cp})
			}
		}
	}

	// Wait resumptions.
	for _, t := range st.threads {
		if t.wait == nil {
			continue
		}
		if t.wait.cond.Eval(c.envFor(st, t.fq)) == formula.True {
			cp := st.clone()
			cp.thread(t.id).wait = nil
			c.fuse(cp, t.id)
			succs = append(succs, succ{Step{Kind: StepResume, Junction: t.fq, Thread: t.id}, cp})
		}
	}

	// Deadline timeouts: a wait blocked under an armed otherwise[t] may time
	// out at any moment (timing is abstracted).
	for _, t := range st.threads {
		if t.wait == nil {
			continue
		}
		for i, f := range t.frames {
			if f.kind == fOtherwise && f.deadline && !f.inHandler {
				cp := st.clone()
				c.unwindToHandler(cp, cp.thread(t.id), i)
				c.fuse(cp, t.id)
				succs = append(succs, succ{Step{Kind: StepTimeout, Junction: t.fq, Thread: t.id, Choice: strconv.Itoa(i)}, cp})
			}
		}
	}

	// Environment injections of externally-assertable propositions.
	for _, fq := range c.fqs {
		js := st.js[fq]
		if js == nil || !st.running[instOf(fq)] {
			continue
		}
		for _, k := range c.envInj[fq] {
			if js.props[k] || js.pendP[k] {
				continue
			}
			wouldEnv = true
			if st.envLeft > 0 {
				cp := st.clone()
				c.enqueueProp(cp, fq, k, true)
				cp.envLeft--
				succs = append(succs, succ{Step{Kind: StepInject, Junction: fq, Key: k}, cp})
			}
		}
	}

	return succs, wouldEnv
}

type node struct {
	st     *state
	parent int
	step   Step
	depth  int
}

// explore runs the bounded breadth-first search and assembles the Result.
func (c *checker) explore() *Result {
	res := &Result{}
	init := c.initialState()
	nodes := []node{{st: init, parent: -1}}
	visited := map[string]int{c.stateKey(init): 0}
	seenDeadlock := false
	seenInv := map[string]bool{}

	for i := 0; i < len(nodes); i++ {
		n := nodes[i]
		st := n.st

		if len(st.threads) == 0 {
			env := c.invariantEnv(st)
			for _, inv := range c.pp.Invariants {
				if seenInv[inv.Name] {
					continue
				}
				if inv.Cond.Eval(env) == formula.False {
					seenInv[inv.Name] = true
					inv := inv
					v := Violation{
						Kind:      Invariant,
						Invariant: inv.Name,
						Detail:    fmt.Sprintf("%s is false in a quiescent state", inv.Cond),
						Trace:     c.traceTo(nodes, i),
					}
					v.Trace = c.minimize(v.Trace, func(s *state) bool {
						return len(s.threads) == 0 && inv.Cond.Eval(c.invariantEnv(s)) == formula.False
					})
					v.Trace = c.markBlocks(v.Trace)
					res.Violations = append(res.Violations, v)
				}
			}
		}

		if n.depth >= c.opts.Bound {
			res.Truncated = true
			continue
		}

		succs, wouldEnv := c.successors(st)

		if !seenDeadlock && len(succs) == 0 && !wouldEnv {
			var blocked []string
			var firstFQ string
			for _, t := range st.threads {
				if t.wait != nil {
					if firstFQ == "" {
						firstFQ = t.fq
					}
					blocked = append(blocked, fmt.Sprintf("%s blocked on wait[%s]", t.fq, t.wait.condStr))
				}
			}
			if len(blocked) > 0 {
				seenDeadlock = true
				v := Violation{
					Kind:     Deadlock,
					Junction: firstFQ,
					Detail:   strings.Join(blocked, "; "),
					Trace:    c.traceTo(nodes, i),
				}
				v.Trace = c.minimize(v.Trace, c.isDeadlocked)
				v.Trace = c.markBlocks(v.Trace)
				res.Violations = append(res.Violations, v)
			}
		}

		for _, s := range succs {
			res.Transitions++
			key := c.stateKey(s.st)
			if _, dup := visited[key]; dup {
				continue
			}
			if len(nodes) >= c.opts.MaxStates {
				res.Truncated = true
				continue
			}
			visited[key] = len(nodes)
			nodes = append(nodes, node{st: s.st, parent: i, step: s.step, depth: n.depth + 1})
		}
	}

	// Liveness: a guarded junction of a started instance that never fired in
	// any explored state.
	for _, fq := range c.fqs {
		ji := c.infos[fq]
		if ji.Def.Guard == nil || !c.everStarted[instOf(fq)] || c.fired[fq] {
			continue
		}
		detail := "guard never became true within the bound"
		if c.guardTrue[fq] {
			detail = "guard became true but the body never completed within the bound"
		}
		if err, ok := c.bodyErrs[fq]; ok {
			detail += " (a scheduling failed: " + err + ")"
		}
		res.Violations = append(res.Violations, Violation{Kind: Liveness, Junction: fq, Detail: detail})
	}

	res.States = len(nodes)
	return res
}

func (c *checker) isDeadlocked(s *state) bool {
	blocked := false
	for _, t := range s.threads {
		if t.wait != nil {
			blocked = true
			break
		}
	}
	if !blocked {
		return false
	}
	succs, wouldEnv := c.successors(s)
	return len(succs) == 0 && !wouldEnv
}

// traceTo reconstructs the schedule reaching nodes[i].
func (c *checker) traceTo(nodes []node, i int) []Step {
	var rev []Step
	for i > 0 {
		rev = append(rev, nodes[i].step)
		i = nodes[i].parent
	}
	steps := make([]Step, 0, len(rev))
	for j := len(rev) - 1; j >= 0; j-- {
		steps = append(steps, rev[j])
	}
	return steps
}

func stepEq(a, b Step) bool {
	return a.Kind == b.Kind && a.Junction == b.Junction &&
		a.Thread == b.Thread && a.Key == b.Key && a.Choice == b.Choice
}

// applyStep re-executes one recorded step from st by matching it against the
// regenerated successor set.
func (c *checker) applyStep(st *state, step Step) (*state, bool) {
	succs, _ := c.successors(st)
	for _, s := range succs {
		if stepEq(s.step, step) {
			return s.st, true
		}
	}
	return nil, false
}

// replaySteps re-simulates a schedule from the initial state.
func (c *checker) replaySteps(steps []Step) (*state, bool) {
	st := c.initialState()
	for _, s := range steps {
		next, ok := c.applyStep(st, s)
		if !ok {
			return nil, false
		}
		st = next
	}
	return st, true
}

// minimize greedily drops steps (last first) while the remaining schedule
// still replays to a state satisfying the violation predicate.
func (c *checker) minimize(steps []Step, pred func(*state) bool) []Step {
	if c.opts.NoShrink {
		return steps
	}
	cur := append([]Step(nil), steps...)
	for i := len(cur) - 1; i >= 0; i-- {
		cand := append(append([]Step(nil), cur[:i]...), cur[i+1:]...)
		if st, ok := c.replaySteps(cand); ok && pred(st) {
			cur = cand
		}
	}
	return cur
}

// markBlocks re-simulates the final schedule and marks every schedule/invoke
// step whose scheduling is still blocked on a wait in the final state — the
// replay harness must invoke those asynchronously.
func (c *checker) markBlocks(steps []Step) []Step {
	st := c.initialState()
	rootStep := map[int]int{}
	for i := range steps {
		preTid := st.nextTid
		next, ok := c.applyStep(st, steps[i])
		if !ok {
			return steps
		}
		if steps[i].Kind == StepSchedule || steps[i].Kind == StepInvoke {
			rootStep[preTid] = i
		}
		st = next
	}
	for _, t := range st.threads {
		if t.wait == nil {
			continue
		}
		root := t
		for root.parent >= 0 {
			p := st.thread(root.parent)
			if p == nil {
				break
			}
			root = p
		}
		if idx, ok := rootStep[root.id]; ok {
			steps[idx].Blocks = true
		}
	}
	return steps
}
