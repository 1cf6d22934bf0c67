package check

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"csaw/internal/formula"
	"csaw/internal/plan"
)

// succ is one outgoing transition of a state.
type succ struct {
	step Step
	st   *state
}

// spawn adds a thread of j running body: a scheduling root (parent -1) or
// the arm slot of a par of thread parent.
func (st *state) spawn(j *junc, parent, slot int, body []*plan.Op) {
	m := plan.FrameMachine[words]{Frames: []plan.Frame[words]{{Body: body}}}
	st.threads = append(st.threads, &thread{id: st.nextTid, gen: st.gen, j: j, m: m, parent: parent, slot: slot})
	st.nextTid++
}

// successors enumerates the outgoing transitions of st. wouldEnv reports
// that an environment action (invoke, inject) exists but the budget is spent
// — such a state is never a deadlock, merely under-explored.
func (c *checker) successors(st *state) ([]succ, bool) {
	strand := func(t *thread, hv *havoc) succ {
		cp := c.clone(st)
		c.execOne(cp, cp.own(t.id), hv)
		c.fuse(cp, t.id)
		step := Step{Kind: StepStrand, Junction: t.j.fq, Thread: t.id}
		if hv != nil {
			step.Choice = hv.label
		}
		return succ{step, cp}
	}
	// Partial-order reduction: when some runnable thread's next action is
	// invisible (commutes with every other thread), running it alone is a
	// sound ample set — no other interleaving is lost.
	acts := make([]act, len(st.threads))
	for i, t := range st.threads {
		if t.runnable() {
			if acts[i] = c.peek(st, t); !acts[i].visible && acts[i].havocs == nil {
				return []succ{strand(t, nil)}, false
			}
		}
	}

	var succs []succ
	wouldEnv := false

	// Visible thread actions, every runnable thread, every havoc resolution.
	for i, t := range st.threads {
		switch {
		case !t.runnable():
		case acts[i].havocs != nil:
			for k := range acts[i].havocs {
				succs = append(succs, strand(t, &acts[i].havocs[k]))
			}
		default:
			succs = append(succs, strand(t, nil))
		}
	}

	// Schedulings: at most one per junction at a time (the runtime's schedMu).
	envLeft := st.tab.get(c.env, c.envWidth)
	for _, j := range c.juncs {
		if st.threadsOf(j) > 0 || !st.running(j.inst) {
			continue
		}
		if j.info.Def.Guard == nil {
			// Unguarded: only an external invoke runs it — an environment
			// action drawing on the budget.
			wouldEnv = true
			if envLeft > 0 {
				cp := c.clone(st)
				applyPending(cp, j)
				cp.spawn(j, -1, 0, j.info.Body.Ops)
				cp.tab.put(c.env, c.envWidth, envLeft-1)
				succs = append(succs, succ{Step{Kind: StepInvoke, Junction: j.fq}, cp})
			}
			continue
		}
		cp := c.clone(st)
		pend := applyPending(cp, j)
		if c.eval(cp, j, j.info.Def.Guard) == formula.True {
			j.guardTrue = true
			cp.spawn(j, -1, 0, j.info.Body.Ops)
			succs = append(succs, succ{Step{Kind: StepSchedule, Junction: j.fq}, cp})
		} else if pend {
			// Not schedulable; the attempt still absorbed pending updates.
			succs = append(succs, succ{Step{Kind: StepAbsorb, Junction: j.fq}, cp})
		}
	}

	// Wait resumptions.
	for _, t := range st.threads {
		if t.wait == nil {
			continue
		}
		if c.eval(st, t.j, t.wait.cond) == formula.True {
			cp := c.clone(st)
			cp.own(t.id).wait = nil
			c.fuse(cp, t.id)
			succs = append(succs, succ{Step{Kind: StepResume, Junction: t.j.fq, Thread: t.id}, cp})
		}
	}

	// Deadline expiries: an armed otherwise[t] with a wait blocked below it,
	// in its thread or an arm of a par under it, may expire at any moment
	// (timing is abstracted).
	for _, t := range st.threads {
		for k := range t.m.Frames {
			if !t.m.Armed(k) {
				continue
			}
			if _, blocked := st.below(t); blocked {
				cp := c.clone(st)
				c.expire(cp, t.id, k)
				succs = append(succs, succ{Step{Kind: StepTimeout, Junction: t.j.fq, Thread: t.id, Choice: strconv.Itoa(k)}, cp})
			}
		}
	}

	// Environment injections of externally-assertable propositions.
	for _, j := range c.juncs {
		if !st.running(j.inst) {
			continue
		}
		for _, s := range j.envInj {
			if st.tab.has(j.base+s) || st.tab.has(j.pendP+s) && st.tab.has(j.pendV+s) {
				continue
			}
			wouldEnv = true
			if envLeft > 0 {
				cp := c.clone(st)
				enqueueProp(cp, j, s, true)
				cp.tab.put(c.env, c.envWidth, envLeft-1)
				succs = append(succs, succ{Step{Kind: StepInject, Junction: j.fq, Key: j.info.Props()[s]}, cp})
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
	visited := map[string]int{string(c.stateKey(init)): 0}
	seenDeadlock := false
	seenInv := map[string]bool{}

	for i := 0; i < len(nodes); i++ {
		n := nodes[i]
		st := n.st
		nodes[i].st = nil // traces replay from the initial state

		if len(st.threads) == 0 {
			for _, inv := range c.pp.Invariants {
				if seenInv[inv.Name] {
					continue
				}
				if c.eval(st, nil, inv.Cond) == formula.False {
					seenInv[inv.Name] = true
					inv := inv
					v := Violation{
						Kind:      Invariant,
						Invariant: inv.Name,
						Detail:    fmt.Sprintf("%s is false in a quiescent state", inv.Cond),
						Trace:     c.traceTo(nodes, i),
					}
					v.Trace = c.minimize(v.Trace, func(s *state) bool {
						return len(s.threads) == 0 && c.eval(s, nil, inv.Cond) == formula.False
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
						firstFQ = t.j.fq
					}
					blocked = append(blocked, fmt.Sprintf("%s blocked on wait[%s]", t.j.fq, t.wait.condStr))
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
			if _, dup := visited[string(key)]; dup {
				continue
			}
			if len(nodes) >= maxStates {
				res.Truncated = true
				continue
			}
			visited[string(key)] = len(nodes)
			nodes = append(nodes, node{st: s.st, parent: i, step: s.step, depth: n.depth + 1})
		}
	}

	// Liveness: a guarded junction of a started instance that never fired in
	// any explored state.
	for _, j := range c.juncs {
		if j.info.Def.Guard == nil || !c.everStarted[j.inst] || j.fired {
			continue
		}
		detail := "guard never became true within the bound"
		if j.guardTrue {
			detail = "guard became true but the body never completed within the bound"
		}
		if j.bodyErr != "" {
			detail += " (a scheduling failed: " + j.bodyErr + ")"
		}
		res.Violations = append(res.Violations, Violation{Kind: Liveness, Junction: j.fq, Detail: detail})
	}

	res.States = len(nodes)
	return res
}

func (c *checker) isDeadlocked(s *state) bool {
	if !slices.ContainsFunc(s.threads, func(t *thread) bool { return t.wait != nil }) {
		return false
	}
	succs, wouldEnv := c.successors(s)
	return len(succs) == 0 && !wouldEnv
}

// traceTo reconstructs the schedule reaching nodes[i].
func (c *checker) traceTo(nodes []node, i int) []Step {
	var steps []Step
	for ; i > 0; i = nodes[i].parent {
		steps = append(steps, nodes[i].step)
	}
	slices.Reverse(steps)
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
			root = st.thread(root.parent) // a parent outlives its arms
		}
		if idx, ok := rootStep[root.id]; ok {
			steps[idx].Blocks = true
		}
	}
	return steps
}
