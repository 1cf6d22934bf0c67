package events

import (
	"fmt"
	"sort"
	"strings"

	"csaw/internal/dsl"
	"csaw/internal/obsv"
)

// Conforms checks a traced run against the denotation of one junction: s is
// DenoteJunction's structure for the junction "instance::junction", trace the
// events of a run of the whole system. It returns nil when, scheduling by
// scheduling, what the trace shows of the junction maps injectively, in trace
// order, onto events of one configuration of s; otherwise an error naming the
// first observation that has no place in any.
//
// What a run can observe of the labels (DESIGN.md, "The denotation is the
// specification", has the table):
//
//	Sched_J, Unsched_J   sched.start; sched.fire (sched.error ends the
//	                     scheduling where it stands: a configuration need not
//	                     be maximal)
//	Wr_γ(K,v), γ ≠ J     remote.queued at γ with Peer = J, Key = K, Truth = v
//	Wr_J(K,v)            local.write at J, when J declares K and v is tt or ff;
//	                     a host write (v = *) may go unobserved
//	Wait_J(n⃗,F)          wait.admitted with Key = F, after a wait.armed that
//	                     no wait.admitted or wait.timeout has used up
//	Rd, Synch, Start, Stop, ⊥, ε and the writes of names J does not declare
//	                     occur unobserved whenever an observed event needs them
//
// A configuration is read off the structure as off a flow event structure:
// an event can occur once each of its immediate predecessors has occurred or
// can no longer occur, and at least one has — the sequential composition of
// semantics.go joins the alternatives of an otherwise below one continuation
// instead of copying it. An event can no longer occur once an event in
// minimal conflict with it has, or once a predecessor cannot and the event that
// ruled it out does not lead to another of its predecessors. Two rules say how
// the runtime runs the handlers of Fig. 20: a try is abandoned as a whole, so
// the first event of a handler copy rules out whatever of its try has not
// occurred and the other copies of that handler (one handler run per failed
// try, where the denotation has one per failed event); and a failure is
// handled once, by the innermost handler, so an event ruled out by a handler
// takes the copies other handlers attached to it with it. txn.rollback is
// evidence of a failure: an isolated event must have been able to occur, and
// did not.
//
// Symbolic labels unify with the names the runtime reports: me::instance and
// me::junction with the junction's own, an idx variable with any element of
// its set, "inst::" with any junction of inst.
//
// One order is not held against ≤: the sender's local halves of a straight-
// line run of remote updates are reported when the run's fate has kept them
// (those taken back are never reported), so a delivery may be observed before
// the local.write of an earlier member it depends on. That write is owed, and
// sched.fire is refused while one is.
func Conforms(s *Structure, trace []obsv.Event) error {
	m := newMatcher(s)
	var cur []obsv.Event
	open, n := false, 0
	check := func() error {
		n++
		if err := m.scheduling(cur); err != nil {
			return fmt.Errorf("%s, scheduling %d: %w", m.fq, n, err)
		}
		return nil
	}
	for _, ev := range trace {
		if !m.observes(ev) {
			continue
		}
		if start := ev.Kind == obsv.EvSchedStart; start == open {
			return fmt.Errorf("%s, after scheduling %d: %s outside a scheduling's sched.start … sched.fire", m.fq, n, describe(ev))
		}
		open = true
		cur = append(cur, ev)
		if ev.Kind == obsv.EvSchedFire || ev.Kind == obsv.EvSchedError {
			if err := check(); err != nil {
				return err
			}
			open, cur = false, cur[:0]
		}
	}
	if open {
		// The trace ends inside a scheduling: what there is of it must conform.
		return check()
	}
	return nil
}

// ConformsProgram checks trace against every junction of every instance of p.
// The unfolding budget grows, up to a bound, until a junction's schedulings
// fit: the denotation is infinitary in retry and reconsider and Budget only
// curtails it (§8.5), so a run is wrong when no unfolding has it.
func ConformsProgram(p *dsl.Program, trace []obsv.Event) error {
	const maxUnfold = 4
	for _, inst := range p.InstanceNames() {
		t := p.Types[p.Instances[inst]]
		for _, jn := range t.JunctionNames() {
			var err error
			for unfold := 1; unfold <= maxUnfold; unfold++ {
				s := DenoteJunction(inst+"::"+jn, t.Junctions[jn], Budget{Unfold: unfold})
				if err = Conforms(s, trace); err == nil {
					break
				}
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func describe(ev obsv.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s #%d at %s", ev.Kind, ev.Seq, ev.Junction)
	if ev.Peer != "" {
		fmt.Fprintf(&b, " from %s", ev.Peer)
	}
	if ev.Key != "" {
		fmt.Fprintf(&b, " %s", ev.Key)
	}
	if ev.Truth != "" {
		fmt.Fprintf(&b, "=%s", ev.Truth)
	}
	return b.String()
}

// matcher is one junction's structure laid out for the search: events by dense
// index, with their immediate predecessors, successors and minimal conflicts.
type matcher struct {
	s        *Structure
	fq, inst string
	ids      []EventID
	lab      []Label
	preds    [][]int
	succs    [][]int
	confl    [][]int
	quiet    []bool // may occur without being observed
	isolated []bool
	killable []bool // it or a cause of it has a minimal conflict
	handler  []handlerCopy
	entries  map[int][]int // handler group → the entry events of all its copies

	declared map[string]bool     // the names the junction's table holds
	idx      map[string][]string // idx variable → the elements it ranges over

	obs     []obsv.Event
	cands   [][]int
	failed  map[string]bool
	steps   int
	deepest int
}

// maxSteps bounds one scheduling's search; a run that needs more is reported
// as not conforming rather than left to run.
const maxSteps = 1 << 20

func newMatcher(s *Structure) *matcher {
	m := &matcher{s: s, fq: s.junction, ids: s.IDs(), entries: map[int][]int{}, declared: map[string]bool{}, idx: map[string][]string{}}
	m.inst, _, _ = strings.Cut(m.fq, "::")
	if s.def != nil {
		sets := map[string][]string{}
		for _, d := range s.def.Decls {
			switch n := d.(type) {
			case dsl.InitProp:
				m.declared[m.self(n.Name)] = true
			case dsl.InitData:
				m.declared[n.Name] = true
			case dsl.DeclSet:
				sets[n.Name] = n.Elems
			case dsl.DeclSubset:
				sets[n.Name] = sets[n.Of]
			case dsl.DeclIdx:
				m.idx[n.Name] = sets[n.Of]
			}
		}
	}
	at := make(map[EventID]int, len(m.ids))
	for i, id := range m.ids {
		at[id] = i
	}
	n := len(m.ids)
	m.lab, m.preds, m.succs, m.confl = make([]Label, n), make([][]int, n), make([][]int, n), make([][]int, n)
	m.quiet, m.isolated, m.killable, m.handler = make([]bool, n), make([]bool, n), make([]bool, n), make([]handlerCopy, n)
	for i, id := range m.ids {
		e := s.Events[id]
		m.lab[i], m.isolated[i], m.handler[i] = e.Label, !e.Outward, e.handler
		if e.handler.group != 0 {
			m.entries[e.handler.group] = append(m.entries[e.handler.group], i)
		}
		for to := range s.Enables[id] {
			m.succs[i] = append(m.succs[i], at[to])
			m.preds[at[to]] = append(m.preds[at[to]], i)
		}
		for to := range s.Conflicts[id] {
			m.confl[i] = append(m.confl[i], at[to])
		}
		switch l := e.Label; l.Kind {
		case KindSched, KindUnsched, KindWait:
		case KindWr:
			m.quiet[i] = l.Junction == m.fq && (l.Value == "*" || !m.declares(l.Key))
		default:
			m.quiet[i] = true
		}
	}
	for i := range m.ids { // map order above: sort, so the search is repeatable
		sort.Ints(m.preds[i])
		sort.Ints(m.succs[i])
		sort.Ints(m.confl[i])
	}
	done := make([]bool, n)
	var mark func(i int) bool
	mark = func(i int) bool {
		if !done[i] {
			done[i], m.killable[i] = true, len(m.confl[i]) > 0
			for _, p := range m.preds[i] {
				if mark(p) {
					m.killable[i] = true
				}
			}
		}
		return m.killable[i]
	}
	for i := range m.ids {
		mark(i)
	}
	return m
}

// self resolves the me:: tokens as the runtime does.
func (m *matcher) self(name string) string {
	name = strings.ReplaceAll(name, "me::junction", m.fq)
	return strings.ReplaceAll(name, "me::instance", m.inst)
}

// indexed splits "Base[ix]" when ix is one of the junction's idx variables.
func (m *matcher) indexed(key string) (base string, elems []string, ok bool) {
	open := strings.LastIndexByte(key, '[')
	if open <= 0 || !strings.HasSuffix(key, "]") {
		return "", nil, false
	}
	elems, ok = m.idx[key[open+1:len(key)-1]]
	return key[:open], elems, ok
}

// declares reports whether the junction's table holds a name key can stand for.
func (m *matcher) declares(key string) bool {
	for name := range m.declared {
		if m.keyUnifies(key, name) {
			return true
		}
	}
	return false
}

// keyUnifies reports whether a label's key can stand for the table key the
// runtime reported.
func (m *matcher) keyUnifies(sym, actual string) bool {
	sym = m.self(sym)
	if base, elems, ok := m.indexed(sym); ok {
		for _, e := range elems {
			if dsl.IndexedName(base, m.self(e)) == actual {
				return true
			}
		}
		return false
	}
	return sym == actual
}

// junctionUnifies is keyUnifies for a label's junction subscript.
func (m *matcher) junctionUnifies(sym, actual string) bool {
	sym = m.self(sym)
	if elems, ok := m.idx[sym]; ok {
		for _, e := range elems {
			if e = m.self(e); e == actual || strings.HasPrefix(actual, e+"::") {
				return true
			}
		}
		return false
	}
	return sym == actual || strings.HasSuffix(sym, "::") && strings.HasPrefix(actual, sym)
}

// observes reports whether ev shows something of this junction's schedulings.
func (m *matcher) observes(ev obsv.Event) bool {
	if ev.Kind == obsv.EvRemoteQueued {
		return ev.Peer == m.fq
	}
	if ev.Junction != m.fq {
		return false
	}
	switch ev.Kind {
	case obsv.EvSchedStart, obsv.EvSchedFire, obsv.EvSchedError, obsv.EvLocalWrite,
		obsv.EvWaitArmed, obsv.EvWaitAdmitted, obsv.EvWaitTimeout, obsv.EvTxnRollback:
		return true
	}
	return false
}

// unifies reports whether structure event i can be what ev observed.
func (m *matcher) unifies(i int, ev obsv.Event) bool {
	l := m.lab[i]
	value := func() bool { return l.Value == "*" || ev.Truth == "*" || l.Value == ev.Truth }
	switch ev.Kind {
	case obsv.EvSchedStart:
		return l.Kind == KindSched
	case obsv.EvSchedFire:
		return l.Kind == KindUnsched
	case obsv.EvLocalWrite:
		return l.Kind == KindWr && l.Junction == m.fq && m.keyUnifies(l.Key, ev.Key) && value()
	case obsv.EvRemoteQueued:
		return l.Kind == KindWr && l.Junction != m.fq && m.junctionUnifies(l.Junction, ev.Junction) && m.keyUnifies(l.Key, ev.Key) && value()
	case obsv.EvWaitAdmitted:
		return l.Kind == KindWait && l.Formula == ev.Key
	}
	return false
}

// config is a configuration under construction: what has occurred, what of it
// is still owed an observation, and what can no longer occur (killer[i] is one
// more than the event whose occurrence ruled i out, zero while i can occur).
type config struct {
	in, owed []bool
	killer   []int32
}

// key identifies the configuration for the search's memo of dead ends (what
// can no longer occur follows from what has).
func (c config) key(k int) string {
	b := make([]byte, len(c.in)+1)
	for i, in := range c.in {
		if in {
			b[i] = 1
		}
		if c.owed[i] {
			b[i] |= 2
		}
	}
	b[len(c.in)] = byte(k) // k < len(obs); positions differing by 256 differ in c.in
	return string(b)
}

func (c config) clone() config {
	return config{append([]bool(nil), c.in...), append([]bool(nil), c.owed...), append([]int32(nil), c.killer...)}
}

// scheduling checks the observations of one scheduling, sched.start first.
func (m *matcher) scheduling(obs []obsv.Event) error {
	// Waits are counted apart from the search: each wait.admitted and
	// wait.timeout uses up one earlier wait.armed of its formula.
	armed := map[string]int{}
	for _, ev := range obs {
		switch ev.Kind {
		case obsv.EvWaitArmed:
			armed[ev.Key]++
		case obsv.EvWaitAdmitted, obsv.EvWaitTimeout:
			if armed[ev.Key] == 0 {
				return fmt.Errorf("%s without a wait.armed it could end", describe(ev))
			}
			armed[ev.Key]--
		}
	}
	m.obs, m.cands = obs, make([][]int, len(obs))
	for k, ev := range obs {
		for i := range m.ids {
			if m.unifies(i, ev) {
				m.cands[k] = append(m.cands[k], i)
			}
		}
	}
	m.failed, m.steps, m.deepest = map[string]bool{}, 0, 0
	n := len(m.ids)
	if m.step(config{make([]bool, n), make([]bool, n), make([]int32, n)}, 0) {
		return nil
	}
	ev := obs[m.deepest]
	switch {
	case m.steps > maxSteps:
		return fmt.Errorf("search gave up at %s", describe(ev))
	case ev.Kind == obsv.EvTxnRollback:
		return fmt.Errorf("%s, but no event of a transaction was left to fail", describe(ev))
	case len(m.cands[m.deepest]) == 0:
		return fmt.Errorf("%s: the denotation has no such event", describe(ev))
	}
	return fmt.Errorf("%s: every event it could be has occurred, can no longer occur, or waits on one that has not", describe(ev))
}

// step matches obs[k:] from configuration c.
func (m *matcher) step(c config, k int) bool {
	if k == len(m.obs) {
		return true
	}
	key := c.key(k)
	if m.failed[key] {
		return false
	}
	ev := m.obs[k]
	next := func(c config) bool { return m.step(c, k+1) }
	ok := false
	switch ev.Kind {
	case obsv.EvWaitArmed, obsv.EvWaitTimeout, obsv.EvSchedError:
		ok = next(c)
	case obsv.EvTxnRollback:
		for i := range m.ids {
			if m.isolated[i] && !c.in[i] && m.occur(c, i, -1, func(config) bool { return true }) {
				ok = next(c)
				break
			}
		}
	default:
		for _, i := range m.cands[k] {
			switch {
			case c.in[i] && c.owed[i]:
				c2 := c.clone()
				c2.owed[i] = false
				ok = next(c2)
			case !c.in[i]:
				ok = m.occur(c, i, i, func(c config) bool {
					if ev.Kind == obsv.EvSchedFire {
						for _, o := range c.owed {
							if o {
								return false
							}
						}
					}
					return next(c)
				})
			}
			if ok {
				break
			}
		}
	}
	if !ok {
		m.failed[key] = true
		if k > m.deepest {
			m.deepest = k
		}
	}
	return ok
}

// occur makes event e occur after c — first, unobserved, whatever must have
// occurred before it — and hands each configuration that results to then,
// until one is accepted. root is the observed event the search is placing
// (-1 for a trial), which decides what may be assumed on its behalf.
func (m *matcher) occur(c config, e, root int, then func(config) bool) bool {
	if m.steps++; m.steps > maxSteps || c.killer[e] != 0 {
		return false
	}
	if c.in[e] {
		return then(c)
	}
	var open []int // predecessors that have not occurred and still can
	any := len(m.preds[e]) == 0
	for _, p := range m.preds[e] {
		if c.in[p] {
			any = true
		} else if c.killer[p] == 0 {
			open = append(open, p)
		}
	}
	if len(open) == 0 {
		if !any {
			return false
		}
		c = c.clone()
		c.in[e], c.owed[e] = true, e != root && !m.quiet[e]
		return m.settle(&c, e) && then(c)
	}
	// Each open predecessor either occurred unobserved or is ruled out by
	// another that did; which comes first matters only among alternatives.
	for _, p := range open {
		assumable := m.quiet[p] || root >= 0 && m.lab[root].Junction != m.fq && m.lab[p].Kind == KindWr && m.lab[p].Junction == m.fq
		if assumable && m.occur(c, p, root, func(c config) bool { return m.occur(c, e, root, then) }) {
			return true
		}
		if !m.killable[p] {
			return false // nothing can rule p out, so nothing else is worth trying
		}
	}
	return false
}

// settle rules out what e's occurrence makes impossible; false when that
// includes something that has occurred.
func (m *matcher) settle(c *config, e int) bool {
	for _, x := range m.confl[e] {
		if c.in[x] {
			return false
		}
	}
	h := m.handler[e]
	for _, x := range m.confl[e] {
		m.fail(c, x, e, h)
	}
	// One handler run per failed try: its other copies, and what they guard.
	for _, other := range m.entries[h.group] {
		if m.handler[other].copy == h.copy {
			continue
		}
		for _, x := range m.confl[other] {
			if !c.in[x] {
				m.fail(c, x, e, h)
			}
		}
		m.kill(c, other, e)
	}
	return true
}

// fail rules out x, in minimal conflict with e, which occurred as part of
// handler copy h (the zero copy when e is no handler's entry). The handler
// copies attached to x go with it, h's own apart: x was not chosen, or its
// failure is h's to handle, and either way no other handler runs for it.
func (m *matcher) fail(c *config, x, e int, h handlerCopy) {
	m.kill(c, x, e)
	for _, y := range m.confl[x] {
		if m.handler[y] != h {
			m.kill(c, y, e)
		}
	}
}

// kill records that x can no longer occur because by did, and follows the
// consequence down: a successor goes too unless by leads to another of its
// predecessors, which makes x the alternative not taken.
func (m *matcher) kill(c *config, x, by int) {
	if c.in[x] || c.killer[x] != 0 {
		return
	}
	c.killer[x] = int32(by) + 1
	for _, y := range m.succs[x] {
		alternative := false
		for _, q := range m.preds[y] {
			if m.s.Leq(m.ids[by], m.ids[q]) {
				alternative = true
				break
			}
		}
		if !alternative {
			m.kill(c, y, by)
		}
	}
}
