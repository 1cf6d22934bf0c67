package events

import (
	"fmt"
	"sort"
	"strings"

	"csaw/internal/dsl"
	"csaw/internal/obsv"
	"csaw/internal/plan"
)

// Conforms checks a traced run against the denotation of one junction: s is
// DenoteJunction's structure for j, trace the events of a run of the whole
// system. It returns nil when, scheduling by scheduling, what
// the trace shows of the junction maps injectively, in trace order, onto events
// of one configuration of s; otherwise an error naming the first observation
// that has no place in any. DESIGN.md, "Conformance to the §8 denotation", has
// the projection table and the argument; in short:
//
//   - Sched/Unsched are sched.start/sched.fire (sched.error ends a scheduling
//     where it stands), a remote Wr_γ(K,v) is γ's remote.queued from this
//     junction, Wr_J(K,v) a local.write when J declares K, Wait a
//     wait.admitted that uses up an earlier wait.armed. Rd, Synch, Start, Stop,
//     ⊥, ε, host writes (v = *) and writes of undeclared names may occur
//     unobserved. Labels unify with the names plan resolved for j: me::
//     tokens, idx variables over their sets, "inst::" over inst's junctions.
//   - The structure is read as a flow event structure: an event can occur once
//     every immediate predecessor has occurred or can no longer occur, and one
//     has. An event can no longer occur once one in minimal conflict with it
//     has, or a predecessor cannot and what ruled that out does not lead to
//     another of its predecessors. The runtime runs one handler per failed try
//     and the innermost one: a handler copy's first event rules out what is
//     left of its try and the handler's other copies, and an event that is
//     ruled out takes the handler copies attached to it along. A txn.rollback
//     needs an isolated event that could have occurred and did not.
//   - The sender's local halves of a straight-line run are reported once the
//     run's fate has kept them, so a delivery may precede the local.write of an
//     earlier member it depends on: that write is owed, and sched.fire is
//     refused while one is.
func Conforms(j *plan.Junction, s *Structure, trace []obsv.Event) error {
	m := newMatcher(j, s)
	var cur []obsv.Event
	n := 0
	check := func() error {
		n++
		if err := m.scheduling(cur); err != nil {
			return fmt.Errorf("%s, scheduling %d: %w", m.j.FQ, n, err)
		}
		cur = cur[:0]
		return nil
	}
	for _, ev := range trace {
		if !m.observes(ev) {
			continue
		}
		if start, open := ev.Kind == obsv.EvSchedStart, len(cur) > 0; start == open {
			return fmt.Errorf("%s, after scheduling %d: %s outside a scheduling's sched.start … sched.fire", m.j.FQ, n, describe(ev))
		}
		cur = append(cur, ev)
		if ev.Kind == obsv.EvSchedFire || ev.Kind == obsv.EvSchedError {
			if err := check(); err != nil {
				return err
			}
		}
	}
	if len(cur) > 0 {
		// The trace ends inside a scheduling: what there is of it must conform.
		return check()
	}
	return nil
}

// ConformsProgram checks trace against every junction of the compiled
// program. The unfolding budget grows, up to a bound, until a junction's
// schedulings fit: the denotation is infinitary in retry and reconsider and
// Budget only curtails it (§8.5), so a run is wrong when no unfolding has it.
func ConformsProgram(pp *plan.Program, trace []obsv.Event) error {
	const maxUnfold = 4
	for _, j := range pp.Juncs {
		var err error
		for unfold := 1; unfold <= maxUnfold; unfold++ {
			if err = Conforms(j, DenoteJunction(j.FQ, j.Def, Budget{Unfold: unfold}), trace); err == nil {
				break
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func describe(ev obsv.Event) string {
	return strings.Join(strings.Fields(fmt.Sprintf("%s #%d at %s %s %s %s", ev.Kind, ev.Seq, ev.Junction, ev.Peer, ev.Key, ev.Truth)), " ")
}

// node is one event of the structure laid out for the search, its relations
// by dense index.
type node struct {
	Label
	preds, succs, confl []int
	quiet               bool // may occur without being observed
	isolated            bool
	killable            bool // it or a cause of it has a minimal conflict
	handler             handlerCopy
}

type matcher struct {
	s       *Structure
	j       *plan.Junction // declared names, idx universes and me:: resolution
	ids     []EventID
	n       []node
	entries map[int][]int // handler group → the first events of all its copies

	obs     []obsv.Event
	cands   [][]int
	steps   int
	deepest int
}

// maxSteps bounds one scheduling's search; a run that needs more is reported
// as not conforming rather than left to run.
const maxSteps = 1 << 18

func newMatcher(j *plan.Junction, s *Structure) *matcher {
	m := &matcher{s: s, j: j, ids: s.IDs(), entries: map[int][]int{}}
	at := make(map[EventID]int, len(m.ids))
	for i, id := range m.ids {
		at[id] = i
	}
	m.n = make([]node, len(m.ids))
	for i, id := range m.ids {
		e, n := s.Events[id], &m.n[i]
		n.Label, n.isolated, n.handler = e.Label, !e.Outward, e.handler
		n.Key, n.Junction = j.ResolveName(n.Key), j.ResolveName(n.Junction)
		if e.handler.group != 0 {
			m.entries[e.handler.group] = append(m.entries[e.handler.group], i)
		}
		for to := range s.Enables[id] {
			n.succs = append(n.succs, at[to])
			m.n[at[to]].preds = append(m.n[at[to]].preds, i)
		}
		for to := range s.Conflicts[id] {
			n.confl = append(n.confl, at[to])
		}
		for c := range s.causesCached(id) {
			n.killable = n.killable || len(s.Conflicts[c]) > 0
		}
		switch n.Kind {
		case KindSched, KindUnsched, KindWait:
		case KindWr:
			n.quiet = n.Junction == m.j.FQ && (n.Value == "*" || !m.declares(n.Key))
		default:
			n.quiet = true
		}
	}
	for i := range m.n { // out of map order, so that the search is repeatable
		sort.Ints(m.n[i].preds)
		sort.Ints(m.n[i].succs)
		sort.Ints(m.n[i].confl)
	}
	return m
}

// declares reports whether the junction's table holds a name key can stand for.
func (m *matcher) declares(key string) bool {
	for _, names := range [][]string{m.j.Props(), m.j.Data()} {
		for _, name := range names {
			if m.keyUnifies(key, name) {
				return true
			}
		}
	}
	return false
}

// keyUnifies reports whether a label's key (me:: tokens resolved) can stand
// for the table key the runtime reported: itself, or "Base[ix]" for an element
// of idx variable ix.
func (m *matcher) keyUnifies(sym, actual string) bool {
	if open := strings.LastIndexByte(sym, '['); open > 0 && strings.HasSuffix(sym, "]") {
		universe, _ := m.j.IdxUniverse(sym[open+1 : len(sym)-1])
		for _, e := range universe {
			if dsl.IndexedName(sym[:open], e) == actual {
				return true
			}
		}
	}
	return sym == actual
}

// junctionUnifies is keyUnifies for a label's junction subscript.
func (m *matcher) junctionUnifies(sym, actual string) bool {
	universe, _ := m.j.IdxUniverse(sym)
	for _, e := range universe {
		if e == actual || strings.HasPrefix(actual, e+"::") {
			return true
		}
	}
	return sym == actual || strings.HasSuffix(sym, "::") && strings.HasPrefix(actual, sym)
}

// observes reports whether ev shows something of this junction's schedulings.
func (m *matcher) observes(ev obsv.Event) bool {
	switch ev.Kind {
	case obsv.EvRemoteQueued:
		return ev.Peer == m.j.FQ
	case obsv.EvSchedStart, obsv.EvSchedFire, obsv.EvSchedError, obsv.EvLocalWrite,
		obsv.EvWaitArmed, obsv.EvWaitAdmitted, obsv.EvWaitTimeout, obsv.EvTxnRollback:
		return ev.Junction == m.j.FQ
	}
	return false
}

// unifies reports whether structure event i can be what ev observed.
func (m *matcher) unifies(i int, ev obsv.Event) bool {
	l := m.n[i].Label
	write := l.Kind == KindWr && m.keyUnifies(l.Key, ev.Key) && (l.Value == "*" || ev.Truth == "*" || l.Value == ev.Truth)
	switch ev.Kind {
	case obsv.EvSchedStart:
		return l.Kind == KindSched
	case obsv.EvSchedFire:
		return l.Kind == KindUnsched
	case obsv.EvLocalWrite:
		return write && l.Junction == m.j.FQ
	case obsv.EvRemoteQueued:
		return write && l.Junction != m.j.FQ && m.junctionUnifies(l.Junction, ev.Junction)
	case obsv.EvWaitAdmitted:
		return l.Kind == KindWait && l.Formula == ev.Key
	}
	return false
}

// config is a configuration under construction, one state per event: whether
// it has occurred, whether it is still owed an observation, and whether it
// can no longer occur.
type config []uint8

const (
	in uint8 = 1 << iota
	owed
	dead
)

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
	m.obs, m.cands, m.steps, m.deepest = obs, make([][]int, len(obs)), 0, 0
	for k, ev := range obs {
		for i := range m.n {
			if m.unifies(i, ev) {
				m.cands[k] = append(m.cands[k], i)
			}
		}
	}
	if m.step(make(config, len(m.n)), 0) {
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
	ev := m.obs[k]
	next := func(c config) bool { return m.step(c, k+1) }
	switch ev.Kind {
	case obsv.EvWaitArmed, obsv.EvWaitTimeout, obsv.EvSchedError:
		return next(c)
	case obsv.EvTxnRollback:
		for i := range m.n {
			if m.n[i].isolated && c[i]&in == 0 && m.occur(c, i, -1, func(config) bool { return true }) {
				return next(c)
			}
		}
	}
	for _, i := range m.cands[k] {
		ok := false
		switch {
		case c[i]&owed != 0:
			c2 := append(config(nil), c...)
			c2[i] &^= owed
			ok = next(c2)
		case c[i]&in != 0:
			// A host block's writes of one name, however many, are its one
			// Wr_J(v,*).
			ok = ev.Kind == obsv.EvLocalWrite && m.n[i].Value == "*" && next(c)
		default:
			ok = m.occur(c, i, i, func(c config) bool {
				if ev.Kind == obsv.EvSchedFire {
					for _, st := range c {
						if st&owed != 0 {
							return false
						}
					}
				}
				return next(c)
			})
		}
		if ok {
			return true
		}
	}
	if k > m.deepest {
		m.deepest = k
	}
	return false
}

// occur makes event e occur after c — first, unobserved, whatever must have
// occurred before it — and hands each configuration that results to then,
// until one is accepted. root is the observed event the search is placing
// (-1 for a trial), which decides what may be assumed on its behalf.
func (m *matcher) occur(c config, e, root int, then func(config) bool) bool {
	if m.steps++; m.steps > maxSteps || c[e]&dead != 0 {
		return false
	}
	if c[e]&in != 0 {
		return then(c)
	}
	var open []int // predecessors that have not occurred and still can
	any := len(m.n[e].preds) == 0
	for _, p := range m.n[e].preds {
		if c[p]&in != 0 {
			any = true
		} else if c[p]&dead == 0 {
			open = append(open, p)
		}
	}
	if len(open) == 0 {
		if !any {
			return false
		}
		c = append(config(nil), c...)
		if c[e] = in; e != root && !m.n[e].quiet {
			c[e] |= owed
		}
		return m.settle(c, e) && then(c)
	}
	// Each open predecessor either occurred unobserved or is ruled out by
	// another that did; which comes first matters only among alternatives. A
	// delivery may assume the sender's own writes before it (see Conforms).
	for _, p := range open {
		assumable := m.n[p].quiet || root >= 0 && m.n[root].Junction != m.j.FQ && m.n[p].Kind == KindWr && m.n[p].Junction == m.j.FQ
		if assumable && m.occur(c, p, root, func(c config) bool { return m.occur(c, e, root, then) }) {
			return true
		}
		if !m.n[p].killable {
			return false // nothing can rule p out, so nothing else is worth trying
		}
	}
	return false
}

// settle rules out what e's occurrence makes impossible; false when that
// includes something that has occurred.
func (m *matcher) settle(c config, e int) bool {
	for _, x := range m.n[e].confl {
		if c[x]&in != 0 {
			return false
		}
	}
	h := m.n[e].handler
	for _, x := range m.n[e].confl {
		m.fail(c, x, e, h)
	}
	// One handler run per failed try: its other copies, and what they guard.
	for _, other := range m.entries[h.group] {
		if m.n[other].handler.copy == h.copy {
			continue
		}
		for _, x := range m.n[other].confl {
			m.fail(c, x, e, h)
		}
		m.kill(c, other, e)
	}
	return true
}

// fail rules out x, in minimal conflict with e, which occurred as part of
// handler copy h (the zero copy when e is no handler's entry). The handler
// copies attached to x go with it, h's own apart: x was not chosen, or its
// failure is h's to handle, and either way no other handler runs for it.
func (m *matcher) fail(c config, x, e int, h handlerCopy) {
	if c[x]&in != 0 {
		return
	}
	m.kill(c, x, e)
	for _, y := range m.n[x].confl {
		if m.n[y].handler != h {
			m.kill(c, y, e)
		}
	}
}

// kill records that x can no longer occur because by did, and follows the
// consequence down: a successor goes too unless by leads to another of its
// predecessors, which makes x the alternative not taken.
func (m *matcher) kill(c config, x, by int) {
	if c[x]&(in|dead) != 0 {
		return
	}
	c[x] |= dead
next:
	for _, y := range m.n[x].succs {
		for _, q := range m.n[y].preds {
			if m.s.Leq(m.ids[by], m.ids[q]) {
				continue next
			}
		}
		m.kill(c, y, by)
	}
}
