package events

import (
	"fmt"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

// Denote maps DSL expressions to event structures per Fig. 19 / Fig. 20.
//
// Two documented simplifications relative to the paper's infinitary rules,
// both of which only remove the redundant copies that §8.5 says can be
// "eliminated — either during a later deflationary pass or by construction":
//
//  1. Parallel composition (+, ∥) denotes the plain union of the operand
//     structures (true concurrency). The paper's ∥ rule additionally
//     manufactures per-interleaving copies of each operand, which are
//     subsumed behaviour.
//  2. The wait expansion connects each DNF disjunct to the shared successor
//     events instead of duplicating the successors per disjunct.

// Budget bounds the unfolding of retry/reconsider (which are syntactically
// bounded in the language but infinitary in the paper's semantics).
type Budget struct {
	// Unfold is how many times retry/reconsider may be expanded before the
	// subtree is replaced by a ⊥ event.
	Unfold int
}

func (b Budget) fill() Budget {
	if b.Unfold <= 0 {
		b.Unfold = 1
	}
	return b
}

// env is the η parameter of the semantics (§8.3): a finite map from the
// control keywords to the DSL statements they currently denote.
type env struct {
	sub        any // dsl.Expr or an internal marker
	ret        any
	brk        any
	reconsider any
	next       any
}

func initialEnv() env {
	return env{sub: dsl.Skip{}, ret: bodyEnd{}, brk: dsl.Skip{}, reconsider: dsl.Skip{}, next: dsl.Skip{}}
}

// bodyEnd is an internal marker: where a return outside every scope and
// transaction goes, past the last statement of the junction body. It denotes
// nothing, yet a return to it skips every statement the compositions around
// the return would sequence after it. The other keywords' continuations are
// cut at each composition's boundary (η.sub is the rest of the innermost
// sequence, and a par branch's ends at its join), so an empty one of those
// still falls through to what the composition sequences next.
type bodyEnd struct{}

// denoter carries the fixed junction J and the unfolding budget.
type denoter struct {
	junction string
	body     dsl.Expr // the junction body, for retry
	budget   int
	handlers int // otherwise expressions denoted so far (handlerCopy.group)
}

// DenoteExpr maps a single expression (evaluated in junction j) to an event
// structure with waits still as placeholders; see ExpandWaits.
func DenoteExpr(j string, e dsl.Expr, b Budget) *Structure {
	b = b.fill()
	d := &denoter{junction: j, body: e, budget: b.Unfold}
	return d.denote(e, initialEnv(), b.Unfold)
}

// DenoteJunction maps a junction definition to its event structure: the
// boxed Sched_J event, the body, and Unsched_J (as in Fig. 18 / Fig. 21).
func DenoteJunction(j string, def *dsl.JunctionDef, b Budget) *Structure {
	b = b.fill()
	body := dsl.Seq(def.Body)
	d := &denoter{junction: j, body: body, budget: b.Unfold}
	s := NewStructure()
	sched := s.Add(Label{Kind: KindSched, Junction: j})
	bodyS := d.denote(body, initialEnv(), b.Unfold)
	tr := s.Merge(bodyS)
	for _, id := range leftmostOf(bodyS, tr) {
		s.Enable(sched.ID, id)
	}
	unsched := s.Add(Label{Kind: KindUnsched, Junction: j})
	if bodyS.Len() == 0 {
		s.Enable(sched.ID, unsched.ID)
	} else {
		for _, id := range rightmostOf(bodyS, tr) {
			s.Enable(id, unsched.ID)
		}
	}
	return s
}

func leftmostOf(sub *Structure, tr map[EventID]EventID) []EventID {
	ids := sub.Leftmost()
	out := make([]EventID, len(ids))
	for i, id := range ids {
		out[i] = tr[id]
	}
	return out
}

func rightmostOf(sub *Structure, tr map[EventID]EventID) []EventID {
	ids := sub.Rightmost()
	out := make([]EventID, len(ids))
	for i, id := range ids {
		out[i] = tr[id]
	}
	return out
}

// seq composes s1 ; s2 into a fresh structure per the E1;E2 rule: union plus
// edges from the rightmost periphery of s1 to the leftmost periphery of s2.
//
// A path of s1 that ended in a control transfer already carries its own copy
// of what follows (jump), so it gets no edge: the copy of s2 after it would be
// the redundant behaviour §8.5 says is eliminated "by construction". When
// every path of s1 ends that way, s2 is unreachable and dropped.
func seq(s1, s2 *Structure) *Structure {
	if s1.Len() == 0 {
		return s2
	}
	if s2.Len() == 0 {
		return s1
	}
	var exits []EventID
	for _, id := range s1.Rightmost() {
		if !s1.Events[id].jumps {
			exits = append(exits, id)
		}
	}
	if len(exits) == 0 {
		return s1
	}
	out := NewStructure()
	tr1 := out.Merge(s1)
	tr2 := out.Merge(s2)
	for _, from := range exits {
		for _, to := range leftmostOf(s2, tr2) {
			out.Enable(tr1[from], to)
		}
	}
	return out
}

// jump denotes a control transfer to the statements cont stands for: their
// structure, with its last events marked as not falling through to whatever
// is sequenced after the transferring statement. A return to the end of the
// body still transfers control though it denotes nothing: it is one ε event
// marked so, as an empty otherwise handler is, or the statements after it
// would be sequenced as if it fell through.
func (d *denoter) jump(cont any, η env, budget int) *Structure {
	s := d.denote(cont, η, budget)
	if _, end := cont.(bodyEnd); end {
		s.Add(Label{Kind: KindAdHoc, Junction: d.junction, Key: "ε"})
	}
	for _, id := range s.Rightmost() {
		s.Events[id].jumps = true
	}
	return s
}

// union composes structures without any ordering (parallel composition).
func union(ss ...*Structure) *Structure {
	out := NewStructure()
	for _, s := range ss {
		out.Merge(s)
	}
	return out
}

func (d *denoter) denote(e any, η env, budget int) *Structure {
	J := d.junction
	if s, ok := d.denoteMarker(e, η, budget); ok {
		return s
	}
	switch n := e.(type) {
	case nil:
		return NewStructure()
	case dsl.Skip:
		return NewStructure()
	case dsl.Restore:
		// [[restore(n, ...)]] = (∅, ∅, ∅) — a local read with no event. A
		// restore whose host function declares a write-set is a host block as
		// well, and denotes that block's writes.
		return hostWrites(J, n.Writes)
	case dsl.Keep, dsl.IdxAssign:
		// Local bookkeeping on the table; no communication events.
		return NewStructure()

	case dsl.Host:
		return hostWrites(J, n.Writes)

	case dsl.Save:
		s := NewStructure()
		s.Add(Label{Kind: KindWr, Junction: J, Key: n.Data, Value: "*"})
		return s

	case dsl.Write:
		s := NewStructure()
		s.Add(Label{Kind: KindWr, Junction: n.To.String(), Key: n.Data, Value: "*"})
		return s

	case dsl.Assert:
		return propUpdate(J, n.Target, n.Prop, "tt")
	case dsl.Retract:
		return propUpdate(J, n.Target, n.Prop, "ff")

	case dsl.Wait:
		s := NewStructure()
		f := "true"
		if n.Cond != nil {
			f = n.Cond.String()
		}
		s.Add(Label{Kind: KindWait, Junction: J, Data: append([]string(nil), n.Data...), Formula: f, Cond: n.Cond})
		return s

	case dsl.Verify:
		// Verify reads its formula; denoted by the formula's read structure.
		return formulaStructure(J, n.Cond)

	case dsl.Start:
		s := NewStructure()
		s.Add(Label{Kind: KindStart, Junction: J, Key: n.Instance})
		return s
	case dsl.Stop:
		s := NewStructure()
		s.Add(Label{Kind: KindStop, Junction: J, Key: n.Instance})
		return s

	// The continuation splices below ([[return]] = [[η(return)]] and
	// friends) are where the paper's semantics become infinitary: a break's
	// continuation may itself contain the same case whose break splices the
	// continuation again. Each splice therefore consumes budget; exhausted
	// splices denote the empty structure — the "weaker version of this
	// semantics where unnecessary program behavior is curtailed" (§8.5).
	case dsl.Return:
		if budget <= 0 {
			return NewStructure()
		}
		return d.jump(η.ret, η, budget-1)
	case dsl.Break:
		if budget <= 0 {
			return NewStructure()
		}
		return d.jump(η.brk, η, budget-1)
	case dsl.Next:
		if budget <= 0 {
			return NewStructure()
		}
		return d.jump(η.next, η, budget-1)
	case dsl.Reconsider:
		if budget <= 0 {
			return NewStructure()
		}
		return d.jump(η.reconsider, η, budget-1)
	case dsl.Retry:
		// [[retry]] = [[J]]: the junction body again. The budget counts
		// total body instances, so a budget of 1 leaves no unfoldings.
		if budget <= 1 {
			return bottom(J)
		}
		return d.jump(d.body, initialEnv(), budget-1)

	case dsl.Seq:
		if len(n) == 0 {
			return NewStructure()
		}
		if len(n) == 1 {
			return d.denote(n[0], η, budget)
		}
		rest := dsl.Seq(n[1:])
		head := d.denote(n[0], envWith(η, func(e *env) { e.sub = rest }), budget)
		tail := d.denote(rest, η, budget)
		return seq(head, tail)

	// Nothing follows a branch of a parallel composition but the join: what
	// comes after the composition is sequenced after all of it, not spliced
	// into each branch by the first break or return a branch contains.
	case dsl.Par:
		ηb := envWith(η, func(e *env) { e.sub = dsl.Skip{} })
		ss := make([]*Structure, len(n))
		for i, c := range n {
			ss[i] = d.denote(c, ηb, budget)
		}
		return union(ss...)

	case dsl.ParN:
		ηb := envWith(η, func(e *env) { e.sub = dsl.Skip{} })
		var ss []*Structure
		for i := 0; i < n.N; i++ {
			for _, c := range n.Body {
				ss = append(ss, d.denote(c, ηb, budget))
			}
		}
		return union(ss...)

	case dsl.Scope:
		// [[⟨E⟩]]η = [[E]]^{η{return ↦ η(sub)}}.
		return d.denote(dsl.Seq(n.Body), envWith(η, func(e *env) { e.ret = η.sub }), budget)

	case dsl.Txn:
		// [[⟨|E|⟩]]: isolate the body and prefix it with a Synch event.
		body := d.denote(dsl.Seq(n.Body), envWith(η, func(e *env) { e.ret = η.sub }), budget)
		body.Isolate()
		out := NewStructure()
		synch := out.Add(Label{Kind: KindSynch, Junction: J})
		tr := out.Merge(body)
		for _, id := range leftmostOf(body, tr) {
			out.Enable(synch.ID, id)
		}
		return out

	case dsl.Otherwise:
		return d.denoteOtherwise(n, η, budget)

	case dsl.If:
		// Sugar: case { Cond ⇒ Then; break | otherwise ⇒ Else }.
		els := n.Else
		if els == nil {
			els = dsl.Skip{}
		}
		c := dsl.Case{
			Arms:      []dsl.CaseArm{dsl.Arm(n.Cond, dsl.TermBreak, n.Then)},
			Otherwise: []dsl.Expr{els},
		}
		return d.denoteCase(c, η, budget)

	case dsl.Case:
		return d.denoteCase(n, η, budget)

	default:
		return bottom(J)
	}
}

// hostWrites is [[⌊H⌉{V⃗}]] = ⋃_{v∈V⃗} {Wr_J(v,*)}.
func hostWrites(j string, writes []string) *Structure {
	s := NewStructure()
	for _, v := range writes {
		s.Add(Label{Kind: KindWr, Junction: j, Key: v, Value: "*"})
	}
	return s
}

func envWith(η env, f func(*env)) env {
	f(&η)
	return η
}

// bottom is the ⊥ budget-exhaustion event.
func bottom(j string) *Structure {
	s := NewStructure()
	s.Add(Label{Kind: KindAdHoc, Junction: j, Key: "⊥"})
	return s
}

// propUpdate denotes assert/retract: Wr_J(P,v) plus, for a non-local target,
// Wr_γ(P,v) — unordered (the two table updates are concurrent).
func propUpdate(j string, target dsl.JunctionRef, pr dsl.PropRef, v string) *Structure {
	s := NewStructure()
	s.Add(Label{Kind: KindWr, Junction: j, Key: pr.String(), Value: v})
	if !target.IsLocal() {
		s.Add(Label{Kind: KindWr, Junction: target.String(), Key: pr.String(), Value: v})
	}
	return s
}

// denoteOtherwise implements the E1 otherwise E2 rule: the events of E1 are
// isolated, and a fresh copy of [[E2]] is attached at every event e of E1 —
// enabled by e's immediate predecessors and in minimal conflict with e
// (either e occurs or its failure handler runs).
func (d *denoter) denoteOtherwise(n dsl.Otherwise, η env, budget int) *Structure {
	s1 := d.denote(n.Try, η, budget)
	s2 := d.denote(n.Handler, η, budget)
	if s1.Len() == 0 {
		// Nothing can fail; the handler is unreachable.
		return s1
	}
	if s2.Len() == 0 {
		// "Either e occurs or its failure handler runs" needs an event to be in
		// conflict with e even when the handler does nothing: without one, a
		// configuration in which e failed and what follows the otherwise went
		// on would not be downward-closed.
		s2.Add(Label{Kind: KindAdHoc, Junction: d.junction, Key: "ε"})
	}
	out := NewStructure()
	tr1 := out.Merge(s1)
	// Record predecessor sets before adding handler copies.
	preds := map[EventID][]EventID{}
	for from, tos := range s1.Enables {
		for to := range tos {
			preds[tr1[to]] = append(preds[tr1[to]], tr1[from])
		}
	}
	d.handlers++
	for k, origID := range s1.IDs() {
		e := tr1[origID]
		out.Events[e].Outward = false // isolate(S[[E1]])
		trC := out.Copy(s2)
		entry := leftmostOf(s2, trC)
		for _, en := range entry {
			out.Events[en].handler = handlerCopy{group: d.handlers, copy: k + 1}
		}
		for _, p := range preds[e] {
			for _, en := range entry {
				out.Enable(p, en)
			}
		}
		for _, en := range entry {
			out.Conflict(e, en)
		}
	}
	return out
}

// formulaStructure builds the guard structure of §8.3: the formula's DNF
// decomposed into strict alternatives of parallel read events, each
// alternative prefixed by a Synch when it contains more than one literal.
// Alternatives are in pairwise minimal conflict.
func formulaStructure(j string, f formula.Formula) *Structure {
	s := NewStructure()
	if f == nil {
		return s
	}
	dnf := formula.ToDNF(f)
	var entries []EventID
	for _, clause := range dnf {
		if len(clause) == 0 {
			continue
		}
		if len(dnf) == 1 && len(clause) == 1 {
			// Single read; no Synch needed (cf. Fig. 18's Rd_f(Work,ff)).
			entries = append(entries, s.Add(readLabel(j, clause[0])).ID)
			continue
		}
		synch := s.Add(Label{Kind: KindSynch, Junction: j})
		entries = append(entries, synch.ID)
		for _, lit := range clause {
			rd := s.Add(readLabel(j, lit))
			s.Enable(synch.ID, rd.ID)
		}
	}
	for i := 0; i < len(entries); i++ {
		for k := i + 1; k < len(entries); k++ {
			s.Conflict(entries[i], entries[k])
		}
	}
	return s
}

func readLabel(j string, lit formula.Literal) Label {
	v := "tt"
	if lit.Negated {
		v = "ff"
	}
	jn := j
	if lit.Prop.Junction != "" {
		jn = lit.Prop.Junction
	}
	return Label{Kind: KindRd, Junction: jn, Key: lit.Prop.Name, Value: v}
}

// denoteCase implements the case(i) recursion of §8.3: for each arm i, the
// guard structure [[Fi]] enables [[Ei;Ti]], the complementary structure
// [[¬Fi]] enables case(i+1), and the two guard structures are in minimal
// conflict.
func (d *denoter) denoteCase(c dsl.Case, η env, budget int) *Structure {
	ηp := envWith(η, func(e *env) { e.brk = η.sub; e.reconsider = reconsiderExpr{c} })
	return d.caseFrom(c, 0, ηp, budget)
}

// reconsiderExpr is an internal marker: η(reconsider) maps to the whole case
// expression, re-denoted with a decremented budget to keep the structure
// finite.
type reconsiderExpr struct{ c dsl.Case }

func (d *denoter) caseFrom(c dsl.Case, i int, η env, budget int) *Structure {
	J := d.junction
	if i >= len(c.Arms) {
		// case(n): the otherwise branch with next undefined.
		ηn := envWith(η, func(e *env) { e.next = dsl.Skip{} })
		return d.denote(dsl.Seq(c.Otherwise), ηn, budget)
	}
	arm := c.Arms[i]

	rest := dsl.Case{Arms: c.Arms[i+1:], Otherwise: c.Otherwise}
	ηi := envWith(η, func(e *env) {
		if len(rest.Arms) > 0 {
			e.next = caseNextExpr{rest}
		} else {
			e.next = dsl.Seq(c.Otherwise)
		}
	})

	guard := formulaStructure(J, arm.Cond)
	notGuard := formulaStructure(J, formula.Not(arm.Cond))
	body := seq(d.denote(dsl.Seq(arm.Body), ηi, budget), d.denote(termExpr(arm.Term), ηi, budget))
	restS := d.caseFrom(c, i+1, η, budget)

	out := NewStructure()
	trG := out.Merge(guard)
	trB := out.Merge(body)
	for _, g := range rightmostOf(guard, trG) {
		for _, b := range leftmostOf(body, trB) {
			out.Enable(g, b)
		}
	}
	trN := out.Merge(notGuard)
	trR := out.Merge(restS)
	for _, g := range rightmostOf(notGuard, trN) {
		for _, r := range leftmostOf(restS, trR) {
			out.Enable(g, r)
		}
	}
	// The two guard alternatives are in minimal conflict.
	for _, a := range leftmostOf(guard, trG) {
		for _, b := range leftmostOf(notGuard, trN) {
			out.Conflict(a, b)
		}
	}
	return out
}

// caseNextExpr denotes `next`: the reduced case expression (function N of
// §8.3).
type caseNextExpr struct{ c dsl.Case }

// termExpr converts an arm terminator into the statement it denotes.
func termExpr(t dsl.Terminator) dsl.Expr {
	switch t {
	case dsl.TermBreak:
		return dsl.Break{}
	case dsl.TermNext:
		return dsl.Next{}
	case dsl.TermReconsider:
		return dsl.Reconsider{}
	default:
		return dsl.Skip{}
	}
}

// denoteMarker dispatches the internal marker expressions; they never appear
// in user programs, only through η.
func (d *denoter) denoteMarker(e any, η env, budget int) (*Structure, bool) {
	switch n := e.(type) {
	case bodyEnd:
		return NewStructure(), true
	case reconsiderExpr:
		if budget <= 0 {
			return bottom(d.junction), true
		}
		return d.denoteCase(n.c, η, budget-1), true
	case caseNextExpr:
		return d.caseFrom(n.c, 0, η, budget), true
	}
	return nil, false
}

// ExpandWaits replaces every WaitJ(n⃗, F) placeholder with the staged
// pattern of §8.5: first the DNF decomposition of F (strict alternatives of
// reads), then the reads of the data keys n⃗, connected between the wait's
// predecessors and successors.
func ExpandWaits(s *Structure) {
	for _, id := range s.IDs() {
		e, ok := s.Events[id]
		if !ok || e.Label.Kind != KindWait {
			continue
		}
		preds, succs := neighbours(s, id)
		removeEvent(s, id)

		f := e.Label.Cond
		if f == nil {
			f = formula.TrueF()
		}
		guard := formulaStructure(e.Label.Junction, f)
		tr := s.Merge(guard)

		// Per-alternative chains: entry(guard alt) … reads … data reads.
		exits := rightmostOf(guard, tr)
		entries := leftmostOf(guard, tr)
		if guard.Len() == 0 {
			// Formula was trivially true: data reads connect directly.
			entries, exits = nil, nil
		}

		var finals []EventID
		if len(e.Label.Data) > 0 {
			if len(exits) == 0 {
				// No guard events: one shared set of data reads.
				var reads []EventID
				for _, n := range e.Label.Data {
					reads = append(reads, s.Add(Label{Kind: KindRd, Junction: e.Label.Junction, Key: n, Value: "*"}).ID)
				}
				for _, p := range preds {
					for _, r := range reads {
						s.Enable(p, r)
					}
				}
				finals = reads
			} else {
				// Fresh data-read copies per guard exit (the "staged"
				// pattern: establish F, then read n⃗).
				for _, x := range exits {
					for _, n := range e.Label.Data {
						rd := s.Add(Label{Kind: KindRd, Junction: e.Label.Junction, Key: n, Value: "*"})
						s.Enable(x, rd.ID)
						finals = append(finals, rd.ID)
					}
				}
			}
		} else {
			finals = exits
		}

		for _, p := range preds {
			for _, en := range entries {
				s.Enable(p, en)
			}
			if len(entries) == 0 && len(finals) == 0 {
				// Degenerate wait (true, no data): connect around.
				for _, sc := range succs {
					s.Enable(p, sc)
				}
			}
		}
		for _, fn := range finals {
			for _, sc := range succs {
				s.Enable(fn, sc)
			}
		}
	}
}

func neighbours(s *Structure, id EventID) (preds, succs []EventID) {
	for from, tos := range s.Enables {
		if tos[id] {
			preds = append(preds, from)
		}
	}
	for to := range s.Enables[id] {
		succs = append(succs, to)
	}
	return preds, succs
}

func removeEvent(s *Structure, id EventID) {
	delete(s.Events, id)
	delete(s.Enables, id)
	for _, tos := range s.Enables {
		delete(tos, id)
	}
	delete(s.Conflicts, id)
	for _, cs := range s.Conflicts {
		delete(cs, id)
	}
}

// --- program-level semantics ---------------------------------------------------

// StartUp builds the start-up portion of a program's semantics (§8.4): the
// externally-occurring main event enables a Start_init(ι) event per start main
// makes as it runs (plan.ModelMain), which enables the Wr events initializing
// the started instance's declared propositions, named as declared.
func StartUp(pp *plan.Program) *Structure {
	s := NewStructure()
	main := s.Add(Label{Kind: KindAdHoc, Junction: "init", Key: "main"})
	_ = plan.ModelMain(pp.Prog.Main, func(inst string) {
		ev := s.Add(Label{Kind: KindStart, Junction: "init", Key: inst})
		s.Enable(main.ID, ev.ID)
		for _, j := range pp.Juncs {
			if j.Inst != inst {
				continue
			}
			for _, ip := range j.InitProps() {
				v := "ff"
				if ip.Init {
					v = "tt"
				}
				wr := s.Add(Label{Kind: KindWr, Junction: displayName(pp.Prog, inst, j.Jn), Key: ip.Name, Value: v})
				s.Enable(ev.ID, wr.ID)
			}
		}
	}, func(string) {})
	return s
}

// displayName labels junction subscripts the way the paper does: the bare
// instance name when the type has a single junction, otherwise
// instance::junction.
func displayName(p *dsl.Program, inst, jn string) string {
	t := p.Types[p.Instances[inst]]
	if t != nil && len(t.Junctions) == 1 {
		return inst
	}
	return inst + "::" + jn
}

// DenoteProgram builds the complete program semantics of a compiled program:
// the start-up portion plus each started instance's junction structures, with
// waits expanded.
func DenoteProgram(pp *plan.Program, b Budget) (*Structure, error) {
	out := StartUp(pp)
	for _, j := range pp.Juncs {
		out.Merge(DenoteJunction(displayName(pp.Prog, j.Inst, j.Jn), j.Def, b))
	}
	ExpandWaits(out)
	if err := out.CheckAxioms(); err != nil {
		return nil, fmt.Errorf("events: program semantics violate axioms: %w", err)
	}
	return out, nil
}
