// Package events implements the event-structure semantics of the C-Saw DSL
// (paper §8). Event structures — triples (S, ≤, #) of events, enablement and
// conflict — give the language its formal meaning: each DSL statement maps to
// a small structure of read/write/scheduling events, and composition
// operators (";", "+", "∥", "otherwise", "case", transactions) combine the
// structures per the rules of Fig. 19 and Fig. 20.
//
// The implementation follows the paper's "general, infinitary" semantics but
// bounds the unfoldings that would be infinite (retry, reconsider) by an
// explicit depth budget, replacing exhausted subtrees with a ⊥ event — the
// "weaker version of this semantics where unnecessary program behavior is
// curtailed" that the paper says implementations require (§8.5).
package events

import (
	"fmt"
	"sort"
	"strings"

	"csaw/internal/dsl"
	"csaw/internal/formula"
)

// EventID identifies an event within one Structure.
type EventID int

// LabelKind classifies event labels (paper §8.2).
type LabelKind uint8

// The label vocabulary of C-Saw's semantics.
const (
	// KindRd is RdJ(K, V): key K read as value V in junction J.
	KindRd LabelKind = iota
	// KindWr is WrJ(K, V).
	KindWr
	// KindStart is StartJ(γ).
	KindStart
	// KindStop is StopJ(γ).
	KindStop
	// KindSched is SchedJ.
	KindSched
	// KindUnsched is UnschedJ.
	KindUnsched
	// KindSynch is SynchJ(K⃗): a synchronization barrier across concurrent
	// event chains.
	KindSynch
	// KindWait is the WaitJ(n⃗, F) placeholder, decomposed by ExpandWaits.
	KindWait
	// KindAdHoc covers abstracted behaviour such as the "complain" label
	// (§8.2) and the ⊥ budget-exhaustion marker.
	KindAdHoc
)

// Label describes the activity of an event.
type Label struct {
	Kind     LabelKind
	Junction string          // the J subscript
	Key      string          // K for Rd/Wr, γ for Start/Stop, text for AdHoc
	Value    string          // V: "tt", "ff" or "*"
	Data     []string        // n⃗ for Wait
	Formula  string          // F for Wait (display form)
	Cond     formula.Formula // F for Wait, as ExpandWaits decomposes it (nil: true)
}

// String renders the label in the paper's notation.
func (l Label) String() string {
	switch l.Kind {
	case KindRd:
		return fmt.Sprintf("Rd_%s(%s,%s)", l.Junction, l.Key, l.Value)
	case KindWr:
		return fmt.Sprintf("Wr_%s(%s,%s)", l.Junction, l.Key, l.Value)
	case KindStart:
		return fmt.Sprintf("Start_%s(%s)", l.Junction, l.Key)
	case KindStop:
		return fmt.Sprintf("Stop_%s(%s)", l.Junction, l.Key)
	case KindSched:
		return "Sched_" + l.Junction
	case KindUnsched:
		return "Unsched_" + l.Junction
	case KindSynch:
		return "Synch_" + l.Junction
	case KindWait:
		return fmt.Sprintf("Wait_%s([%s],%s)", l.Junction, strings.Join(l.Data, ","), l.Formula)
	case KindAdHoc:
		return l.Key
	default:
		return fmt.Sprintf("label(%d)", l.Kind)
	}
}

// Event is (id, label, outward). Outward tracks whether the event can enable
// events through composition — manipulated by isolate for
// exception-handling composition (paper §8.3).
type Event struct {
	ID      EventID
	Label   Label
	Outward bool
	// jumps marks the last event of a spliced continuation (break, next,
	// reconsider, return, retry): control has left the statement sequence, so
	// sequential composition adds no edge from it (semantics.go, seq).
	jumps bool
	// handler is set on the first events of a copy of an otherwise's handler
	// (semantics.go, denoteOtherwise), zero elsewhere.
	handler handlerCopy
}

// handlerCopy identifies one copy of one otherwise's handler: group numbers
// the otherwise within a denotation, copy the try event the copy is attached
// to; both start at one.
type handlerCopy struct{ group, copy int }

// Structure is an event structure: events with immediate-causality edges and
// minimal-conflict pairs. The full ≤ is the reflexive-transitive closure of
// the immediate edges; the full # is derived by conflict inheritance.
type Structure struct {
	Events map[EventID]*Event
	// Enables maps e1 → the set of events it immediately enables (e1 ⪇ e2).
	Enables map[EventID]map[EventID]bool
	// Conflicts holds minimal-conflict pairs, stored symmetrically.
	Conflicts map[EventID]map[EventID]bool

	nextID EventID

	// junction and def are what DenoteJunction denoted, kept for Conforms:
	// the names a run reports are resolved against them.
	junction string
	def      *dsl.JunctionDef

	// m caches derived relations (reverse adjacency, causes sets, consistency
	// verdicts). The model checker asks Consistent the same joint-history
	// questions over and over against an immutable denotation, so the cache is
	// built lazily on first query and discarded wholesale by any mutation.
	m *memo
}

// memo is the lazily-built cache of derived relations. Cached causes sets are
// internal and read-only; the public Causes returns copies.
type memo struct {
	rev        map[EventID][]EventID
	causes     map[EventID]map[EventID]bool
	consistent map[[2]EventID]bool
}

// NewStructure returns an empty event structure.
func NewStructure() *Structure {
	return &Structure{
		Events:    map[EventID]*Event{},
		Enables:   map[EventID]map[EventID]bool{},
		Conflicts: map[EventID]map[EventID]bool{},
	}
}

// invalidate drops the derived-relation cache; every mutator calls it.
func (s *Structure) invalidate() { s.m = nil }

// memoized returns the cache, building the reverse adjacency on first use.
func (s *Structure) memoized() *memo {
	if s.m == nil {
		rev := map[EventID][]EventID{}
		for from, tos := range s.Enables {
			for to := range tos {
				rev[to] = append(rev[to], from)
			}
		}
		s.m = &memo{
			rev:        rev,
			causes:     map[EventID]map[EventID]bool{},
			consistent: map[[2]EventID]bool{},
		}
	}
	return s.m
}

// Add creates a fresh event with the given label.
func (s *Structure) Add(l Label) *Event {
	s.invalidate()
	e := &Event{ID: s.nextID, Label: l, Outward: true}
	s.nextID++
	s.Events[e.ID] = e
	return e
}

// Enable records immediate causality a ⪇ b.
func (s *Structure) Enable(a, b EventID) {
	if a == b {
		return
	}
	s.invalidate()
	m, ok := s.Enables[a]
	if !ok {
		m = map[EventID]bool{}
		s.Enables[a] = m
	}
	m[b] = true
}

// Conflict records minimal conflict between a and b (symmetric, irreflexive).
func (s *Structure) Conflict(a, b EventID) {
	if a == b {
		return
	}
	s.invalidate()
	add := func(x, y EventID) {
		m, ok := s.Conflicts[x]
		if !ok {
			m = map[EventID]bool{}
			s.Conflicts[x] = m
		}
		m[y] = true
	}
	add(a, b)
	add(b, a)
}

// Len returns the number of events.
func (s *Structure) Len() int { return len(s.Events) }

// IDs returns all event IDs in ascending order.
func (s *Structure) IDs() []EventID {
	out := make([]EventID, 0, len(s.Events))
	for id := range s.Events {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Find returns the IDs of events whose label renders to the given string.
func (s *Structure) Find(label string) []EventID {
	var out []EventID
	for _, id := range s.IDs() {
		if s.Events[id].Label.String() == label {
			out = append(out, id)
		}
	}
	return out
}

// FindOne returns the single event with the given label, or an error.
func (s *Structure) FindOne(label string) (EventID, error) {
	ids := s.Find(label)
	if len(ids) != 1 {
		return 0, fmt.Errorf("events: %d events labelled %q", len(ids), label)
	}
	return ids[0], nil
}

// Leftmost returns the ⇐ periphery: events not enabled by any other event
// (paper §8.3). For a structure with an empty enablement relation this is
// all events.
func (s *Structure) Leftmost() []EventID {
	enabled := map[EventID]bool{}
	for _, tos := range s.Enables {
		for to := range tos {
			enabled[to] = true
		}
	}
	var out []EventID
	for _, id := range s.IDs() {
		if !enabled[id] {
			out = append(out, id)
		}
	}
	return out
}

// Rightmost returns the ⇒ periphery: events that enable no other event.
func (s *Structure) Rightmost() []EventID {
	var out []EventID
	for _, id := range s.IDs() {
		if len(s.Enables[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// OutwardRightmost restricts the rightmost periphery to outward events —
// isolated events cannot enable through composition (paper §8.3).
func (s *Structure) OutwardRightmost() []EventID {
	var out []EventID
	for _, id := range s.Rightmost() {
		if s.Events[id].Outward {
			out = append(out, id)
		}
	}
	return out
}

// Isolate sets outward to false on all events (the isolate function of
// §8.3, lifted to sets).
func (s *Structure) Isolate() {
	for _, e := range s.Events {
		e.Outward = false
	}
}

// Merge unions other into s with fresh IDs; returns the ID translation map.
func (s *Structure) Merge(other *Structure) map[EventID]EventID {
	tr := make(map[EventID]EventID, len(other.Events))
	for _, id := range other.IDs() {
		e := other.Events[id]
		ne := s.Add(e.Label)
		ne.Outward, ne.jumps, ne.handler = e.Outward, e.jumps, e.handler
		tr[id] = ne.ID
	}
	for from, tos := range other.Enables {
		for to := range tos {
			s.Enable(tr[from], tr[to])
		}
	}
	for a, bs := range other.Conflicts {
		for b := range bs {
			s.Conflict(tr[a], tr[b])
		}
	}
	return tr
}

// Copy implements the ♮ map of §8.3: a fresh copy of the whole structure
// (new IDs, preserved relations), merged into s; returns the translation.
func (s *Structure) Copy(of *Structure) map[EventID]EventID { return s.Merge(of) }

// --- closures and axioms -----------------------------------------------------

// Causes returns [e] = {e' | e' ≤ e}, including e itself. The returned map is
// the caller's to mutate; the memoized set stays internal.
func (s *Structure) Causes(e EventID) map[EventID]bool {
	c := s.causesCached(e)
	out := make(map[EventID]bool, len(c))
	for k := range c {
		out[k] = true
	}
	return out
}

// causesCached returns the memoized causes set of e — read-only.
func (s *Structure) causesCached(e EventID) map[EventID]bool {
	m := s.memoized()
	if c, ok := m.causes[e]; ok {
		return c
	}
	out := map[EventID]bool{e: true}
	stack := []EventID{e}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range m.rev[cur] {
			if !out[p] {
				out[p] = true
				stack = append(stack, p)
			}
		}
	}
	m.causes[e] = out
	return out
}

// Leq reports a ≤ b (reflexive-transitive closure of immediate causality).
func (s *Structure) Leq(a, b EventID) bool { return s.causesCached(b)[a] }

// InConflict reports whether a # b under conflict inheritance:
// minimal conflicts propagate down the enablement order
// (s1#s2 ∧ s2 ≤ s3 → s1#s3).
func (s *Structure) InConflict(a, b EventID) bool {
	if a == b {
		return false
	}
	ca, cb := s.causesCached(a), s.causesCached(b)
	for x := range ca {
		for y, ok := range s.Conflicts[x] {
			if ok && cb[y] {
				return true
			}
		}
	}
	return false
}

// Consistent reports whether a and b can occur together in one configuration:
// the downward closure of {a, b} contains no minimally conflicting pair. This
// is strictly stronger than ¬InConflict: the denotation's continuation
// splicing can OR-join an event below both alternatives of a case or
// otherwise, giving a continuation copy a causal history that is itself
// inconsistent. Such a copy occurs in no configuration, so any concurrency
// involving it is an artifact of the encoding, not a behaviour.
//
// Verdicts are memoized per unordered pair: the model checker's sibling-write
// pruning asks the same joint-history questions against an immutable
// denotation throughout an exploration.
func (s *Structure) Consistent(a, b EventID) bool {
	m := s.memoized()
	key := [2]EventID{min(a, b), max(a, b)}
	if v, ok := m.consistent[key]; ok {
		return v
	}
	ca, cb := s.causesCached(a), s.causesCached(b)
	v := true
scan:
	for _, c := range [2]map[EventID]bool{ca, cb} {
		for x := range c {
			for y := range s.Conflicts[x] {
				if ca[y] || cb[y] {
					v = false
					break scan
				}
			}
		}
	}
	m.consistent[key] = v
	return v
}

// consistentUncached recomputes the joint-history scan from scratch (causes
// rebuilt per call, nothing memoized) — the original implementation, retained
// as the memoized path's property-test oracle and benchmark baseline.
func (s *Structure) consistentUncached(a, b EventID) bool {
	rebuild := func(e EventID) map[EventID]bool {
		rev := map[EventID][]EventID{}
		for from, tos := range s.Enables {
			for to := range tos {
				rev[to] = append(rev[to], from)
			}
		}
		out := map[EventID]bool{e: true}
		stack := []EventID{e}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range rev[cur] {
				if !out[p] {
					out[p] = true
					stack = append(stack, p)
				}
			}
		}
		return out
	}
	h := rebuild(a)
	for x := range rebuild(b) {
		h[x] = true
	}
	for x := range h {
		for y, ok := range s.Conflicts[x] {
			if ok && h[y] {
				return false
			}
		}
	}
	return true
}

// Concurrent reports the paper's concurrency predicate: incomparable by
// enablement and conflict-free including causes (§8.1).
func (s *Structure) Concurrent(a, b EventID) bool {
	if a == b {
		return false
	}
	if s.Leq(a, b) || s.Leq(b, a) {
		return false
	}
	return !s.InConflict(a, b)
}

// CheckAxioms verifies that the structure qualifies as an event structure:
// enablement must be acyclic (finite causes over a finite event set) and
// minimal conflict must be irreflexive and symmetric. Conflict inheritance
// holds by construction of InConflict.
func (s *Structure) CheckAxioms() error {
	// Acyclicity via Kahn's algorithm.
	indeg := map[EventID]int{}
	for _, id := range s.IDs() {
		indeg[id] = 0
	}
	for _, tos := range s.Enables {
		for to := range tos {
			indeg[to]++
		}
	}
	var queue []EventID
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	seen := 0
	for len(queue) > 0 {
		cur := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for to := range s.Enables[cur] {
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	if seen != len(s.Events) {
		return fmt.Errorf("events: enablement relation is cyclic (finite-causes axiom violated)")
	}
	for a, bs := range s.Conflicts {
		for b := range bs {
			if a == b {
				return fmt.Errorf("events: conflict is not irreflexive at %d", a)
			}
			if !s.Conflicts[b][a] {
				return fmt.Errorf("events: conflict not symmetric for (%d,%d)", a, b)
			}
		}
	}
	return nil
}

// Dot renders the structure in Graphviz DOT: solid arrows for immediate
// causality, red dashed edges for minimal conflict (the paper's zigzags).
func (s *Structure) Dot(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n", name)
	for _, id := range s.IDs() {
		e := s.Events[id]
		shape := "ellipse"
		if e.Label.Kind == KindSched || e.Label.Kind == KindUnsched {
			shape = "box"
		}
		fmt.Fprintf(&b, "  e%d [label=%q, shape=%s];\n", id, e.Label.String(), shape)
	}
	for _, from := range s.IDs() {
		for _, to := range sortedIDs(s.Enables[from]) {
			fmt.Fprintf(&b, "  e%d -> e%d;\n", from, to)
		}
	}
	// Conflict is symmetric: each pair is drawn once, from its lower end.
	for _, a := range s.IDs() {
		for _, b2 := range sortedIDs(s.Conflicts[a]) {
			if a < b2 {
				fmt.Fprintf(&b, "  e%d -> e%d [dir=none, style=dashed, color=red];\n", a, b2)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// sortedIDs returns the events of an edge set in ascending order.
func sortedIDs(set map[EventID]bool) []EventID {
	out := make([]EventID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
