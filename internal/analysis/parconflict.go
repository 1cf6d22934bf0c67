package analysis

import (
	"fmt"
	"sort"

	"csaw/internal/dsl"
	"csaw/internal/events"
	"csaw/internal/plan"
)

// ParConflict is a static race detector over parallel composition: it
// intersects the write-sets of sibling Par branches (and the replica copies
// of ParN) and flags unordered conflicting writes to the same table key.
// Candidates are cross-checked against the event-structure conflict relation
// of §8: a finding is an error only when the denotational semantics confirm
// the two writes are concurrent (incomparable under ≤ and conflict-free).
//
// Two writes conflict when their values may differ: assert (tt) against
// retract (ff), or either side a host/data write (*). Same-valued proposition
// writes are idempotent on the convergent KV table and are not flagged —
// e.g. every branch of the parallel-sharding pattern asserting
// HaveAtLeastOne is legitimate (§7.1).
var ParConflict = &Pass{
	Name: "parconflict",
	Doc:  "unordered conflicting writes from sibling Par/ParN branches, cross-checked against §8 event structures",
	Run:  runParConflict,
}

// RaceKey identifies a racy table key: the junction label and key in the
// event-structure label space (target.String() / PropRef.String(), i.e. the
// same vocabulary semantics.go uses, so the two detectors are comparable).
type RaceKey struct {
	Junction string `json:"junction"`
	Key      string `json:"key"`
}

func (k RaceKey) String() string { return fmt.Sprintf("Wr_%s(%s)", k.Junction, k.Key) }

// writeEffect is one static write in event-structure label space.
type writeEffect struct {
	RaceKey
	class string // "tt", "ff", "*"
	pos   string
	// semantic marks effects that denote Wr events in §8 semantics. Restore
	// write-sets and idx assignments are invisible there (denoted as local
	// bookkeeping), so conflicts on them are reported without cross-check.
	semantic bool
}

func classesConflict(a, b string) bool {
	return a == "*" || b == "*" || a != b
}

// collectWrites gathers every write effect of op o and the ops it contains,
// labelled j the way the §8 denotation labels Wr events.
func collectWrites(tj *plan.TypeJunction, o *plan.Op, out *[]writeEffect) {
	j := tj.FQ()
	plan.Walk([]*plan.Op{o}, func(x *plan.Op, _ []*plan.Op) {
		pos := tj.Pos(x)
		add := func(junction, key, class string, semantic bool) {
			*out = append(*out, writeEffect{RaceKey: RaceKey{Junction: junction, Key: key}, class: class, pos: pos, semantic: semantic})
		}
		switch n := x.Stmt.(type) {
		case dsl.Host:
			for _, w := range n.Writes {
				add(j, w, "*", true)
			}
		case dsl.Save:
			add(j, n.Data, "*", true)
		case dsl.Write:
			add(n.To.String(), n.Data, "*", true)
		case dsl.Assert:
			add(j, n.Prop.String(), "tt", true)
			if !n.Target.IsLocal() {
				add(n.Target.String(), n.Prop.String(), "tt", true)
			}
		case dsl.Retract:
			add(j, n.Prop.String(), "ff", true)
			if !n.Target.IsLocal() {
				add(n.Target.String(), n.Prop.String(), "ff", true)
			}
		case dsl.Restore:
			for _, w := range n.Writes {
				add(j, w, "*", false)
			}
		case dsl.IdxAssign:
			add(j, "idx "+n.Idx, "*", false)
		}
	})
}

// parCandidate is a syntactic race candidate: a conflicting write pair from
// sibling branches of one Par/ParN node.
type parCandidate struct {
	key      RaceKey
	pos      string // the Par node's path
	at       [2]string
	semantic bool
}

// ParCandidates computes the syntactic candidates for one type-level
// junction, labelled tj.FQ(). Exported for the cross-check test against the
// event-structure relation.
func ParCandidates(tj *plan.TypeJunction) []ParWritePair {
	var cands []parCandidate
	walkOps(tj, func(pos string, _ NodeCtx, o *plan.Op) {
		switch {
		case o.Kind != plan.OpPar:
		case o.N == 0:
			perBranch := make([][]writeEffect, len(o.Arms))
			for i, b := range o.Arms {
				collectWrites(tj, b, &perBranch[i])
			}
			for i := 0; i < len(perBranch); i++ {
				for k := i + 1; k < len(perBranch); k++ {
					crossBranch(pos, perBranch[i], perBranch[k], &cands)
				}
			}
		case o.N >= 2:
			// Replicated body: every copy runs concurrently with every other,
			// so ANY pair of conflicting writes in the body races across
			// copies — including a write paired with its own replica.
			var ws []writeEffect
			for _, b := range o.Arms[:len(o.Arms)/o.N] {
				collectWrites(tj, b, &ws)
			}
			for i := 0; i < len(ws); i++ {
				for k := i; k < len(ws); k++ {
					if ws[i].RaceKey == ws[k].RaceKey && classesConflict(ws[i].class, ws[k].class) {
						cands = append(cands, parCandidate{
							key: ws[i].RaceKey, pos: pos,
							at:       [2]string{ws[i].pos, ws[k].pos},
							semantic: ws[i].semantic && ws[k].semantic,
						})
					}
				}
			}
		}
	})
	views := make([]ParWritePair, len(cands))
	for i, cd := range cands {
		views[i] = ParWritePair{Key: cd.key, Pos: cd.pos, At: cd.at, Semantic: cd.semantic}
	}
	return views
}

// ParWritePair is one syntactic race candidate, in the same label space as
// the §8 event structure (so Key is directly comparable to EventRaces keys).
type ParWritePair struct {
	Key      RaceKey
	Pos      string
	At       [2]string
	Semantic bool
}

func crossBranch(parPos string, a, b []writeEffect, cands *[]parCandidate) {
	for _, w1 := range a {
		for _, w2 := range b {
			if w1.RaceKey == w2.RaceKey && classesConflict(w1.class, w2.class) {
				*cands = append(*cands, parCandidate{
					key: w1.RaceKey, pos: parPos,
					at:       [2]string{w1.pos, w2.pos},
					semantic: w1.semantic && w2.semantic,
				})
			}
		}
	}
}

// EventRaces computes the semantic race set for one junction: pairs of Wr
// events on the same (junction, key) with possibly-different values that are
// concurrent in the §8 event structure (incomparable under ≤, not in
// conflict), at the events package's default unfolding. Exported for the
// cross-check test.
func EventRaces(j string, def *dsl.JunctionDef) map[RaceKey]bool {
	s := events.DenoteJunction(j, def, events.Budget{})
	ids := s.IDs()
	var wrs []events.EventID
	for _, id := range ids {
		if s.Events[id].Label.Kind == events.KindWr {
			wrs = append(wrs, id)
		}
	}
	races := map[RaceKey]bool{}
	for i := 0; i < len(wrs); i++ {
		for k := i + 1; k < len(wrs); k++ {
			la, lb := s.Events[wrs[i]].Label, s.Events[wrs[k]].Label
			if la.Junction != lb.Junction || la.Key != lb.Key {
				continue
			}
			if !classesConflict(la.Value, lb.Value) {
				continue
			}
			// Concurrent alone can relate two control-flow copies of the same
			// statement whose histories are mutually exclusive (the OR-causal
			// continuation encoding); Consistent filters those artifacts.
			if s.Concurrent(wrs[i], wrs[k]) && s.Consistent(wrs[i], wrs[k]) {
				races[RaceKey{Junction: la.Junction, Key: la.Key}] = true
			}
		}
	}
	return races
}

func runParConflict(c *Context) []Diagnostic {
	var out []Diagnostic
	for _, tj := range c.TypeJuncs {
		j := tj.FQ()
		cands := ParCandidates(tj)
		if len(cands) == 0 {
			continue // no syntactic candidates: skip the denotation entirely
		}
		races := EventRaces(j, tj.Def)
		seen := map[string]bool{}
		emit := func(d Diagnostic) {
			k := d.Pos + "\x00" + d.Msg
			if !seen[k] {
				seen[k] = true
				out = append(out, d)
			}
		}
		for _, cd := range cands {
			switch {
			case !cd.Semantic:
				emit(Diagnostic{Severity: SevWarning, Pos: cd.Pos,
					Msg: fmt.Sprintf("parallel branches both write %s (%s and %s); restore/idx writes are unordered across branches", cd.Key, cd.At[0], cd.At[1])})
			case races[cd.Key]:
				emit(Diagnostic{Severity: SevError, Pos: cd.Pos,
					Msg: fmt.Sprintf("conflicting unordered writes to %s from sibling parallel branches (%s and %s); confirmed concurrent in the event structure", cd.Key, cd.At[0], cd.At[1])})
			default:
				emit(Diagnostic{Severity: SevWarning, Pos: cd.Pos,
					Msg: fmt.Sprintf("parallel branches both write %s (%s and %s) but the event structure orders them (curtailed unfolding?)", cd.Key, cd.At[0], cd.At[1])})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Msg < out[j].Msg
	})
	return out
}
