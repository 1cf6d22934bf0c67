package plan

import (
	"csaw/internal/analysis"
	"csaw/internal/dsl"
)

// This file holds the two judgments the runtime's group sends rest on, so
// that the runtime (which compiles groups) and the cost model (which counts
// their frames) cannot disagree about them: what a plain remote update is,
// and which adjacent ones may cross a location boundary together.

// RemoteUpdate reports whether e is a plain assert/retract/write aimed at
// another junction — a statement whose whole effect is an optional local
// table update followed by one acknowledged remote update — and names its
// target. Only such statements are ever members of a group send: the plain
// update arms of a par, and the straight-line runs UpdateRun delimits.
func RemoteUpdate(e dsl.Expr) (to dsl.JunctionRef, ok bool) {
	switch n := e.(type) {
	case dsl.Write:
		return n.To, true
	case dsl.Assert:
		return n.Target, !n.Target.IsLocal()
	case dsl.Retract:
		return n.Target, !n.Target.IsLocal()
	}
	return dsl.JunctionRef{}, false
}

// FlattenSeq splices nested Seq levels of a statement list into one list, the
// form in which statements are adjacent or not.
func FlattenSeq(body []dsl.Expr) []dsl.Expr {
	flat := make([]dsl.Expr, 0, len(body))
	for _, e := range body {
		if s, ok := e.(dsl.Seq); ok {
			flat = append(flat, FlattenSeq(s)...)
		} else {
			flat = append(flat, e)
		}
	}
	return flat
}

// FlattenPar splices nested Par branches (the right-nested chain
// ForExpr(OpPar) emits) into one branch list. Par is a barrier over its
// branches whose outcome is decided in branch order — first failure, then
// first non-none signal — so nesting only groups branches and splicing
// changes nothing observable.
func FlattenPar(branches dsl.Par) dsl.Par {
	var flat dsl.Par
	for _, b := range branches {
		if p, ok := b.(dsl.Par); ok {
			flat = append(flat, FlattenPar(p)...)
		} else {
			flat = append(flat, b)
		}
	}
	return flat
}

// UpdateRun returns how many statements at the head of a flattened statement
// list of junction ji form one straight-line run of remote updates: 0 when
// the first statement is not a plain remote update, otherwise the length of
// the longest prefix of adjacent plain remote updates the runtime may send as
// groups (consecutive members with the same destination share one envelope
// and one ack wait).
//
// Adjacency is the whole test but for one exclusion. A member's local half —
// the sender-side table update of an assert/retract whose proposition the
// sender declares too — is applied when the run starts, ahead of the
// acknowledgments of the members before it. Nothing inside the junction can
// tell (nothing runs between adjacent statements), but a formula of another
// junction that reads the proposition in-process could see it before an
// earlier member was delivered. Such a member ends the run and starts the
// next one, where its local half is applied exactly when its own statement
// would have applied it.
func UpdateRun(ji *analysis.JunctionInfo, flat []dsl.Expr) int {
	n := 0
	for _, e := range flat {
		if _, ok := RemoteUpdate(e); !ok {
			break
		}
		if n > 0 && localHalfReadRemotely(ji, e) {
			break
		}
		n++
	}
	return n
}

// localHalfReadRemotely reports whether the remote update e also sets, at the
// sending junction, a proposition that another junction's formula reads.
func localHalfReadRemotely(ji *analysis.JunctionInfo, e dsl.Expr) bool {
	var pr dsl.PropRef
	switch n := e.(type) {
	case dsl.Assert:
		pr = n.Prop
	case dsl.Retract:
		pr = n.Prop
	default:
		return false // a write has no local half
	}
	keys, _ := ji.PropKeys(pr)
	if keys == nil {
		return true // an idx family that cannot be expanded: assume the worst
	}
	for _, k := range keys {
		if ji.HasProp(k) && ji.ReadRemotely(k) {
			return true
		}
	}
	return false
}
