package dsl

import (
	"errors"
	"fmt"
	"strings"

	"csaw/internal/formula"
)

// ErrInvalid wraps all validation failures.
var ErrInvalid = errors.New("dsl: invalid program")

// PropIdx builds a formula proposition whose index is an idx variable
// resolved at runtime, e.g. ¬Work[tgt] in the parallel-sharding example
// (paper §7.1). The $-prefix marks the index for runtime substitution.
func PropIdx(base, idxVar string) formula.Prop {
	return formula.P(base + "[$" + idxVar + "]")
}

// RunningProp is the distinguished proposition name of the S(x) liveness
// predicate used in guards of the watched fail-over architecture (Fig. 16).
const RunningProp = "@running"

// Running builds the S(x) predicate as a formula: true iff the referenced
// instance/junction is running.
func Running(elem string) formula.Formula { return formula.At(elem, RunningProp) }

// SplitIdxProp decomposes a proposition name produced by PropIdx. ok is
// false for ordinary names. Only the last "[$...]" group is treated as the
// runtime-substituted index, so a base that itself contains brackets (e.g. a
// concrete indexed family "A[x]") survives intact; an empty base, an empty
// idx variable, or an idx variable containing bracket/'$' characters is
// rejected rather than mis-split.
func SplitIdxProp(name string) (base, idxVar string, ok bool) {
	if !strings.HasSuffix(name, "]") {
		return "", "", false
	}
	i := strings.LastIndex(name, "[$")
	if i <= 0 { // absent, or the base would be empty
		return "", "", false
	}
	idxVar = name[i+2 : len(name)-1]
	if idxVar == "" || strings.ContainsAny(idxVar, "[]$") {
		return "", "", false
	}
	return name[:i], idxVar, true
}

// Validate checks the rules that need no name resolution and reports every
// violation found, joined into a single error (nil when valid): the program's
// and main's shape, each junction's own declaration list, and the shape of
// every statement. Whether a name a statement or a formula uses resolves is
// plan.Compile's judgment, which calls Validate first; a type with no
// instance has nothing to resolve me:: against and is checked here only.
func Validate(p *Program) error {
	var errs []string
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}

	// Instances reference declared types; types have at least one junction.
	for _, inst := range p.InstanceNames() {
		tn := p.Instances[inst]
		t, ok := p.Types[tn]
		if !ok {
			fail("instance %q has undeclared type %q", inst, tn)
			continue
		}
		if len(t.Junctions) == 0 {
			fail("type %q (instance %q) declares no junctions", tn, inst)
		}
	}

	// main must start at least one instance (paper §6 "Start and stop"), and
	// holds only the forms plan.RunMain runs.
	if len(p.Main) == 0 {
		fail("main is empty")
	}
	starts := 0
	WalkBody(p.Main, func(e Expr) {
		switch n := e.(type) {
		case Seq, Par, Scope, Otherwise, Skip:
		case Start:
			starts++
			if _, ok := p.Instances[n.Instance]; !ok {
				fail("main starts undeclared instance %q", n.Instance)
			}
		case Stop:
			if _, ok := p.Instances[n.Instance]; !ok {
				fail("main stops undeclared instance %q", n.Instance)
			}
		default:
			fail("main may not contain statement %s", e)
		}
	})
	if starts == 0 && len(p.Main) > 0 {
		fail("main starts no instances")
	}

	for _, tn := range p.TypeNames() {
		t := p.Types[tn]
		for _, jn := range t.JunctionNames() {
			validateJunction(t.Name+"::"+jn, t.Junctions[jn], fail)
		}
	}

	validateInvariants(p, fail)
	return Invalid(errs)
}

// Invalid joins violations into one error wrapping ErrInvalid; nil when
// there are none.
func Invalid(errs []string) error {
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%w:\n  - %s", ErrInvalid, strings.Join(errs, "\n  - "))
}

// validateInvariants checks the program-level invariant declarations: names
// are unique and non-empty, and every proposition is junction-qualified and
// unindexed (invariants have no owning junction, so unqualified and
// idx-indexed propositions cannot resolve).
func validateInvariants(p *Program, fail func(string, ...any)) {
	seen := map[string]bool{}
	for _, inv := range p.Invariants {
		if inv.Name == "" {
			fail("invariant with empty name")
			continue
		}
		where := "invariant " + inv.Name
		if seen[inv.Name] {
			fail("duplicate invariant %q", inv.Name)
		}
		seen[inv.Name] = true
		if inv.Cond == nil {
			fail("%s: nil formula", where)
			continue
		}
		for _, pr := range formula.Props(inv.Cond) {
			if pr.Junction == "" {
				fail("%s: proposition %q must be junction-qualified (inst::junction@P)", where, pr.Name)
				continue
			}
			if _, _, ok := SplitIdxProp(pr.Name); ok {
				fail("%s: idx-indexed proposition %q has no idx context at program scope", where, pr.Name)
			}
		}
	}
}

// validateJunction checks one junction's declaration list and the shape of
// its statements.
func validateJunction(where string, d *JunctionDef, fail func(string, ...any)) {
	// A subset or idx ranges over a set, or over a subset that leads to one.
	sets, subsets := map[string]bool{}, map[string]string{}
	for _, dec := range d.Decls {
		switch n := dec.(type) {
		case DeclSet:
			sets[n.Name] = true
		case DeclSubset:
			subsets[n.Name] = n.Of
		}
	}
	leadsToSet := func(name string) bool {
		for hops := 0; hops <= len(subsets); hops++ {
			if sets[name] {
				return true
			}
			parent, ok := subsets[name]
			if !ok {
				return false
			}
			name = parent
		}
		return false // a cycle of subsets
	}

	// Declarations: sets resolvable, names unique.
	seen := map[string]bool{}
	for _, dec := range d.Decls {
		var name string
		switch n := dec.(type) {
		case InitProp:
			name = "prop " + n.Name
		case InitData:
			name = "data " + n.Name
		case DeclSet:
			name = "set " + n.Name
			if len(n.Elems) == 0 {
				fail("%s: set %q is empty (sets have a fixed nonzero size at compile time)", where, n.Name)
			}
			elemSeen := map[string]bool{}
			for _, e := range n.Elems {
				if elemSeen[e] {
					fail("%s: set %q has duplicate element %q", where, n.Name, e)
				}
				elemSeen[e] = true
			}
		case DeclSubset:
			name = "subset " + n.Name
			if !leadsToSet(n.Of) {
				fail("%s: subset %q of undeclared set %q", where, n.Name, n.Of)
			}
		case DeclIdx:
			name = "idx " + n.Name
			if !leadsToSet(n.Of) {
				fail("%s: idx %q of undeclared set/subset %q", where, n.Name, n.Of)
			}
		}
		if seen[name] {
			fail("%s: duplicate declaration %s", where, name)
		}
		seen[name] = true
	}

	if d.RetryLimit < 1 {
		fail("%s: retry limit must be ≥ 1", where)
	}
	checkBody(where, d.Body, fail)
}

// checkBody checks the shape of a junction's statements: where host blocks,
// next and reconsider may stand, what a case and a ∥n hold, and the
// communication to self that §6 rules out by the target's form.
func checkBody(where string, body []Expr, fail func(string, ...any)) {
	var walk func(e Expr, inTxn, inCaseArm bool)
	walk = func(e Expr, inTxn, inCaseArm bool) {
		switch n := e.(type) {
		case Host:
			if inTxn {
				fail("%s: host block %s inside transaction ⟨|…|⟩ (rollback undefined for host code)", where, n)
			}
		case Save:
			if n.From == nil {
				fail("%s: save(…, %s) has no source", where, n.Data)
			}
		case Write:
			if n.To.IsLocal() || n.To.MeJunction {
				fail("%s: write to self is redundant and disallowed (paper §6 'Communication to self')", where)
			}
		case Assert:
			if n.Target.MeJunction {
				fail("%s: assert to me::junction disallowed — use the local form assert [] P", where)
			}
		case Retract:
			if n.Target.MeJunction {
				fail("%s: retract to me::junction disallowed — use the local form retract [] P", where)
			}
		case Next:
			if !inCaseArm {
				fail("%s: next outside case arm", where)
			}
		case Reconsider:
			if !inCaseArm {
				fail("%s: reconsider outside case arm", where)
			}
		case Case:
			if len(n.Arms) == 0 {
				fail("%s: case with no guarded arms (cannot be empty or only contain otherwise)", where)
			}
			if len(n.Arms) > 0 && n.Arms[len(n.Arms)-1].Term == TermNext {
				fail("%s: next cannot be used immediately before otherwise", where)
			}
		case ParN:
			if n.N < 1 {
				fail("%s: ∥n with n < 1", where)
			}
		}

		// Recurse with context flags.
		switch n := e.(type) {
		case Seq:
			for _, c := range n {
				walk(c, inTxn, inCaseArm)
			}
		case Par:
			for _, c := range n {
				walk(c, inTxn, inCaseArm)
			}
		case ParN:
			for _, c := range n.Body {
				walk(c, inTxn, inCaseArm)
			}
		case Scope:
			for _, c := range n.Body {
				walk(c, inTxn, inCaseArm)
			}
		case Txn:
			for _, c := range n.Body {
				walk(c, true, inCaseArm)
			}
		case Otherwise:
			walk(n.Try, inTxn, inCaseArm)
			walk(n.Handler, inTxn, inCaseArm)
		case If:
			walk(n.Then, inTxn, inCaseArm)
			if n.Else != nil {
				walk(n.Else, inTxn, inCaseArm)
			}
		case Case:
			for _, a := range n.Arms {
				for _, c := range a.Body {
					walk(c, inTxn, true)
				}
			}
			for _, c := range n.Otherwise {
				walk(c, inTxn, true)
			}
		}
	}
	for _, e := range body {
		walk(e, false, false)
	}
}
