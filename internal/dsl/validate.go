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

// Validate checks the paper's well-formedness rules and reports every
// violation found, joined into a single error (nil when valid).
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

	// main must start at least one instance (paper §6 "Start and stop").
	if len(p.Main) == 0 {
		fail("main is empty")
	}
	starts := 0
	WalkBody(p.Main, func(e Expr) {
		switch n := e.(type) {
		case Start:
			starts++
			if _, ok := p.Instances[n.Instance]; !ok {
				fail("main starts undeclared instance %q", n.Instance)
			}
		case Stop:
			if _, ok := p.Instances[n.Instance]; !ok {
				fail("main stops undeclared instance %q", n.Instance)
			}
		case Host, Save, Restore, Wait, Assert, Retract, Write:
			fail("main may not contain junction-state statement %s", e)
		}
	})
	if starts == 0 && len(p.Main) > 0 {
		fail("main starts no instances")
	}

	for _, tn := range p.TypeNames() {
		t := p.Types[tn]
		for _, jn := range t.JunctionNames() {
			validateJunction(p, t, t.Junctions[jn], fail)
		}
	}

	validateInvariants(p, fail)

	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%w:\n  - %s", ErrInvalid, strings.Join(errs, "\n  - "))
}

// validateInvariants checks the program-level invariant declarations: names
// are unique and non-empty, and every proposition is junction-qualified and
// declared at its target (invariants have no owning junction, so unqualified
// and idx-indexed propositions cannot resolve).
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
				continue
			}
			inst, jn, ok := strings.Cut(pr.Junction, "::")
			if !ok {
				var err error
				inst, jn, err = resolveElemJunction(p, pr.Junction)
				if err != nil {
					fail("%s: unresolvable junction %q: %v", where, pr.Junction, err)
					continue
				}
			}
			def, err := p.JunctionDefOf(inst, jn)
			if err != nil {
				fail("%s: unresolvable junction %q: %v", where, pr.Junction, err)
				continue
			}
			if strings.HasPrefix(pr.Name, "@") {
				continue // runtime-provided predicate (e.g. @running)
			}
			if !propDeclared(collectDecls(def), pr.Name) {
				fail("%s: proposition %q not declared at %s::%s", where, pr.Name, inst, jn)
			}
		}
	}
}

// declInfo summarizes a junction's declared names.
type declInfo struct {
	props   map[string]bool
	data    map[string]bool
	sets    map[string][]string
	subsets map[string]string // subset -> parent set
	idxs    map[string]string // idx -> underlying set/subset
}

func collectDecls(d *JunctionDef) declInfo {
	di := declInfo{
		props:   map[string]bool{},
		data:    map[string]bool{},
		sets:    map[string][]string{},
		subsets: map[string]string{},
		idxs:    map[string]string{},
	}
	for _, dec := range d.Decls {
		switch n := dec.(type) {
		case InitProp:
			di.props[n.Name] = true
		case InitData:
			di.data[n.Name] = true
		case DeclSet:
			di.sets[n.Name] = n.Elems
		case DeclSubset:
			di.subsets[n.Name] = n.Of
		case DeclIdx:
			di.idxs[n.Name] = n.Of
		}
	}
	return di
}

// setElems resolves a set or subset name to its (statically known) element
// universe: subsets resolve to their parent set's elements.
func (di declInfo) setElems(name string) ([]string, bool) {
	if elems, ok := di.sets[name]; ok {
		return elems, true
	}
	if parent, ok := di.subsets[name]; ok {
		return di.setElems(parent)
	}
	return nil, false
}

func validateJunction(p *Program, t *InstanceType, d *JunctionDef, fail func(string, ...any)) {
	where := t.Name + "::" + d.Name
	di := collectDecls(d)

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
			if _, ok := di.setElems(n.Of); !ok {
				fail("%s: subset %q of undeclared set %q", where, n.Name, n.Of)
			}
		case DeclIdx:
			name = "idx " + n.Name
			if _, ok := di.setElems(n.Of); !ok {
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

	// Guard formula references declared local propositions.
	if d.Guard != nil {
		checkFormula(p, di, where+" guard", d.Guard, fail)
	}

	checkBody(p, t, d, di, where, d.Body, false, fail)
}

func checkFormula(p *Program, di declInfo, where string, f formula.Formula, fail func(string, ...any)) {
	for _, pr := range formula.Props(f) {
		if strings.HasPrefix(pr.Name, "@") {
			// Names beginning with '@' are runtime-provided predicates
			// (e.g. @running, the S(x) liveness predicate) and need no
			// declaration.
			continue
		}
		if pr.Junction != "" {
			// Remote proposition γ@P: best effort — resolve concrete refs.
			if inst, jn, ok := strings.Cut(pr.Junction, "::"); ok {
				if def, err := p.JunctionDefOf(inst, jn); err == nil {
					rdi := collectDecls(def)
					if !propDeclared(rdi, pr.Name) {
						fail("%s: remote proposition %s@%s not declared there", where, pr.Junction, pr.Name)
					}
				}
			}
			continue
		}
		if base, idxVar, ok := SplitIdxProp(pr.Name); ok {
			// Idx-indexed proposition: the idx must be declared and every
			// element's instantiation must be declared.
			setName, ok := di.idxs[idxVar]
			if !ok {
				fail("%s: formula indexes proposition %s by undeclared idx %q", where, base, idxVar)
				continue
			}
			elems, _ := di.setElems(setName)
			for _, e := range elems {
				if !di.props[IndexedName(base, e)] {
					fail("%s: proposition %s undeclared for element %q", where, base, e)
				}
			}
			continue
		}
		if !di.props[pr.Name] {
			fail("%s: proposition %q not declared", where, pr.Name)
		}
	}
}

func propDeclared(di declInfo, name string) bool {
	if di.props[name] {
		return true
	}
	// Indexed names resolve at runtime (idx variables, me:: self tokens, or
	// per-instance elements): accept any declaration of the same family, in
	// particular families declared with a me:: token whose concrete key is
	// only known per instance.
	if i := strings.Index(name, "["); i > 0 && strings.HasSuffix(name, "]") {
		base := name[:i]
		for declared := range di.props {
			if strings.HasPrefix(declared, base+"[") {
				return true
			}
		}
	}
	return false
}

// checkPropRef validates an assert/retract proposition reference against the
// declaring junction's decls.
func checkPropRef(di declInfo, where string, pr PropRef, fail func(string, ...any)) {
	if pr.Index == "" {
		if !di.props[pr.Base] {
			fail("%s: proposition %q not declared", where, pr.Base)
		}
		return
	}
	if pr.IndexIsVar {
		setName, ok := di.idxs[pr.Index]
		if !ok {
			fail("%s: idx %q not declared", where, pr.Index)
			return
		}
		elems, _ := di.setElems(setName)
		for _, e := range elems {
			if !di.props[IndexedName(pr.Base, e)] {
				fail("%s: proposition %s undeclared for element %q", where, pr.Base, e)
			}
		}
		return
	}
	if !di.props[IndexedName(pr.Base, pr.Index)] {
		fail("%s: proposition %s not declared", where, pr)
	}
}

func checkBody(p *Program, t *InstanceType, d *JunctionDef, di declInfo, where string, body []Expr, inTxn bool, fail func(string, ...any)) {
	var walk func(e Expr, inTxn, inCaseArm bool)
	walk = func(e Expr, inTxn, inCaseArm bool) {
		switch n := e.(type) {
		case Host:
			if inTxn {
				fail("%s: host block %s inside transaction ⟨|…|⟩ (rollback undefined for host code)", where, n)
			}
			for _, w := range n.Writes {
				if !di.props[w] && !di.data[w] && di.idxs[w] == "" && di.subsets[w] == "" {
					if _, isIdx := di.idxs[w]; !isIdx {
						if _, isSub := di.subsets[w]; !isSub {
							fail("%s: host block %s writes undeclared name %q", where, n.Label, w)
						}
					}
				}
			}
		case Save:
			if !di.data[n.Data] {
				fail("%s: save targets undeclared data %q", where, n.Data)
			}
			if n.From == nil {
				fail("%s: save(…, %s) has no source", where, n.Data)
			}
		case Restore:
			if !di.data[n.Data] {
				fail("%s: restore reads undeclared data %q", where, n.Data)
			}
			for _, w := range n.Writes {
				if !di.props[w] && !di.data[w] && di.idxs[w] == "" && di.subsets[w] == "" {
					fail("%s: restore write-set names undeclared %q", where, w)
				}
			}
		case Write:
			if !di.data[n.Data] {
				fail("%s: write pushes undeclared data %q", where, n.Data)
			}
			if n.To.IsLocal() || n.To.MeJunction {
				fail("%s: write to self is redundant and disallowed (paper §6 'Communication to self')", where)
			}
			checkTarget(p, t, di, where, n.To, fail)
		case Assert:
			if n.Target.MeJunction {
				fail("%s: assert to me::junction disallowed — use the local form assert [] P", where)
			}
			checkTarget(p, t, di, where, n.Target, fail)
			// The proposition must be declared wherever the assertion lands;
			// for the local/self case check our own decls.
			if n.Target.IsLocal() {
				checkPropRef(di, where, n.Prop, fail)
			} else {
				checkRemoteProp(p, t, di, where, n.Target, n.Prop, fail)
			}
		case Retract:
			if n.Target.MeJunction {
				fail("%s: retract to me::junction disallowed — use the local form retract [] P", where)
			}
			checkTarget(p, t, di, where, n.Target, fail)
			if n.Target.IsLocal() {
				checkPropRef(di, where, n.Prop, fail)
			} else {
				checkRemoteProp(p, t, di, where, n.Target, n.Prop, fail)
			}
		case Wait:
			checkFormula(p, di, where+" wait", n.Cond, fail)
			for _, k := range n.Data {
				if !di.data[k] {
					fail("%s: wait admits undeclared data %q", where, k)
				}
			}
		case Verify:
			checkFormula(p, di, where+" verify", n.Cond, fail)
		case If:
			checkFormula(p, di, where+" if", n.Cond, fail)
		case Keep:
			for _, k := range n.Props {
				if !di.props[k] {
					fail("%s: keep names undeclared prop %q", where, k)
				}
			}
			for _, k := range n.Data {
				if !di.data[k] {
					fail("%s: keep names undeclared data %q", where, k)
				}
			}
		case Start:
			if _, ok := p.Instances[n.Instance]; !ok {
				fail("%s: start of undeclared instance %q", where, n.Instance)
			}
		case Stop:
			if _, ok := p.Instances[n.Instance]; !ok {
				fail("%s: stop of undeclared instance %q", where, n.Instance)
			}
		case IdxAssign:
			setName, ok := di.idxs[n.Idx]
			if !ok {
				fail("%s: assignment to undeclared idx %q", where, n.Idx)
				break
			}
			elems, _ := di.setElems(setName)
			found := false
			for _, e := range elems {
				if e == n.Elem {
					found = true
					break
				}
			}
			if !found {
				fail("%s: idx %q assigned element %q outside its set", where, n.Idx, n.Elem)
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
			for _, a := range n.Arms {
				checkFormula(p, di, where+" case-arm", a.Cond, fail)
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
		walk(e, inTxn, false)
	}
}

// checkTarget validates that a junction reference can resolve.
func checkTarget(p *Program, t *InstanceType, di declInfo, where string, r JunctionRef, fail func(string, ...any)) {
	switch {
	case r.IsLocal(), r.MeJunction:
		return
	case r.MeInstance:
		if _, ok := t.Junctions[r.Junction]; !ok {
			fail("%s: me::instance::%s — containing type %q has no junction %q", where, r.Junction, t.Name, r.Junction)
		}
	case r.Idx != "":
		setName, ok := di.idxs[r.Idx]
		if !ok {
			if _, ok := di.subsets[r.Idx]; ok {
				return // iterating a subset element bound by for — checked at unroll time
			}
			fail("%s: junction target %q is not a declared idx", where, r.Idx)
			return
		}
		elems, _ := di.setElems(setName)
		for _, e := range elems {
			if _, _, err := resolveElemJunction(p, e); err != nil {
				fail("%s: idx %q element %q does not name a junction: %v", where, r.Idx, e, err)
			}
		}
	default:
		if _, err := p.JunctionDefOf(r.Instance, r.Junction); err != nil {
			// Instances with a single junction may be referenced by
			// instance name alone (paper's "assert [Aud] Work" style).
			if _, _, err2 := resolveElemJunction(p, r.Instance); r.Junction == "" && err2 == nil {
				return
			}
			fail("%s: unresolvable junction reference %s: %v", where, r, err)
		}
	}
}

func checkRemoteProp(p *Program, t *InstanceType, di declInfo, where string, target JunctionRef, pr PropRef, fail func(string, ...any)) {
	resolveOne := func(inst, jn string) {
		def, err := p.JunctionDefOf(inst, jn)
		if err != nil {
			return // target resolution already reported
		}
		rdi := collectDecls(def)
		if pr.IndexIsVar || strings.Contains(pr.Index, "me::") {
			// Runtime-resolved index (idx variable or self token):
			// conservatively accept any declaration of the family.
			if !hasSelfIndexedProp(rdi, pr.Base) {
				fail("%s: proposition family %s[…] not declared at %s::%s", where, pr.Base, inst, jn)
			}
			return
		}
		name := pr.Base
		if pr.Index != "" {
			name = IndexedName(pr.Base, pr.Index)
		}
		if !propDeclared(rdi, name) {
			fail("%s: proposition %q not declared at target %s::%s", where, name, inst, jn)
		}
	}
	switch {
	case target.MeInstance:
		if def, ok := t.Junctions[target.Junction]; ok {
			rdi := collectDecls(def)
			name := pr.Base
			if pr.Index != "" && !pr.IndexIsVar {
				name = IndexedName(pr.Base, pr.Index)
			}
			if !pr.IndexIsVar && !rdi.props[name] && !hasSelfIndexedProp(rdi, pr.Base) {
				fail("%s: proposition %q not declared at me::instance::%s", where, name, target.Junction)
			}
		}
	case target.Idx != "":
		// Element universe checked in checkTarget; prop existence is checked
		// per resolvable element.
		setName, ok := di.idxs[target.Idx]
		if !ok {
			return
		}
		elems, _ := di.setElems(setName)
		for _, e := range elems {
			if inst, jn, err := resolveElemJunction(p, e); err == nil {
				if pr.IndexIsVar {
					continue // index resolved at runtime to the element itself
				}
				resolveOne(inst, jn)
			}
		}
	case target.Instance != "":
		jn := target.Junction
		if jn == "" {
			if _, only, err := resolveElemJunction(p, target.Instance); err == nil {
				jn = only
			} else {
				return
			}
		}
		resolveOne(target.Instance, jn)
	}
}

// hasSelfIndexedProp reports whether decls contain any prop of the family
// base[...] — used for props indexed by me::junction whose concrete key is
// only known per instance.
func hasSelfIndexedProp(di declInfo, base string) bool {
	for n := range di.props {
		if strings.HasPrefix(n, base+"[") {
			return true
		}
	}
	return false
}

// resolveElemJunction interprets a set element as a junction reference:
// either "inst::junction", or a bare instance name whose type has exactly
// one junction.
func resolveElemJunction(p *Program, elem string) (inst, junction string, err error) {
	if i, j, ok := strings.Cut(elem, "::"); ok {
		if _, e := p.JunctionDefOf(i, j); e != nil {
			return "", "", e
		}
		return i, j, nil
	}
	tn, ok := p.Instances[elem]
	if !ok {
		return "", "", fmt.Errorf("dsl: element %q is not an instance", elem)
	}
	t := p.Types[tn]
	if t == nil || len(t.Junctions) != 1 {
		return "", "", fmt.Errorf("dsl: bare instance %q needs exactly one junction", elem)
	}
	return elem, t.JunctionNames()[0], nil
}

// ResolveElemJunction is the exported form, for plan's resolver: every other
// tool reads the references plan.Compile resolved.
func ResolveElemJunction(p *Program, elem string) (inst, junction string, err error) {
	return resolveElemJunction(p, elem)
}
