package analysis

import (
	"fmt"
	"strings"

	"csaw/internal/dsl"
	"csaw/internal/formula"
)

// Context holds the shared facts passes consume: per-junction resolved
// declarations and access sets (including cross-junction writes), the §8.7
// topology, and the set of instances the program ever starts. It is built
// once per Analyze run; passes must not mutate it.
type Context struct {
	Prog *dsl.Program
	Topo dsl.Topology
	// Unfold is the event-structure budget for semantic cross-checks.
	Unfold int

	// Juncs is every instance junction in declaration order.
	Juncs []*JunctionInfo
	byFQ  map[string]*JunctionInfo
	// TypeJuncs is one entry per (type, junction) with a representative
	// instance, for type-level passes that would otherwise repeat findings
	// across symmetric instances.
	TypeJuncs []*TypeJunction

	// Started is the set of instances started anywhere (main or any body).
	Started map[string]bool

	// Placement maps instance names to deployment locations (from
	// Config.Placement); nil means everything is co-located. Location("")
	// sharing means co-located.
	Placement map[string]string

	// Unresolved records references whose resolved target junction exists but
	// does not declare the referenced key — the cross-junction cases
	// validate.go's best-effort checks cannot see (me:: tokens, idx families).
	Unresolved []UnresolvedRef
}

// UnresolvedRef is a reference to a symbol not declared at its target.
type UnresolvedRef struct {
	Pos    string // where the reference occurs
	Target string // fully-qualified target junction
	Kind   string // "proposition" or "data"
	Key    string // resolved key
}

// TypeJunction is a (type, junction) pair with a representative instance.
type TypeJunction struct {
	Type     string
	Junction string
	Def      *dsl.JunctionDef
	Rep      *JunctionInfo
}

// FQ returns the type-level display name used in diagnostics.
func (tj *TypeJunction) FQ() string { return tj.Type + "::" + tj.Junction }

// AccessKind distinguishes how a key is written.
type AccessKind uint8

const (
	// AccessSelf is a junction's own statement acting on its own table.
	AccessSelf AccessKind = iota
	// AccessLocalEffect is the local half of a remote-targeted assert/retract
	// (the runtime updates the local table first when the prop is declared).
	AccessLocalEffect
	// AccessIncoming is a write performed remotely by another junction.
	AccessIncoming
)

// Access is one read or write of a table key.
type Access struct {
	Pos   string
	Kind  AccessKind
	From  string // writer's FQ for AccessIncoming
	Class string // written value class: "tt", "ff" or "*" (reads: "")
}

// declIndex is a junction's declarations with me:: tokens resolved against
// the owning instance, keeping declaration order for deterministic output.
type declIndex struct {
	props     map[string]bool
	propOrder []string
	propInit  map[string]bool
	data      map[string]bool
	dataOrder []string
	sets      map[string][]string
	subsets   map[string]string
	subOrder  []string
	idxs      map[string]string
	idxOrder  []string
}

// JunctionInfo is the per-(instance, junction) fact bundle.
type JunctionInfo struct {
	Inst, Jn, Type string
	FQ             string
	Def            *dsl.JunctionDef
	decls          declIndex

	// Reads and Writes map namespaced keys ("p:Work", "d:n", "i:tgt",
	// "s:tgt") to access records. Incoming writes from other junctions are
	// recorded here too.
	Reads  map[string][]Access
	Writes map[string][]Access
}

// Props returns the resolved declared proposition names in order.
func (ji *JunctionInfo) Props() []string { return ji.decls.propOrder }

// PropInit returns the initial value of a declared proposition.
func (ji *JunctionInfo) PropInit(name string) bool { return ji.decls.propInit[name] }

// Data returns the declared data names in order.
func (ji *JunctionInfo) Data() []string { return ji.decls.dataOrder }

// Idxs returns the declared idx names in order.
func (ji *JunctionInfo) Idxs() []string { return ji.decls.idxOrder }

// Subsets returns the declared subset names in order.
func (ji *JunctionInfo) Subsets() []string { return ji.decls.subOrder }

// ResolveName substitutes the me:: self tokens in a name the way the runtime
// does at this junction.
func (ji *JunctionInfo) ResolveName(s string) string { return resolveSelf(ji, s) }

// HasProp reports whether the resolved proposition name is declared here.
func (ji *JunctionInfo) HasProp(name string) bool { return ji.decls.props[name] }

// HasData reports whether the data name is declared here.
func (ji *JunctionInfo) HasData(name string) bool { return ji.decls.data[name] }

// ReadRemotely reports whether a formula of another junction (a guard, wait,
// verify, if or case condition with a junction-qualified proposition) reads
// the proposition key from this junction's table.
func (ji *JunctionInfo) ReadRemotely(key string) bool {
	for _, a := range ji.Reads["p:"+key] {
		if a.From != "" && a.From != ji.FQ {
			return true
		}
	}
	return false
}

// IdxUniverse returns the static element universe an idx declaration ranges
// over (the elements of its set, or of a subset's parent set). ok is false
// when the idx is not declared or its universe cannot be resolved statically.
func (ji *JunctionInfo) IdxUniverse(idx string) ([]string, bool) {
	setName, ok := ji.decls.idxs[idx]
	if !ok {
		return nil, false
	}
	return ji.decls.setElems(setName)
}

// SetUniverse resolves a set or subset name to its static element universe.
func (ji *JunctionInfo) SetUniverse(name string) ([]string, bool) {
	return ji.decls.setElems(name)
}

// PropKeys resolves a PropRef written at this junction to concrete table
// keys, expanding an idx-variable index to its family over the idx's element
// universe; idxRead names the idx consulted, if any. keys is nil when an
// idx-variable's universe cannot be resolved statically.
func (ji *JunctionInfo) PropKeys(pr dsl.PropRef) (keys []string, idxRead string) {
	return ji.propKeys(pr)
}

// NewContext builds the shared facts for a validated program.
func NewContext(p *dsl.Program, unfold int) *Context {
	c := &Context{
		Prog:    p,
		Topo:    dsl.Topo(p),
		Unfold:  unfold,
		byFQ:    map[string]*JunctionInfo{},
		Started: map[string]bool{},
	}
	// First pass: materialize every junction with resolved declarations.
	repSeen := map[string]bool{}
	for _, inst := range p.InstanceNames() {
		t := p.Types[p.Instances[inst]]
		if t == nil {
			continue
		}
		for _, jn := range t.JunctionNames() {
			def := t.Junctions[jn]
			ji := &JunctionInfo{
				Inst: inst, Jn: jn, Type: t.Name,
				FQ:     inst + "::" + jn,
				Def:    def,
				Reads:  map[string][]Access{},
				Writes: map[string][]Access{},
			}
			ji.decls = indexDecls(def, func(s string) string { return resolveSelf(ji, s) })
			c.Juncs = append(c.Juncs, ji)
			c.byFQ[ji.FQ] = ji
			tk := t.Name + "::" + jn
			if !repSeen[tk] {
				repSeen[tk] = true
				c.TypeJuncs = append(c.TypeJuncs, &TypeJunction{Type: t.Name, Junction: jn, Def: def, Rep: ji})
			}
		}
	}
	// Second pass: record accesses (own, local-effect, and incoming).
	dsl.WalkBody(p.Main, func(e dsl.Expr) {
		if s, ok := e.(dsl.Start); ok {
			c.Started[s.Instance] = true
		}
	})
	for _, ji := range c.Juncs {
		c.recordJunction(ji)
	}
	return c
}

// Lookup resolves a fully-qualified junction name.
func (c *Context) Lookup(fq string) *JunctionInfo { return c.byFQ[fq] }

// Location returns the deployment location of an instance under the run's
// Placement ("" when unplaced — all unplaced instances are co-located).
func (c *Context) Location(inst string) string { return c.Placement[inst] }

// ResolveTargets statically resolves a communication target reference
// evaluated at ji to junction infos, over-approximating idx targets by their
// element universe. Nil means the target is not statically resolvable.
func (c *Context) ResolveTargets(ji *JunctionInfo, ref dsl.JunctionRef) []*JunctionInfo {
	return c.resolveTargets(ji, ref)
}

func indexDecls(def *dsl.JunctionDef, resolve func(string) string) declIndex {
	di := declIndex{
		props:    map[string]bool{},
		propInit: map[string]bool{},
		data:     map[string]bool{},
		sets:     map[string][]string{},
		subsets:  map[string]string{},
		idxs:     map[string]string{},
	}
	for _, dec := range def.Decls {
		switch n := dec.(type) {
		case dsl.InitProp:
			name := resolve(n.Name)
			if !di.props[name] {
				di.propOrder = append(di.propOrder, name)
			}
			di.props[name] = true
			di.propInit[name] = n.Init
		case dsl.InitData:
			if !di.data[n.Name] {
				di.dataOrder = append(di.dataOrder, n.Name)
			}
			di.data[n.Name] = true
		case dsl.DeclSet:
			di.sets[n.Name] = n.Elems
		case dsl.DeclSubset:
			if _, ok := di.subsets[n.Name]; !ok {
				di.subOrder = append(di.subOrder, n.Name)
			}
			di.subsets[n.Name] = n.Of
		case dsl.DeclIdx:
			if _, ok := di.idxs[n.Name]; !ok {
				di.idxOrder = append(di.idxOrder, n.Name)
			}
			di.idxs[n.Name] = n.Of
		}
	}
	return di
}

// setElems resolves a set/subset name to its static element universe.
func (di declIndex) setElems(name string) ([]string, bool) {
	if elems, ok := di.sets[name]; ok {
		return elems, true
	}
	if parent, ok := di.subsets[name]; ok {
		return di.setElems(parent)
	}
	return nil, false
}

// resolveSelf substitutes the me:: self tokens the way the runtime does
// (me::junction → the containing FQ junction, me::instance → the instance).
func resolveSelf(ji *JunctionInfo, s string) string {
	if !strings.Contains(s, "me::") {
		return s
	}
	s = strings.ReplaceAll(s, "me::junction", ji.FQ)
	s = strings.ReplaceAll(s, "me::instance", ji.Inst)
	return s
}

// resolveTargets statically resolves a communication target to junction
// infos, over-approximating idx targets by their element universe.
func (c *Context) resolveTargets(ji *JunctionInfo, ref dsl.JunctionRef) []*JunctionInfo {
	switch {
	case ref.IsLocal(), ref.MeJunction:
		return []*JunctionInfo{ji}
	case ref.MeInstance:
		if t := c.byFQ[ji.Inst+"::"+ref.Junction]; t != nil {
			return []*JunctionInfo{t}
		}
		return nil
	case ref.Idx != "":
		setName, ok := ji.decls.idxs[ref.Idx]
		if !ok {
			setName = ref.Idx // subset iterated by for, or direct set ref
		}
		elems, ok := ji.decls.setElems(setName)
		if !ok {
			return nil
		}
		var out []*JunctionInfo
		for _, e := range elems {
			if inst, jn, err := dsl.ResolveElemJunction(c.Prog, e); err == nil {
				if t := c.byFQ[inst+"::"+jn]; t != nil {
					out = append(out, t)
				}
			}
		}
		return out
	default:
		jn := ref.Junction
		if jn == "" {
			if _, only, err := dsl.ResolveElemJunction(c.Prog, ref.Instance); err == nil {
				jn = only
			} else {
				return nil
			}
		}
		if t := c.byFQ[ref.Instance+"::"+jn]; t != nil {
			return []*JunctionInfo{t}
		}
		return nil
	}
}

// propKeys resolves a PropRef (evaluated at writer ji, the runtime resolves
// names at the sender) to concrete table keys. An idx-variable index expands
// to the family over the idx's element universe and reports the idx read.
func (ji *JunctionInfo) propKeys(pr dsl.PropRef) (keys []string, idxRead string) {
	if pr.Index == "" {
		return []string{resolveSelf(ji, pr.Base)}, ""
	}
	if pr.IndexIsVar {
		setName, ok := ji.decls.idxs[pr.Index]
		if !ok {
			return nil, pr.Index
		}
		elems, _ := ji.decls.setElems(setName)
		for _, e := range elems {
			keys = append(keys, dsl.IndexedName(resolveSelf(ji, pr.Base), e))
		}
		return keys, pr.Index
	}
	return []string{dsl.IndexedName(resolveSelf(ji, pr.Base), resolveSelf(ji, pr.Index))}, ""
}

func addAccess(m map[string][]Access, key string, a Access) {
	m[key] = append(m[key], a)
}

// classify maps a raw V⃗ name to its namespaced key in ji's declarations.
func (ji *JunctionInfo) classify(name string) (string, bool) {
	switch {
	case ji.decls.props[name]:
		return "p:" + name, true
	case ji.decls.data[name]:
		return "d:" + name, true
	case ji.decls.idxs[name] != "":
		return "i:" + name, true
	case ji.decls.subsets[name] != "":
		return "s:" + name, true
	default:
		return "", false
	}
}

// recordFormulaReads registers every proposition a formula consults: local
// props on ji, junction-qualified props on the resolved remote junction, and
// [$idx] families expanded over the idx universe. References to props not
// declared at the resolved target are collected as UnresolvedRefs.
func (c *Context) recordFormulaReads(ji *JunctionInfo, pos string, f formula.Formula) {
	if f == nil {
		return
	}
	for _, pr := range formula.Props(f) {
		name := pr.Name
		if strings.HasPrefix(name, "@") {
			continue // runtime-provided predicate (@running liveness)
		}
		target := ji
		if pr.Junction != "" {
			jq := resolveSelf(ji, pr.Junction)
			if !strings.Contains(jq, "::") {
				if inst, jn, err := dsl.ResolveElemJunction(c.Prog, jq); err == nil {
					jq = inst + "::" + jn
				}
			}
			target = c.byFQ[jq]
			if target == nil {
				continue // unresolvable target: validate's concern
			}
		}
		if base, idxVar, ok := dsl.SplitIdxProp(name); ok {
			addAccess(ji.Reads, "i:"+idxVar, Access{Pos: pos})
			setName, declared := ji.decls.idxs[idxVar]
			if !declared {
				continue // undeclared idx: validate reports it
			}
			elems, _ := ji.decls.setElems(setName)
			for _, e := range elems {
				c.recordPropRead(ji, target, pos, dsl.IndexedName(resolveSelf(ji, base), e))
			}
			continue
		}
		c.recordPropRead(ji, target, pos, resolveSelf(ji, name))
	}
}

func (c *Context) recordPropRead(reader, target *JunctionInfo, pos, key string) {
	addAccess(target.Reads, "p:"+key, Access{Pos: pos, From: reader.FQ})
	if !target.decls.props[key] {
		c.Unresolved = append(c.Unresolved, UnresolvedRef{Pos: pos, Target: target.FQ, Kind: "proposition", Key: key})
	}
}

// recordPropUpdate registers an assert/retract: the local side-effect write
// (when the key is declared locally, mirroring the runtime's local-first
// update) and the remote write at every resolved target.
func (c *Context) recordPropUpdate(ji *JunctionInfo, pos string, target dsl.JunctionRef, pr dsl.PropRef, class string) {
	keys, idxRead := ji.propKeys(pr)
	if idxRead != "" {
		addAccess(ji.Reads, "i:"+idxRead, Access{Pos: pos})
	}
	local := target.IsLocal() || target.MeJunction
	for _, key := range keys {
		if local {
			addAccess(ji.Writes, "p:"+key, Access{Pos: pos, Kind: AccessSelf, Class: class})
			continue
		}
		// Local half of a remote update: only happens when declared here.
		if ji.decls.props[key] {
			addAccess(ji.Writes, "p:"+key, Access{Pos: pos, Kind: AccessLocalEffect, Class: class})
		}
	}
	if local {
		return
	}
	if target.Idx != "" {
		addAccess(ji.Reads, "i:"+target.Idx, Access{Pos: pos})
	}
	for _, t := range c.resolveTargets(ji, target) {
		for _, key := range keys {
			addAccess(t.Writes, "p:"+key, Access{Pos: pos, Kind: AccessIncoming, From: ji.FQ, Class: class})
			if !t.decls.props[key] {
				c.Unresolved = append(c.Unresolved, UnresolvedRef{Pos: pos, Target: t.FQ, Kind: "proposition", Key: key})
			}
		}
	}
}

// recordJunction walks one junction's guard and body, populating access sets.
func (c *Context) recordJunction(ji *JunctionInfo) {
	if ji.Def.Guard != nil {
		c.recordFormulaReads(ji, ji.FQ+"/guard", ji.Def.Guard)
	}
	walkPath(ji.FQ, ji.Def.Body, func(nc NodeCtx, e dsl.Expr) {
		pos := nc.Path
		switch n := e.(type) {
		case dsl.Host:
			for _, w := range n.Writes {
				if key, ok := ji.classify(resolveSelf(ji, w)); ok {
					addAccess(ji.Writes, key, Access{Pos: pos, Kind: AccessSelf, Class: "*"})
				}
			}
		case dsl.Save:
			addAccess(ji.Writes, "d:"+n.Data, Access{Pos: pos, Kind: AccessSelf, Class: "*"})
		case dsl.Restore:
			addAccess(ji.Reads, "d:"+n.Data, Access{Pos: pos})
			for _, w := range n.Writes {
				if key, ok := ji.classify(resolveSelf(ji, w)); ok {
					addAccess(ji.Writes, key, Access{Pos: pos, Kind: AccessSelf, Class: "*"})
				}
			}
		case dsl.Write:
			addAccess(ji.Reads, "d:"+n.Data, Access{Pos: pos})
			if n.To.Idx != "" {
				addAccess(ji.Reads, "i:"+n.To.Idx, Access{Pos: pos})
			}
			for _, t := range c.resolveTargets(ji, n.To) {
				if t == ji {
					continue // write-to-self is rejected by validate
				}
				addAccess(t.Writes, "d:"+n.Data, Access{Pos: pos, Kind: AccessIncoming, From: ji.FQ, Class: "*"})
				if !t.decls.data[n.Data] {
					c.Unresolved = append(c.Unresolved, UnresolvedRef{Pos: pos, Target: t.FQ, Kind: "data", Key: n.Data})
				}
			}
		case dsl.Assert:
			c.recordPropUpdate(ji, pos, n.Target, n.Prop, "tt")
		case dsl.Retract:
			c.recordPropUpdate(ji, pos, n.Target, n.Prop, "ff")
		case dsl.Wait:
			c.recordFormulaReads(ji, pos, n.Cond)
			for _, k := range n.Data {
				addAccess(ji.Reads, "d:"+k, Access{Pos: pos})
			}
		case dsl.Verify:
			c.recordFormulaReads(ji, pos, n.Cond)
		case dsl.If:
			c.recordFormulaReads(ji, pos, n.Cond)
		case dsl.Case:
			for i, a := range n.Arms {
				c.recordFormulaReads(ji, fmt.Sprintf("%s/arm[%d]", pos, i), a.Cond)
			}
		case dsl.Keep:
			for _, k := range n.Props {
				addAccess(ji.Reads, "p:"+resolveSelf(ji, k), Access{Pos: pos})
			}
			for _, k := range n.Data {
				addAccess(ji.Reads, "d:"+k, Access{Pos: pos})
			}
		case dsl.IdxAssign:
			addAccess(ji.Writes, "i:"+n.Idx, Access{Pos: pos, Kind: AccessSelf, Class: "*"})
		case dsl.Start:
			c.Started[n.Instance] = true
		}
	})
	// An idx declared over a subset structurally reads the subset.
	for _, idx := range ji.decls.idxOrder {
		if of := ji.decls.idxs[idx]; ji.decls.subsets[of] != "" {
			addAccess(ji.Reads, "s:"+of, Access{Pos: ji.FQ + "/decls/idx " + idx})
		}
	}
}

// NodeCtx is the structural context a path-aware walk carries.
type NodeCtx struct {
	Path string
	// TxnDepth counts enclosing transactions, ParDepth enclosing Par/ParN
	// branches, DeadlineDepth enclosing otherwise[t] with a timeout.
	TxnDepth      int
	ParDepth      int
	DeadlineDepth int
	InCaseArm     bool
	// InParN is set anywhere under a ∥n replica body.
	InParN bool
	// ParSinceArm counts Par/ParN boundaries crossed since the innermost
	// case arm: a terminator with ParSinceArm > 0 crosses a parallel barrier
	// to reach the case it binds to.
	ParSinceArm int
}

// walkPath visits every expression with a structural path and context flags.
func walkPath(root string, body []dsl.Expr, fn func(NodeCtx, dsl.Expr)) {
	var walk func(nc NodeCtx, e dsl.Expr)
	walk = func(nc NodeCtx, e dsl.Expr) {
		if e == nil {
			return
		}
		fn(nc, e)
		sub := func(seg string) NodeCtx {
			out := nc
			out.Path = nc.Path + seg
			return out
		}
		switch n := e.(type) {
		case dsl.Seq:
			for i, child := range n {
				walk(sub(fmt.Sprintf("[%d]", i)), child)
			}
		case dsl.Par:
			for i, child := range n {
				s := sub(fmt.Sprintf("/par[%d]", i))
				s.ParDepth++
				s.ParSinceArm++
				walk(s, child)
			}
		case dsl.ParN:
			for i, child := range n.Body {
				s := sub(fmt.Sprintf("/parn[%d]", i))
				s.ParDepth++
				s.ParSinceArm++
				s.InParN = true
				walk(s, child)
			}
		case dsl.Scope:
			for i, child := range n.Body {
				walk(sub(fmt.Sprintf("/scope[%d]", i)), child)
			}
		case dsl.Txn:
			for i, child := range n.Body {
				s := sub(fmt.Sprintf("/txn[%d]", i))
				s.TxnDepth++
				walk(s, child)
			}
		case dsl.Otherwise:
			s := sub("/try")
			if n.Timeout > 0 {
				s.DeadlineDepth++
			}
			walk(s, n.Try)
			walk(sub("/handler"), n.Handler)
		case dsl.If:
			walk(sub("/then"), n.Then)
			if n.Else != nil {
				walk(sub("/else"), n.Else)
			}
		case dsl.Case:
			for i, a := range n.Arms {
				for k, child := range a.Body {
					s := sub(fmt.Sprintf("/arm[%d][%d]", i, k))
					s.InCaseArm = true
					s.ParSinceArm = 0
					walk(s, child)
				}
			}
			for k, child := range n.Otherwise {
				s := sub(fmt.Sprintf("/otherwise[%d]", k))
				s.InCaseArm = true
				s.ParSinceArm = 0
				walk(s, child)
			}
		default:
			// Leaf per dsl.Children — which errors on genuinely unknown
			// kinds, so new composite nodes cannot be skipped silently.
			kids, err := dsl.Children(e)
			if err != nil {
				panic(err)
			}
			for i, child := range kids {
				walk(sub(fmt.Sprintf("/child[%d]", i)), child)
			}
		}
	}
	for i, e := range body {
		walk(NodeCtx{Path: fmt.Sprintf("%s/body[%d]", root, i)}, e)
	}
}
