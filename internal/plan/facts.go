package plan

import (
	"strings"

	"csaw/internal/dsl"
	"csaw/internal/formula"
)

// This file holds the declaration index, the one resolver and the access
// facts. The resolver turns a name as a statement or formula writes it into
// the table keys the runtime's cells have: me:: tokens resolved against the
// owning junction, an idx family base[$idx] expanded over the idx's universe
// with the base as written and each element me::-resolved, and a formula's
// junction qualifier resolved to a fully-qualified junction name. The facts
// are recorded by walking the lowered ops (Compile's second phase), so a
// fact's position is the op's Pos.

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
	From  string // the reading junction's FQ for a formula read, the writer's for AccessIncoming
	Class string // written value class: "tt", "ff" or "*" (reads: "")
}

// UnresolvedRef is a reference whose resolved target junction exists but
// does not declare the referenced key — the cross-junction cases validate's
// best-effort checks cannot see (me:: tokens, idx families).
type UnresolvedRef struct {
	Pos    string // where the reference occurs
	Target string // fully-qualified target junction
	Kind   string // "proposition" or "data"
	Key    string // resolved key
}

// TypeJunction is a (type, junction) pair with a representative instance,
// for passes that would otherwise repeat findings across symmetric instances.
type TypeJunction struct {
	Type     string
	Junction string
	Def      *dsl.JunctionDef
	Rep      *Junction
}

// FQ returns the type-level display name used in diagnostics.
func (tj *TypeJunction) FQ() string { return tj.Type + "::" + tj.Junction }

// Pos is o's position with the representative's name replaced by the
// type-level one.
func (tj *TypeJunction) Pos(o *Op) string { return tj.FQ() + strings.TrimPrefix(o.Pos, tj.Rep.FQ) }

// declIndex is a junction's declarations with me:: tokens resolved against
// the owning instance, keeping declaration order for deterministic output.
type declIndex struct {
	props     map[string]int // slot: the position in propOrder
	propOrder []string
	propInit  map[string]bool
	data      map[string]int // slot: the position in dataOrder
	dataOrder []string
	sets      map[string][]string
	subsets   map[string]string
	subOrder  []string
	idxs      map[string]string
	idxOrder  []string
}

func (j *Junction) indexDecls() {
	di := declIndex{
		props:    map[string]int{},
		propInit: map[string]bool{},
		data:     map[string]int{},
		sets:     map[string][]string{},
		subsets:  map[string]string{},
		idxs:     map[string]string{},
	}
	for _, dec := range j.Def.Decls {
		switch n := dec.(type) {
		case dsl.InitProp:
			name := j.ResolveName(n.Name)
			if _, ok := di.props[name]; !ok {
				di.props[name] = len(di.propOrder)
				di.propOrder = append(di.propOrder, name)
			}
			di.propInit[name] = n.Init
		case dsl.InitData:
			if _, ok := di.data[n.Name]; !ok {
				di.data[n.Name] = len(di.dataOrder)
				di.dataOrder = append(di.dataOrder, n.Name)
			}
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
	j.decls = di
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

// Props returns the resolved declared proposition names in order.
func (j *Junction) Props() []string { return j.decls.propOrder }

// PropInit returns the initial value of a declared proposition.
func (j *Junction) PropInit(name string) bool { return j.decls.propInit[name] }

// Data returns the declared data names in order.
func (j *Junction) Data() []string { return j.decls.dataOrder }

// Idxs returns the declared idx names in order.
func (j *Junction) Idxs() []string { return j.decls.idxOrder }

// Subsets returns the declared subset names in order.
func (j *Junction) Subsets() []string { return j.decls.subOrder }

// HasProp reports whether the resolved proposition name is declared here.
func (j *Junction) HasProp(name string) bool { _, ok := j.decls.props[name]; return ok }

// HasData reports whether the data name is declared here.
func (j *Junction) HasData(name string) bool { _, ok := j.decls.data[name]; return ok }

// PropSlot is a declared proposition's position in Props().
func (j *Junction) PropSlot(name string) (int, bool) { s, ok := j.decls.props[name]; return s, ok }

// DataSlot is a declared data name's position in Data().
func (j *Junction) DataSlot(name string) (int, bool) { s, ok := j.decls.data[name]; return s, ok }

// ReadRemotely reports whether a formula of another junction (a guard, wait,
// verify, if or case condition with a junction-qualified proposition) reads
// the proposition key from this junction's table.
func (j *Junction) ReadRemotely(key string) bool {
	for _, a := range j.Reads["p:"+key] {
		if a.From != "" && a.From != j.FQ {
			return true
		}
	}
	return false
}

// IdxUniverse returns the static element universe an idx declaration ranges
// over (the elements of its set, or of a subset's parent set), as declared.
// ok is false when the idx is not declared or its universe cannot be
// resolved statically.
func (j *Junction) IdxUniverse(idx string) ([]string, bool) {
	setName, ok := j.decls.idxs[idx]
	if !ok {
		return nil, false
	}
	return j.decls.setElems(setName)
}

// IdxSet is the set or subset name an idx declaration ranges over.
func (j *Junction) IdxSet(idx string) (string, bool) { s, ok := j.decls.idxs[idx]; return s, ok }

// SetUniverse resolves a set or subset name to its static element universe.
func (j *Junction) SetUniverse(name string) ([]string, bool) {
	return j.decls.setElems(name)
}

// ResolveName substitutes the me:: self tokens in a name the way the runtime
// does at this junction (me::junction → the containing FQ junction,
// me::instance → the instance).
func (j *Junction) ResolveName(s string) string {
	if !strings.Contains(s, "me::") {
		return s
	}
	s = strings.ReplaceAll(s, "me::junction", j.FQ)
	return strings.ReplaceAll(s, "me::instance", j.Inst)
}

// Family resolves the idx family base[$idx] the way the runtime binds it: for
// each element of the idx's universe, the element me::-resolved (what SetIdx
// stores) and the key base[element], the base as written. ok is false when
// the universe is not static.
func (j *Junction) Family(base, idx string) (elems, keys []string, ok bool) {
	universe, ok := j.IdxUniverse(idx)
	if !ok {
		return nil, nil, false
	}
	for _, e := range universe {
		e = j.ResolveName(e)
		elems = append(elems, e)
		keys = append(keys, dsl.IndexedName(base, e))
	}
	return elems, keys, true
}

// PropKeys resolves a PropRef written at this junction to concrete table
// keys, expanding an idx-variable index to its family; idxRead names the idx
// consulted, if any. keys is nil when an idx-variable's universe cannot be
// resolved statically (or is empty).
func (j *Junction) PropKeys(pr dsl.PropRef) (keys []string, idxRead string) {
	switch {
	case pr.Index == "":
		return []string{j.ResolveName(pr.Base)}, ""
	case !pr.IndexIsVar:
		return []string{dsl.IndexedName(pr.Base, j.ResolveName(pr.Index))}, ""
	}
	_, keys, _ = j.Family(pr.Base, pr.Index)
	return keys, pr.Index
}

// formulaKeys resolves a local proposition as a formula names it: an idx
// family base[$idx] to its keys (ok false when the universe is not static),
// any other name to itself with me:: resolved.
func (j *Junction) formulaKeys(name string) (keys []string, idx string, ok bool) {
	if base, idxVar, isIdx := dsl.SplitIdxProp(name); isIdx {
		_, keys, ok = j.Family(base, idxVar)
		return keys, idxVar, ok
	}
	return []string{j.ResolveName(name)}, "", true
}

// Qualifier resolves a formula's junction qualifier (γ in γ@P) evaluated at j
// to a fully-qualified junction name: me:: tokens substituted, then
// junctionFQ.
func (j *Junction) Qualifier(q string) string { return junctionFQ(j.prog, j.ResolveName(q)) }

// JunctionFQ resolves a program-scope qualifier, an invariant's, the same way.
func (p *Program) JunctionFQ(q string) string { return junctionFQ(p.Prog, q) }

// junctionFQ resolves a bare element name to the fully-qualified name of its
// one junction; a name that resolves to no junction is returned as is.
func junctionFQ(p *dsl.Program, q string) string {
	if !strings.Contains(q, "::") {
		if inst, jn, err := dsl.ResolveElemJunction(p, q); err == nil {
			return inst + "::" + jn
		}
	}
	return q
}

// LocalWrites is what op o itself, not an op it contains, can write to j's
// own table: an assert's or retract's keys (a remote one's local half lands
// on those j declares), a save's data, a host block's or restore's declared
// V⃗. Full when an idx family's keys are not static.
func (j *Junction) LocalWrites(o *Op) (ws WriteSet) {
	var names []string
	switch n := o.Stmt.(type) {
	case dsl.Assert, dsl.Retract:
		keys, _ := j.PropKeys(o.Prop)
		return WriteSet{Props: keys, Full: keys == nil}
	case dsl.Save:
		return WriteSet{Data: []string{n.Data}}
	case dsl.Host:
		names = n.Writes
	case dsl.Restore:
		names = n.Writes
	}
	for _, w := range names {
		switch w = j.ResolveName(w); {
		case j.HasProp(w):
			ws.Props = append(ws.Props, w)
		case j.HasData(w):
			ws.Data = append(ws.Data, w)
		}
	}
	return ws
}

// classify maps a raw V⃗ name to its namespaced key in j's declarations.
func (j *Junction) classify(name string) (string, bool) {
	switch {
	case j.HasProp(name):
		return "p:" + name, true
	case j.HasData(name):
		return "d:" + name, true
	case j.decls.idxs[name] != "":
		return "i:" + name, true
	case j.decls.subsets[name] != "":
		return "s:" + name, true
	default:
		return "", false
	}
}

// ResolveTargets statically resolves a communication target reference
// evaluated at j to junctions, over-approximating idx targets by their
// element universe. Nil means the target is not statically resolvable.
func (p *Program) ResolveTargets(j *Junction, ref dsl.JunctionRef) []*Junction {
	switch {
	case ref.IsLocal(), ref.MeJunction:
		return []*Junction{j}
	case ref.MeInstance:
		if t := p.Junctions[j.Inst+"::"+ref.Junction]; t != nil {
			return []*Junction{t}
		}
		return nil
	case ref.Idx != "":
		setName, ok := j.decls.idxs[ref.Idx]
		if !ok {
			setName = ref.Idx // subset iterated by for, or direct set ref
		}
		elems, ok := j.decls.setElems(setName)
		if !ok {
			return nil
		}
		var out []*Junction
		for _, e := range elems {
			if inst, jn, err := dsl.ResolveElemJunction(p.Prog, e); err == nil {
				if t := p.Junctions[inst+"::"+jn]; t != nil {
					out = append(out, t)
				}
			}
		}
		return out
	default:
		jn := ref.Junction
		if jn == "" {
			_, only, err := dsl.ResolveElemJunction(p.Prog, ref.Instance)
			if err != nil {
				return nil
			}
			jn = only
		}
		if t := p.Junctions[ref.Instance+"::"+jn]; t != nil {
			return []*Junction{t}
		}
		return nil
	}
}

func addAccess(m map[string][]Access, key string, a Access) {
	m[key] = append(m[key], a)
}

// record walks one junction's guard and lowered body, recording every access:
// its own, the local halves of its remote updates, and its writes and
// qualified reads at other junctions.
func (p *Program) record(j *Junction) {
	if j.Def.Guard != nil {
		p.recordReads(j, j.FQ+"/guard", j.Def.Guard)
	}
	self := func(o *Op, key, class string) {
		addAccess(j.Writes, key, Access{Pos: o.Pos, Kind: AccessSelf, Class: class})
	}
	read := func(o *Op, key string) { addAccess(j.Reads, key, Access{Pos: o.Pos}) }
	writeV := func(o *Op, names []string) { // a host block's or restore's V⃗
		for _, w := range names {
			if key, ok := j.classify(j.ResolveName(w)); ok {
				self(o, key, "*")
			}
		}
	}
	Walk(j.Body.Ops, func(o *Op, _ []*Op) {
		o.Conds(func(pos string, f formula.Formula) { p.recordReads(j, pos, f) })
		switch o.Kind {
		case OpHost:
			writeV(o, o.Stmt.(dsl.Host).Writes)
		case OpRestore:
			n := o.Stmt.(dsl.Restore)
			read(o, "d:"+n.Data)
			writeV(o, n.Writes)
		case OpSave:
			self(o, "d:"+o.Stmt.(dsl.Save).Data, "*")
		case OpWrite:
			read(o, "d:"+o.Data)
			if o.To.Idx != "" {
				read(o, "i:"+o.To.Idx)
			}
			for _, t := range p.ResolveTargets(j, o.To) {
				if t == j {
					continue // write-to-self is rejected by validate
				}
				addAccess(t.Writes, "d:"+o.Data, Access{Pos: o.Pos, Kind: AccessIncoming, From: j.FQ, Class: "*"})
				if !t.HasData(o.Data) {
					p.Unresolved = append(p.Unresolved, UnresolvedRef{Pos: o.Pos, Target: t.FQ, Kind: "data", Key: o.Data})
				}
			}
		case OpProp:
			p.recordPropUpdate(j, o)
		case OpWait:
			for _, k := range o.Stmt.(dsl.Wait).Data {
				read(o, "d:"+k)
			}
		case OpKeep:
			n := o.Stmt.(dsl.Keep)
			for _, k := range n.Props {
				read(o, "p:"+j.ResolveName(k))
			}
			for _, k := range n.Data {
				read(o, "d:"+k)
			}
		case OpIdxAssign:
			self(o, "i:"+o.Stmt.(dsl.IdxAssign).Idx, "*")
		case OpStart:
			p.Started[o.Stmt.(dsl.Start).Instance] = true
		}
	})
	// An idx declared over a subset structurally reads the subset.
	for _, idx := range j.decls.idxOrder {
		if of := j.decls.idxs[idx]; j.decls.subsets[of] != "" {
			addAccess(j.Reads, "s:"+of, Access{Pos: j.FQ + "/decls/idx " + idx})
		}
	}
}

// recordReads registers every proposition a formula evaluated at j consults:
// local props on j, junction-qualified props on the resolved junction, and
// [$idx] families expanded over the idx universe. References to props not
// declared at the resolved target are collected as UnresolvedRefs.
func (p *Program) recordReads(j *Junction, pos string, f formula.Formula) {
	for _, pr := range formula.Props(f) {
		if strings.HasPrefix(pr.Name, "@") {
			continue // runtime-provided predicate (@running liveness)
		}
		target := j
		if pr.Junction != "" {
			if target = p.Junctions[j.Qualifier(pr.Junction)]; target == nil {
				continue // unresolvable target: validate's concern
			}
		}
		keys, idx, _ := j.formulaKeys(pr.Name)
		if idx != "" {
			addAccess(j.Reads, "i:"+idx, Access{Pos: pos})
		}
		for _, key := range keys {
			addAccess(target.Reads, "p:"+key, Access{Pos: pos, From: j.FQ})
			if !target.HasProp(key) {
				p.Unresolved = append(p.Unresolved, UnresolvedRef{Pos: pos, Target: target.FQ, Kind: "proposition", Key: key})
			}
		}
	}
}

// recordPropUpdate registers an assert/retract: the local write (when the
// target is this junction, or, for a remote update, when the key is declared
// here, mirroring the runtime's local-first update) and the remote write at
// every resolved target.
func (p *Program) recordPropUpdate(j *Junction, o *Op) {
	class := "ff"
	if o.Value {
		class = "tt"
	}
	keys, idxRead := j.PropKeys(o.Prop)
	if idxRead != "" {
		addAccess(j.Reads, "i:"+idxRead, Access{Pos: o.Pos})
	}
	local := o.To.IsLocal() || o.To.MeJunction
	for _, key := range keys {
		switch {
		case local:
			addAccess(j.Writes, "p:"+key, Access{Pos: o.Pos, Kind: AccessSelf, Class: class})
		case j.HasProp(key):
			addAccess(j.Writes, "p:"+key, Access{Pos: o.Pos, Kind: AccessLocalEffect, Class: class})
		}
	}
	if local {
		return
	}
	if o.To.Idx != "" {
		addAccess(j.Reads, "i:"+o.To.Idx, Access{Pos: o.Pos})
	}
	for _, t := range p.ResolveTargets(j, o.To) {
		for _, key := range keys {
			addAccess(t.Writes, "p:"+key, Access{Pos: o.Pos, Kind: AccessIncoming, From: j.FQ, Class: class})
			if !t.HasProp(key) {
				p.Unresolved = append(p.Unresolved, UnresolvedRef{Pos: o.Pos, Target: t.FQ, Kind: "proposition", Key: key})
			}
		}
	}
}
