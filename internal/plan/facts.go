package plan

import (
	"fmt"
	"slices"
	"strings"

	"csaw/internal/dsl"
	"csaw/internal/formula"
)

// This file holds the declaration index, the one resolver and the access
// facts. The resolver turns a name as a statement or formula writes it into
// the table keys the runtime's cells have: me:: tokens resolved against the
// owning junction, an idx family base[$idx] expanded over the idx's universe
// (whose elements are resolved once, when the declarations are indexed) with
// the base as written, and a junction qualifier or set element resolved to a
// fully-qualified junction name. Each update op carries what it resolves to
// (Ref), so no consumer resolves an update's keys or destination again. The
// facts are recorded by walking the lowered ops (Compile's second phase), so a
// fact's position is the op's Pos; a name that does not resolve is rejected
// where its fact would be recorded, which makes this the program's one name
// check.

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
// the owning instance (a set's elements too), keeping declaration order for
// deterministic output.
type declIndex struct {
	props     map[string]int // slot: the position in propOrder
	propOrder []string
	propInit  map[string]bool
	initProps []dsl.InitProp
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
			di.initProps = append(di.initProps, n)
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
			elems := make([]string, len(n.Elems))
			for i, e := range n.Elems {
				elems[i] = j.ResolveName(e)
			}
			di.sets[n.Name] = elems
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

// InitProps returns the proposition declarations as written, in order: the
// §8 start-up semantics names a junction's initial writes as declared.
func (j *Junction) InitProps() []dsl.InitProp { return j.decls.initProps }

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
// over (the elements of its set, or of a subset's parent set), me::-resolved:
// the values SetIdx stores. ok is false when the idx is not declared.
func (j *Junction) IdxUniverse(idx string) ([]string, bool) {
	setName, ok := j.decls.idxs[idx]
	if !ok {
		return nil, false
	}
	return j.decls.setElems(setName)
}

// IdxSet is the set or subset name an idx declaration ranges over.
func (j *Junction) IdxSet(idx string) (string, bool) { s, ok := j.decls.idxs[idx]; return s, ok }

// SetUniverse resolves a set or subset name to its static element universe,
// me::-resolved.
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

// Family resolves the idx family base[$idx] the way the runtime binds it: the
// key base[element], the base as written, for each element of the idx's
// universe, in universe order. ok is false when the idx is not declared.
func (j *Junction) Family(base, idx string) (keys []string, ok bool) {
	universe, ok := j.IdxUniverse(idx)
	if !ok {
		return nil, false
	}
	for _, e := range universe {
		keys = append(keys, dsl.IndexedName(base, e))
	}
	return keys, true
}

// propKeys resolves a PropRef written at this junction to concrete table
// keys, expanding an idx-variable index to its family (Compile rejects an
// undeclared idx).
func (j *Junction) propKeys(pr dsl.PropRef) []string {
	switch {
	case pr.Index == "":
		return []string{j.ResolveName(pr.Base)}
	case !pr.IndexIsVar:
		return []string{dsl.IndexedName(pr.Base, j.ResolveName(pr.Index))}
	}
	keys, _ := j.Family(pr.Base, pr.Index)
	return keys
}

// dest resolves a remote update's target at this junction: for an idx target
// one fully-qualified junction per element of the idx's universe, in universe
// order, otherwise one; nil for a local update.
func (j *Junction) dest(ref dsl.JunctionRef) []string {
	switch {
	case ref.IsLocal():
		return nil
	case ref.MeJunction:
		return []string{j.FQ}
	case ref.MeInstance:
		return []string{j.Inst + "::" + ref.Junction}
	case ref.Idx != "":
		elems, _ := j.IdxUniverse(ref.Idx)
		fqs := make([]string, len(elems))
		for i, e := range elems {
			fqs[i] = junctionFQ(j.prog, e)
		}
		return fqs
	case ref.Junction != "":
		return []string{ref.Instance + "::" + ref.Junction}
	default:
		return []string{junctionFQ(j.prog, ref.Instance)}
	}
}

// formulaKeys resolves a local proposition as a formula names it: an idx
// family base[$idx] to its keys (ok false when the idx is not declared),
// any other name to itself with me:: resolved.
func (j *Junction) formulaKeys(name string) (keys []string, idx string, ok bool) {
	if base, idxVar, isIdx := dsl.SplitIdxProp(name); isIdx {
		keys, ok = j.Family(base, idxVar)
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

// junctionFQ resolves a qualifier or set element to a fully-qualified
// junction name: "inst::junction" as written, or a bare instance name whose
// type has exactly one junction. Any other name is returned as is, and
// Compile rejects it, because it names no junction of the program.
func junctionFQ(p *dsl.Program, q string) string {
	if strings.Contains(q, "::") {
		return q
	}
	if t := p.Types[p.Instances[q]]; t != nil && len(t.Junctions) == 1 {
		return q + "::" + t.JunctionNames()[0]
	}
	return q
}

// reject records a name that does not resolve at j, at pos re-rooted at j's
// type (or at pos itself for a program-scope name, j nil): the instances of
// one type report a fault once for each name as written.
func (p *Program) reject(j *Junction, pos, written, format string, args ...any) {
	if j != nil {
		pos = j.Type + "::" + j.Jn + strings.TrimPrefix(pos, j.FQ)
	}
	k := pos + "\x00" + written + "\x00" + format
	if p.rejected[k] {
		return
	}
	if p.rejected == nil {
		p.rejected = map[string]bool{}
	}
	p.rejected[k] = true
	p.errs = append(p.errs, pos+": "+fmt.Sprintf(format, args...))
}

// LocalWrites is what op o itself, not an op it contains, can write to j's
// own table: an assert's or retract's keys (a remote one's local half lands
// on those j declares), a save's data, a host block's or restore's declared
// V⃗.
func (j *Junction) LocalWrites(o *Op) (ws WriteSet) {
	var names []string
	switch n := o.Stmt.(type) {
	case dsl.Assert, dsl.Retract:
		return WriteSet{Props: o.Ref.Keys}
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

// Targets are the junctions an update op's destination names, in Dest order:
// an idx target's whole universe. Compile rejects a destination that names no
// junction, so a compiled program's targets are all set.
func (p *Program) Targets(o *Op) []*Junction {
	ts := make([]*Junction, len(o.Ref.Dest))
	for i, fq := range o.Ref.Dest {
		ts[i] = p.Junctions[fq]
	}
	return ts
}

func addAccess(m map[string][]Access, key string, a Access) {
	m[key] = append(m[key], a)
}

// record walks one junction's guard and lowered body, recording every access
// (its own, the local halves of its remote updates, and its writes and
// qualified reads at other junctions) and rejecting every name that does not
// resolve.
func (p *Program) record(j *Junction) {
	if j.Def.Guard != nil {
		p.recordReads(j, j.FQ+"/guard", j.Def.Guard)
	}
	self := func(o *Op, key, class string) {
		addAccess(j.Writes, key, Access{Pos: o.Pos, Kind: AccessSelf, Class: class})
	}
	read := func(o *Op, key string) { addAccess(j.Reads, key, Access{Pos: o.Pos}) }
	readData := func(o *Op, name, format string) {
		if !j.HasData(name) {
			p.reject(j, o.Pos, name, format, name)
		}
		read(o, "d:"+name)
	}
	writeV := func(o *Op, what string, names []string) { // a host block's or restore's V⃗
		for _, w := range names {
			key, ok := j.classify(j.ResolveName(w))
			if !ok {
				p.reject(j, o.Pos, w, "%s writes undeclared name %q", what, w)
				continue
			}
			self(o, key, "*")
		}
	}
	instance := func(o *Op, inst, what string) {
		if _, ok := p.Prog.Instances[inst]; !ok {
			p.reject(j, o.Pos, inst, "%s of undeclared instance %q", what, inst)
		}
	}
	Walk(j.Body.Ops, func(o *Op, _ []*Op) {
		o.Conds(func(pos string, f formula.Formula) { p.recordReads(j, pos, f) })
		switch o.Kind {
		case OpHost:
			n := o.Stmt.(dsl.Host)
			writeV(o, "host block "+n.Label, n.Writes)
		case OpRestore:
			n := o.Stmt.(dsl.Restore)
			readData(o, n.Data, "restore reads undeclared data %q")
			writeV(o, "restore", n.Writes)
		case OpSave:
			n := o.Stmt.(dsl.Save)
			if !j.HasData(n.Data) {
				p.reject(j, o.Pos, n.Data, "save targets undeclared data %q", n.Data)
			}
			self(o, "d:"+n.Data, "*")
		case OpWrite:
			readData(o, o.Data, "write pushes undeclared data %q")
			if o.To.Idx != "" {
				read(o, "i:"+o.To.Idx)
			}
			for _, t := range p.destinations(j, o) {
				if t == nil {
					continue
				}
				addAccess(t.Writes, "d:"+o.Data, Access{Pos: o.Pos, Kind: AccessIncoming, From: j.FQ, Class: "*"})
				if !t.HasData(o.Data) {
					p.reject(j, o.Pos, o.Data, "data %q not declared at %s", o.Data, t.FQ)
				}
			}
		case OpProp:
			p.recordPropUpdate(j, o)
		case OpWait:
			for _, k := range o.Stmt.(dsl.Wait).Data {
				readData(o, k, "wait admits undeclared data %q")
			}
		case OpKeep:
			n := o.Stmt.(dsl.Keep)
			for _, k := range n.Props {
				key := j.ResolveName(k)
				if !j.HasProp(key) {
					p.reject(j, o.Pos, k, "keep names undeclared prop %q", k)
				}
				read(o, "p:"+key)
			}
			for _, k := range n.Data {
				readData(o, k, "keep names undeclared data %q")
			}
		case OpIdxAssign:
			n := o.Stmt.(dsl.IdxAssign)
			switch universe, ok := j.IdxUniverse(n.Idx); {
			case !ok:
				p.reject(j, o.Pos, n.Idx, "assignment to undeclared idx %q", n.Idx)
			case !slices.Contains(universe, j.ResolveName(n.Elem)):
				p.reject(j, o.Pos, n.Elem, "idx %q assigned element %q outside its set", n.Idx, n.Elem)
			}
			self(o, "i:"+n.Idx, "*")
		case OpStart:
			n := o.Stmt.(dsl.Start)
			instance(o, n.Instance, "start")
			p.Started[n.Instance] = true
		case OpStop:
			instance(o, o.Stmt.(dsl.Stop).Instance, "stop")
		}
	})
	// An idx declared over a subset structurally reads the subset.
	for _, idx := range j.decls.idxOrder {
		if of := j.decls.idxs[idx]; j.decls.subsets[of] != "" {
			addAccess(j.Reads, "s:"+of, Access{Pos: j.FQ + "/decls/idx " + idx})
		}
	}
}

// destinations is Targets(o) with the rejections: an idx that is not declared,
// an element or reference that names no junction, and a static destination
// that is the sender itself. A rejected entry is nil; the rest stay at their
// universe position.
func (p *Program) destinations(j *Junction, o *Op) []*Junction {
	universe, ok := j.IdxUniverse(o.To.Idx)
	if o.To.Idx != "" && !ok {
		p.reject(j, o.Pos, o.To.Idx, "junction target %q is not a declared idx", o.To.Idx)
		return nil
	}
	ts := p.Targets(o)
	for i, t := range ts {
		switch {
		case t == nil && o.To.Idx != "":
			p.reject(j, o.Pos, universe[i], "idx %q element %q does not name a junction", o.To.Idx, universe[i])
		case t == nil:
			p.reject(j, o.Pos, o.To.String(), "unresolvable junction reference %s", o.To)
		case t == j && o.To.Idx == "":
			p.reject(j, o.Pos, o.To.String(), "%s names its own junction: communication to self is disallowed (paper §6)", o.Stmt)
			ts[i] = nil
		}
	}
	return ts
}

// recordReads registers every proposition a formula evaluated at j consults
// (local props on j, junction-qualified props on the resolved junction, and
// [$idx] families expanded over the idx universe), rejecting a qualifier
// that names no junction and a proposition its junction does not declare.
func (p *Program) recordReads(j *Junction, pos string, f formula.Formula) {
	for _, pr := range formula.Props(f) {
		target := j
		if pr.Junction != "" {
			if target = p.Junctions[j.Qualifier(pr.Junction)]; target == nil {
				p.reject(j, pos, pr.Junction, "unresolvable junction %q", pr.Junction)
				continue
			}
		}
		if strings.HasPrefix(pr.Name, "@") {
			continue // runtime-provided predicate (@running liveness)
		}
		keys, idx, ok := j.formulaKeys(pr.Name)
		if !ok {
			p.reject(j, pos, idx, "idx %q not declared", idx)
			continue
		}
		if idx != "" {
			addAccess(j.Reads, "i:"+idx, Access{Pos: pos})
		}
		for _, key := range keys {
			addAccess(target.Reads, "p:"+key, Access{Pos: pos, From: j.FQ})
			switch {
			case target.HasProp(key):
			case target == j:
				p.reject(j, pos, pr.Name, "proposition %q not declared", key)
			default:
				p.reject(j, pos, pr.Name, "proposition %q not declared at %s", key, target.FQ)
			}
		}
	}
}

// recordPropUpdate registers an assert/retract: the local write (when the
// target is this junction, or, for a remote update, when the key is declared
// here, mirroring the runtime's local-first update) and the remote write at
// every resolved target, each of which must declare the keys it can receive
// (KeysTo).
func (p *Program) recordPropUpdate(j *Junction, o *Op) {
	class := "ff"
	if o.Value {
		class = "tt"
	}
	keys := o.Ref.Keys
	if o.Prop.IndexIsVar {
		if _, ok := j.IdxUniverse(o.Prop.Index); !ok {
			p.reject(j, o.Pos, o.Prop.Index, "idx %q not declared", o.Prop.Index)
			return
		}
		addAccess(j.Reads, "i:"+o.Prop.Index, Access{Pos: o.Pos})
	}
	local := o.To.IsLocal() || o.To.MeJunction
	for _, key := range keys {
		switch {
		case local && !j.HasProp(key):
			p.reject(j, o.Pos, o.Prop.String(), "proposition %q not declared", key)
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
	for i, t := range p.destinations(j, o) {
		if t == nil {
			continue
		}
		for _, key := range o.KeysTo(i) {
			addAccess(t.Writes, "p:"+key, Access{Pos: o.Pos, Kind: AccessIncoming, From: j.FQ, Class: class})
			if !t.HasProp(key) {
				p.reject(j, o.Pos, o.Prop.String(), "proposition %q not declared at %s", key, t.FQ)
			}
		}
	}
}
