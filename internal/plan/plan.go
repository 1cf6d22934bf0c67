// Package plan lowers a validated dsl.Program into per-junction execution
// metadata, computed once instead of rediscovered on every scheduling.
//
// The lowering reuses the dependency facts of internal/analysis: guard and
// wait formulas get read-sets (the concrete local table keys they consult,
// with idx-indexed families expanded over their static element universe),
// and transaction blocks get write-sets (the keys their body can touch), so
// the runtime can subscribe to exactly the keys a guard reads and snapshot
// exactly the keys a transaction can modify. Lower (body.go) lowers a junction
// body into the ops every tool consumes: the runtime compiles them to
// closures per start (the same split package serial uses between plan
// compilation and codec execution), the cost model counts them and the model
// checker steps them. Case expressions run one terminator machine (case.go).
package plan

import (
	"sort"
	"strings"

	"csaw/internal/analysis"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/kv"
)

// ReadSet lists the concrete local table keys a formula consults when
// evaluated at one junction.
type ReadSet struct {
	// Props are resolved local proposition keys; an idx-indexed proposition
	// P[tgt] contributes its whole family over tgt's element universe (the
	// value of tgt selects among them at evaluation time).
	Props []string
	// Data are data keys read-waited alongside the formula (wait's n⃗).
	Data []string
	// Remote is true when the formula also consults state the local table
	// cannot observe: junction-qualified propositions, the @running liveness
	// predicate, or an idx family whose universe is not statically
	// resolvable. Keyed subscriptions cannot wake on those changes, so
	// schedulers keep a fallback poll for such formulas.
	Remote bool
	// Idx is true when the formula reads through an idx variable, i.e. its
	// concrete keys depend on runtime idx state.
	Idx bool
	// Unbounded is true when an idx family could not be expanded because its
	// element universe is not statically resolvable; Props then under-lists
	// the formula's keys. Unbounded implies Remote.
	Unbounded bool
	// Origins records where each read came from, one entry per distinct
	// (key, qualifier) pair — including the remote-qualified and unbounded
	// reads that contribute no Props key. Consumers that only care about
	// subscription keys can ignore it; the cost analysis uses it to attribute
	// poll-bound reads to their declaring junction.
	Origins []ReadOrigin
}

// ReadOrigin is the provenance of one read of a formula's read-set.
type ReadOrigin struct {
	// Key is the resolved table key at the declaring junction. Empty when the
	// read is an idx family whose universe could not be expanded.
	Key string
	// Junction is the resolved junction qualifier of a remote-qualified read
	// ("other::junction" in other::junction@P), with me:: tokens substituted.
	// It may still be a bare instance name when the program resolves the
	// junction at a level this function cannot see. Empty for local reads.
	Junction string
	// Remote mirrors the ReadSet classification for this one read: true when
	// the local table's keyed subscriptions cannot observe it.
	Remote bool
	// Liveness is true for @-prefixed runtime predicates (@running), which
	// read scheduler liveness state rather than any table.
	Liveness bool
	// IdxFamily names the idx variable the key was expanded from; empty for
	// direct reads.
	IdxFamily string
	// Unbounded is true when IdxFamily's element universe was not statically
	// resolvable (Key is then empty).
	Unbounded bool
}

// LocalOnly reports whether every input of the formula is observable through
// the local table's keyed subscriptions — the "never poll" case.
func (rs ReadSet) LocalOnly() bool { return !rs.Remote }

// WriteSet lists the local table keys a transaction body can modify.
type WriteSet struct {
	Props []string
	Data  []string
	// Full marks a write-set that could not be bounded statically; the
	// transaction falls back to snapshotting the whole table.
	Full bool
}

// WaitPlan is the lowered form of one wait statement.
type WaitPlan struct {
	// Static is set when the wait formula reads no idx variables: WS is then
	// prebuilt once and shared (read-only) by every execution of the
	// statement. Idx-reading waits rebuild their admission set per execution
	// against current idx values.
	Static bool
	// WS is the prebuilt admission set (valid only when Static).
	WS kv.WaitSet
	// Reads is the read-set of the wait condition plus the waited data keys;
	// it is the subscription set while blocked.
	Reads ReadSet
}

// Junction is the lowered metadata for one (instance, junction) pair.
type Junction struct {
	FQ   string
	Info *analysis.JunctionInfo
	// Guard is the read-set of the junction's guard formula; nil when the
	// junction is unguarded.
	Guard *ReadSet
}

// Invariant is the lowered form of one program-level invariant declaration:
// the formula plus, per referenced junction FQ, the proposition keys the
// formula reads there (@-predicates like @running are evaluated from
// liveness state, not the table, and are omitted from Reads).
type Invariant struct {
	Name string
	Cond formula.Formula
	// Reads maps "inst::junction" to the sorted table keys read there.
	Reads map[string][]string
}

// Program is the lowered form of a whole architecture.
type Program struct {
	Prog       *dsl.Program
	Junctions  map[string]*Junction
	Invariants []Invariant
}

// Compile lowers a validated program. It never fails: anything it cannot
// bound statically degrades to the conservative form (Remote read-sets that
// keep the poll fallback, Full write-sets that snapshot the whole table).
func Compile(p *dsl.Program) *Program {
	ctx := analysis.NewContext(p, 0)
	out := &Program{Prog: p, Junctions: map[string]*Junction{}}
	for _, ji := range ctx.Juncs {
		pj := &Junction{FQ: ji.FQ, Info: ji}
		if ji.Def.Guard != nil {
			rs := FormulaReadSet(ji, ji.Def.Guard)
			pj.Guard = &rs
		}
		out.Junctions[ji.FQ] = pj
	}
	for _, inv := range p.Invariants {
		out.Invariants = append(out.Invariants, compileInvariant(p, inv))
	}
	return out
}

// compileInvariant resolves each qualified proposition of an invariant to the
// junction FQ + table key it reads. Validation guarantees every junction
// resolves; @-prefixed predicates keep the junction entry (so the checker
// knows the invariant observes that junction) but contribute no table key.
func compileInvariant(p *dsl.Program, inv dsl.Invariant) Invariant {
	li := Invariant{Name: inv.Name, Cond: inv.Cond, Reads: map[string][]string{}}
	seen := map[string]map[string]bool{}
	for _, pr := range formula.Props(inv.Cond) {
		if pr.Junction == "" {
			continue
		}
		fq := pr.Junction
		if !strings.Contains(fq, "::") {
			if inst, jn, err := dsl.ResolveElemJunction(p, fq); err == nil {
				fq = inst + "::" + jn
			}
		}
		if seen[fq] == nil {
			seen[fq] = map[string]bool{}
			li.Reads[fq] = []string{}
		}
		if strings.HasPrefix(pr.Name, "@") || seen[fq][pr.Name] {
			continue
		}
		seen[fq][pr.Name] = true
		li.Reads[fq] = append(li.Reads[fq], pr.Name)
	}
	for fq := range li.Reads {
		sort.Strings(li.Reads[fq])
	}
	return li
}

// FormulaReadSet computes the local keys formula f consults when evaluated
// at junction ji. Idx-indexed propositions keep their raw base (the runtime
// does not substitute me:: tokens under an index) and expand over the idx's
// element universe with set elements resolved, mirroring how the runtime
// resolves them at declaration and SetIdx time.
func FormulaReadSet(ji *analysis.JunctionInfo, f formula.Formula) ReadSet {
	var rs ReadSet
	seen := map[string]bool{}
	seenOrigin := map[ReadOrigin]bool{}
	add := func(key string) {
		if !seen[key] {
			seen[key] = true
			rs.Props = append(rs.Props, key)
		}
	}
	origin := func(o ReadOrigin) {
		if !seenOrigin[o] {
			seenOrigin[o] = true
			rs.Origins = append(rs.Origins, o)
		}
	}
	for _, p := range formula.Props(f) {
		if p.Junction != "" || strings.HasPrefix(p.Name, "@") {
			rs.Remote = true
			origin(ReadOrigin{
				Key:      ji.ResolveName(p.Name),
				Junction: ji.ResolveName(p.Junction),
				Remote:   true,
				Liveness: strings.HasPrefix(p.Name, "@"),
			})
			continue
		}
		if base, idxVar, ok := dsl.SplitIdxProp(p.Name); ok {
			rs.Idx = true
			elems, known := ji.IdxUniverse(idxVar)
			if !known {
				rs.Remote = true
				rs.Unbounded = true
				origin(ReadOrigin{IdxFamily: idxVar, Remote: true, Unbounded: true})
				continue
			}
			for _, e := range elems {
				key := dsl.IndexedName(base, ji.ResolveName(e))
				add(key)
				origin(ReadOrigin{Key: key, IdxFamily: idxVar})
			}
			continue
		}
		key := ji.ResolveName(p.Name)
		add(key)
		origin(ReadOrigin{Key: key})
	}
	return rs
}

// SubstIdx rewrites the local propositions of f to the table keys they read
// at this moment: an idx-indexed one through idx, which names the idx's
// current element ("" when it is undef, which leaves the proposition as is,
// reading Unknown), any other with its me:: tokens resolved by self. The
// runtime admits an idx-reading wait's keys by it, and the model checker
// evaluates every body formula through it.
func SubstIdx(f formula.Formula, self func(string) string, idx func(string) string) formula.Formula {
	switch n := f.(type) {
	case formula.Prop:
		if n.Junction != "" {
			return n
		}
		if base, idxVar, ok := dsl.SplitIdxProp(n.Name); ok {
			if elem := idx(idxVar); elem != "" {
				return formula.P(dsl.IndexedName(base, elem))
			}
			return n
		}
		return formula.P(self(n.Name))
	case formula.NotF:
		return formula.NotF{F: SubstIdx(n.F, self, idx)}
	case formula.AndF:
		return formula.AndF{L: SubstIdx(n.L, self, idx), R: SubstIdx(n.R, self, idx)}
	case formula.OrF:
		return formula.OrF{L: SubstIdx(n.L, self, idx), R: SubstIdx(n.R, self, idx)}
	case formula.ImpliesF:
		return formula.ImpliesF{L: SubstIdx(n.L, self, idx), R: SubstIdx(n.R, self, idx)}
	default:
		return f
	}
}

// CompileWait lowers one wait statement evaluated at ji.
func CompileWait(ji *analysis.JunctionInfo, w dsl.Wait) WaitPlan {
	rs := FormulaReadSet(ji, w.Cond)
	rs.Data = append(rs.Data, w.Data...)
	wp := WaitPlan{Reads: rs}
	if !rs.Idx {
		// No idx variables: the admission set an idx-reading wait builds per
		// execution (NewWaitSet over the idx-substituted formula) is the same
		// every time — build it once.
		wp.Static = true
		wp.WS = kv.WaitSet{Props: map[string]bool{}, Data: map[string]bool{}}
		if w.Cond != nil {
			for _, p := range formula.Props(w.Cond) {
				if p.Junction == "" {
					wp.WS.Props[ji.ResolveName(p.Name)] = true
				}
			}
		}
		for _, k := range w.Data {
			wp.WS.Data[k] = true
		}
	}
	return wp
}

// CompileTxn computes the write-set of a transaction body evaluated at ji:
// every local table key an assert/retract/save/restore/host-sink statement
// can modify, plus every key a nested wait can admit a remote update for
// (admitted updates apply mid-transaction, and a rollback must put them
// back too). Lower computes it for every prefix of a transaction's steps
// (Op.Wrote). A body containing anything unboundable degrades to Full.
func CompileTxn(ji *analysis.JunctionInfo, body []dsl.Expr) WriteSet {
	var ws WriteSet
	seenP := map[string]bool{}
	seenD := map[string]bool{}
	addProp := func(key string) {
		if !seenP[key] {
			seenP[key] = true
			ws.Props = append(ws.Props, key)
		}
	}
	addData := func(key string) {
		if !seenD[key] {
			seenD[key] = true
			ws.Data = append(ws.Data, key)
		}
	}
	addFormulaProps := func(f formula.Formula) bool {
		rs := FormulaReadSet(ji, f)
		if rs.Unbounded {
			return false // an idx family we cannot expand
		}
		for _, k := range rs.Props {
			addProp(k)
		}
		return true
	}
	for _, e := range body {
		err := dsl.WalkErr(e, func(x dsl.Expr) error {
			switch n := x.(type) {
			case dsl.Assert:
				keys, _ := ji.PropKeys(n.Prop)
				if keys == nil {
					ws.Full = true
					break
				}
				for _, k := range keys {
					addProp(k)
				}
			case dsl.Retract:
				keys, _ := ji.PropKeys(n.Prop)
				if keys == nil {
					ws.Full = true
					break
				}
				for _, k := range keys {
					addProp(k)
				}
			case dsl.Save:
				addData(n.Data)
			case dsl.Restore:
				for _, w := range n.Writes {
					switch {
					case ji.HasProp(ji.ResolveName(w)):
						addProp(ji.ResolveName(w))
					case ji.HasData(w):
						addData(w)
					}
					// idx / subset writes are junction state, not table
					// state: a rollback does not revert them.
				}
			case dsl.Wait:
				if !addFormulaProps(n.Cond) {
					ws.Full = true
				}
				for _, k := range n.Data {
					addData(k)
				}
			case dsl.Host:
				// Validation forbids host blocks inside transactions;
				// degrade rather than miscompile if one slips through.
				ws.Full = true
			}
			return nil
		})
		if err != nil {
			ws.Full = true
		}
	}
	return ws
}
