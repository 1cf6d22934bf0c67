// Package plan is the one static pass over a dsl.Program: it checks the
// program (dsl.Validate's shape rules, then every name through its one
// resolver), lowers every junction body once, records the program's access
// facts off the lowered ops, and hands the result, a Program, to every tool —
// the runtime compiles its ops to closures per start (the same split package
// serial uses between plan compilation and codec execution), vet's passes
// read its facts, the cost model counts its ops and the model checker steps
// them.
//
// Guard and wait formulas get read-sets (the concrete local table keys they
// consult, with idx-indexed families expanded over their static element
// universe), and transaction blocks get write-sets (the keys their body can
// touch), so the runtime can subscribe to exactly the keys a guard reads and
// snapshot exactly the keys a transaction can modify. Names resolve through
// one resolver (facts.go), the runtime's own rule. Case expressions run one
// terminator machine (case.go), and main one interpreter (main.go).
package plan

import (
	"sort"
	"strings"

	"csaw/internal/dsl"
	"csaw/internal/formula"
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
	// Remote is true when the formula also consults state outside the local
	// table: junction-qualified propositions or the @running liveness
	// predicate (Origins says which). The runtime watches those tables and
	// liveness cells too, so such a formula wakes on their changes as well.
	Remote bool
	// Idx is true when the formula reads through an idx variable, i.e. its
	// concrete keys depend on runtime idx state.
	Idx bool
	// Origins records where each read came from, one entry per distinct
	// (key, qualifier) pair — including the remote-qualified reads that
	// contribute no Props key, whose junctions the runtime watches.
	Origins []ReadOrigin
}

// ReadOrigin is the provenance of one read of a formula's read-set.
type ReadOrigin struct {
	// Key is the resolved table key at the declaring junction.
	Key string
	// Junction is the fully-qualified junction a remote-qualified read reads
	// ("other::junction" in other@P when other has one junction), with me::
	// tokens substituted (Compile rejects a qualifier that names no
	// junction). Empty for local reads.
	Junction string
	// Liveness is true for @-prefixed runtime predicates (@running), which
	// read scheduler liveness state rather than any table.
	Liveness bool
	// IdxFamily names the idx variable the key was expanded from; empty for
	// direct reads.
	IdxFamily string
}

// WriteSet lists the local table keys a statement or a transaction body can
// modify.
type WriteSet struct {
	Props []string
	Data  []string
}

// WaitPlan is the lowered form of one wait statement.
type WaitPlan struct {
	// Static is set when the wait formula reads no idx variables: Admit is
	// then the same on every execution of the statement. Idx-reading waits
	// take their admission set per execution (Admits over the SubstIdx'd
	// formula) against current idx values.
	Static bool
	// Admit is the admission set, as resolved names (valid only when Static).
	Admit WriteSet
	// Reads is the read-set of the wait condition plus the waited data keys;
	// it is the subscription set while blocked.
	Reads ReadSet
}

// Junction is one (instance, junction) pair: its resolved declarations, its
// lowered guard and body, and the accesses every junction's ops make to its
// table.
type Junction struct {
	Inst, Jn, Type string
	FQ             string
	Def            *dsl.JunctionDef
	// Guard is the read-set of the junction's guard formula; nil when the
	// junction is unguarded.
	Guard *ReadSet
	// Body is the lowered body.
	Body *Block
	// Reads and Writes map namespaced keys ("p:Work", "d:n", "i:tgt",
	// "s:tgt") to access records, in program order. Incoming writes and
	// qualified reads from other junctions are recorded here too.
	Reads  map[string][]Access
	Writes map[string][]Access

	prog  *dsl.Program
	decls declIndex
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

// Program is the lowered form of a whole architecture, and the one set of
// static facts about it that the executor, vet, the model checker and the
// cost model read.
type Program struct {
	Prog *dsl.Program
	// Juncs is every instance junction in declaration order; Junctions
	// indexes them by FQ.
	Juncs     []*Junction
	Junctions map[string]*Junction
	// TypeJuncs is one entry per (type, junction) with a representative
	// instance.
	TypeJuncs []*TypeJunction
	// Started is the set of instances main starts (ModelMain) or any body
	// can start.
	Started    map[string]bool
	Invariants []Invariant

	// errs are Compile's faults, one per key of rejected (reject).
	errs     []string
	rejected map[string]bool
}

// Lookup resolves a fully-qualified junction name.
func (p *Program) Lookup(fq string) *Junction { return p.Junctions[fq] }

// Compile checks and lowers a program once. dsl.Validate's shape rules run
// first; then, in three phases, every body is lowered to ops; the accesses are
// recorded by walking the ops, and every name that does not resolve is
// rejected where it would have been recorded; then, with every remotely read
// proposition known, each block is cut into steps and each transaction's
// prefix write-sets are computed. The error wraps dsl.ErrInvalid and lists
// every fault, sorted, each at its type-level position.
func Compile(p *dsl.Program) (*Program, error) {
	if err := dsl.Validate(p); err != nil {
		return nil, err
	}
	out := &Program{Prog: p, Junctions: map[string]*Junction{}, Started: map[string]bool{}}
	repSeen := map[string]bool{}
	for _, inst := range p.InstanceNames() {
		t := p.Types[p.Instances[inst]]
		for _, jn := range t.JunctionNames() {
			def := t.Junctions[jn]
			j := &Junction{
				Inst: inst, Jn: jn, Type: t.Name, FQ: inst + "::" + jn, Def: def,
				Reads: map[string][]Access{}, Writes: map[string][]Access{}, prog: p,
			}
			j.indexDecls()
			if def.Guard != nil {
				rs := FormulaReadSet(j, def.Guard)
				j.Guard = &rs
			}
			j.Body = lowerer{j}.block(def.Body, j.FQ+"/body")
			out.Juncs = append(out.Juncs, j)
			out.Junctions[j.FQ] = j
			if tk := t.Name + "::" + jn; !repSeen[tk] {
				repSeen[tk] = true
				out.TypeJuncs = append(out.TypeJuncs, &TypeJunction{Type: t.Name, Junction: jn, Def: def, Rep: j})
			}
		}
	}
	// A main that fails at run time is a fault here: every start or stop
	// that fails it is named, one line each (a par joins its arms' failures).
	if err := ModelMain(p.Main, func(inst string) { out.Started[inst] = true }, func(string) {}); err != nil {
		for _, line := range strings.Split(err.Error(), "\n") {
			out.reject(nil, "main", line, "%s", line)
		}
	}
	for _, j := range out.Juncs {
		out.record(j)
	}
	for _, inv := range p.Invariants {
		out.Invariants = append(out.Invariants, out.compileInvariant(inv))
	}
	if len(out.errs) > 0 {
		sort.Strings(out.errs)
		return nil, dsl.Invalid(out.errs)
	}
	for _, j := range out.Juncs {
		cutSteps(j)
	}
	return out, nil
}

// compileInvariant resolves each qualified proposition of an invariant to the
// junction FQ + table key it reads, rejecting a qualifier that names no
// junction and a key its junction does not declare (dsl.Validate has checked
// that each is qualified and unindexed). @-prefixed predicates keep the
// junction entry (so the checker knows the invariant observes that junction)
// but contribute no table key.
func (p *Program) compileInvariant(inv dsl.Invariant) Invariant {
	li := Invariant{Name: inv.Name, Cond: inv.Cond, Reads: map[string][]string{}}
	at := "invariant " + inv.Name
	seen := map[string]map[string]bool{}
	for _, pr := range formula.Props(inv.Cond) {
		t := p.Junctions[p.JunctionFQ(pr.Junction)]
		if t == nil {
			p.reject(nil, at, pr.Junction, "unresolvable junction %q", pr.Junction)
			continue
		}
		if seen[t.FQ] == nil {
			seen[t.FQ] = map[string]bool{}
			li.Reads[t.FQ] = []string{}
		}
		if strings.HasPrefix(pr.Name, "@") || seen[t.FQ][pr.Name] {
			continue
		}
		if !t.HasProp(pr.Name) {
			p.reject(nil, at, pr.Name, "proposition %q not declared at %s", pr.Name, t.FQ)
		}
		seen[t.FQ][pr.Name] = true
		li.Reads[t.FQ] = append(li.Reads[t.FQ], pr.Name)
	}
	for fq := range li.Reads {
		sort.Strings(li.Reads[fq])
	}
	return li
}

// FormulaReadSet computes the local keys formula f consults when evaluated
// at junction j, through the one resolver (facts.go): an idx family expands
// over its universe as the runtime binds it, and a qualified read keeps its
// fully-qualified junction in its origin.
func FormulaReadSet(j *Junction, f formula.Formula) ReadSet {
	var rs ReadSet
	seen := map[string]bool{}
	seenOrigin := map[ReadOrigin]bool{}
	origin := func(o ReadOrigin) {
		if !seenOrigin[o] {
			seenOrigin[o] = true
			rs.Origins = append(rs.Origins, o)
		}
	}
	for _, p := range formula.Props(f) {
		live := strings.HasPrefix(p.Name, "@")
		if p.Junction != "" || live {
			rs.Remote = true
			key := p.Name
			if _, _, isIdx := dsl.SplitIdxProp(key); !isIdx {
				key = j.ResolveName(key)
			}
			q := p.Junction
			if q != "" {
				q = j.Qualifier(q) // "" is an unqualified @-predicate
			}
			origin(ReadOrigin{Key: key, Junction: q, Liveness: live})
			continue
		}
		keys, idx, _ := j.formulaKeys(p.Name) // Compile rejects an undeclared idx
		if idx != "" {
			rs.Idx = true
		}
		for _, key := range keys {
			if !seen[key] {
				seen[key] = true
				rs.Props = append(rs.Props, key)
			}
			origin(ReadOrigin{Key: key, IdxFamily: idx})
		}
	}
	return rs
}

// SubstIdx rewrites the local propositions of f to the table keys they read
// at this moment: an idx-indexed one through idx, which names the idx's
// current element ("" when it is undef, which leaves the proposition as is,
// reading Unknown), any other with its me:: tokens resolved by self. Every
// wait's admission set is taken over it (Admits), and the model checker
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

// Admits is what a wait blocked on cond lets through (paper §6 "Junction
// state"): updates to the propositions cond reads and to the waited data
// keys. cond's names must be resolved (SubstIdx); a junction-qualified
// proposition lives in another junction's table, so no update to it arrives
// here.
func Admits(cond formula.Formula, data []string) WriteSet {
	ws := WriteSet{Data: data}
	if cond != nil {
		for _, p := range formula.Props(cond) {
			if p.Junction == "" {
				ws.Props = append(ws.Props, p.Name)
			}
		}
	}
	return ws
}

// CompileWait lowers one wait statement evaluated at j.
func CompileWait(j *Junction, w dsl.Wait) WaitPlan {
	rs := FormulaReadSet(j, w.Cond)
	rs.Data = append(rs.Data, w.Data...)
	wp := WaitPlan{Reads: rs, Static: !rs.Idx}
	if wp.Static {
		noIdx := func(string) string { return "" }
		wp.Admit = Admits(SubstIdx(w.Cond, j.ResolveName, noIdx), w.Data)
	}
	return wp
}
