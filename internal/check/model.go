package check

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"csaw/internal/analysis"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

// jstate is the abstract KV table of one junction: concrete booleans for
// propositions, ternary presence for named data, concrete idx/subset
// assignments, and the pending queue collapsed to last-writer-wins per key
// (sound for the convergent table: ApplyPending applies in arrival order, so
// only the last value per key survives). kv.Table coalesces the same way,
// but only a run of adjacent same-key updates; the model's per-key collapse
// is the coarser abstraction of that queue.
type jstate struct {
	props map[string]bool
	data  map[string]bool // defined?
	pendP map[string]bool
	pendD map[string]bool
	idx   map[string]string   // "" = undef
	sub   map[string][]string // nil = undef; stored sorted
}

func (js *jstate) clone() *jstate {
	cp := &jstate{
		props: make(map[string]bool, len(js.props)),
		data:  make(map[string]bool, len(js.data)),
		pendP: make(map[string]bool, len(js.pendP)),
		pendD: make(map[string]bool, len(js.pendD)),
		idx:   make(map[string]string, len(js.idx)),
		sub:   make(map[string][]string, len(js.sub)),
	}
	for k, v := range js.props {
		cp.props[k] = v
	}
	for k, v := range js.data {
		cp.data[k] = v
	}
	for k, v := range js.pendP {
		cp.pendP[k] = v
	}
	for k, v := range js.pendD {
		cp.pendD[k] = v
	}
	for k, v := range js.idx {
		cp.idx[k] = v
	}
	for k, v := range js.sub {
		cp.sub[k] = v // subset slices are replaced wholesale, safe to share
	}
	return cp
}

// state is one explored configuration.
type state struct {
	running map[string]bool
	js      map[string]*jstate
	threads []*thread // ascending id
	envLeft int
	nextTid int
}

func (st *state) clone() *state {
	cp := &state{
		running: make(map[string]bool, len(st.running)),
		js:      make(map[string]*jstate, len(st.js)),
		threads: make([]*thread, len(st.threads)),
		envLeft: st.envLeft,
		nextTid: st.nextTid,
	}
	for k, v := range st.running {
		cp.running[k] = v
	}
	for k, v := range st.js {
		cp.js[k] = v.clone()
	}
	for i, t := range st.threads {
		cp.threads[i] = t.clone()
	}
	return cp
}

func (st *state) thread(id int) *thread {
	for _, t := range st.threads {
		if t.id == id {
			return t
		}
	}
	return nil
}

func (st *state) removeThread(id int) {
	for i, t := range st.threads {
		if t.id == id {
			st.threads = append(st.threads[:i], st.threads[i+1:]...)
			return
		}
	}
}

func (st *state) threadsOf(fq string) int {
	n := 0
	for _, t := range st.threads {
		if t.fq == fq {
			n++
		}
	}
	return n
}

// obsKeys is a key set with prefix entries for idx-indexed families whose
// concrete element is unknown statically.
type obsKeys struct {
	exact    map[string]bool
	prefixes []string
}

func newObsKeys() *obsKeys { return &obsKeys{exact: map[string]bool{}} }

func (o *obsKeys) add(key string) {
	if base, _, ok := dsl.SplitIdxProp(key); ok {
		o.prefixes = append(o.prefixes, base+"[")
		return
	}
	o.exact[key] = true
}

func (o *obsKeys) has(key string) bool {
	if o == nil {
		return false
	}
	if o.exact[key] {
		return true
	}
	for _, p := range o.prefixes {
		if strings.HasPrefix(key, p) {
			return true
		}
	}
	return false
}

// checker carries the static facts of one exploration.
type checker struct {
	prog *dsl.Program
	pp   *plan.Program
	opts Options

	fqs       []string // every instance junction, sorted
	infos     map[string]*plan.Junction
	instJuncs map[string][]string // instance -> its junction FQs, sorted

	// observable[fq] is the set of fq's local keys read remotely (qualified
	// formula references from other junctions); writes to them are visible.
	observable map[string]*obsKeys
	// incomingP/incomingD are keys other junctions (or the environment) write
	// into fq's table; local writes to them race with the pending queue.
	incomingP map[string]map[string]bool
	incomingD map[string]map[string]bool
	// raceKeys are fq-local keys in event-structure-confirmed sibling-branch
	// write races (analysis.EventRaces over the §8 denotation).
	raceKeys map[string]*obsKeys
	// bodyReadP are fq-local prop keys read by fq's own guard and body
	// formulas; allReads marks junctions with statically unbounded read sets.
	bodyReadP map[string]map[string]bool
	allReads  map[string]bool
	// bodyWriteP are fq-local prop keys fq's own body writes.
	bodyWriteP map[string]map[string]bool
	// envInj are fq's environment-assertable propositions: read by its guard
	// or a wait, never asserted by any program statement, initially false.
	envInj map[string][]string

	// Exploration-global observations for the liveness verdict.
	fired       map[string]bool
	guardTrue   map[string]bool
	everStarted map[string]bool
	bodyErrs    map[string]string
	unsup       map[string]bool
}

func newChecker(p *dsl.Program, opts Options) *checker {
	pp := plan.Compile(p)
	c := &checker{
		prog:        p,
		pp:          pp,
		opts:        opts,
		infos:       pp.Junctions,
		instJuncs:   map[string][]string{},
		observable:  map[string]*obsKeys{},
		incomingP:   map[string]map[string]bool{},
		incomingD:   map[string]map[string]bool{},
		raceKeys:    map[string]*obsKeys{},
		bodyReadP:   map[string]map[string]bool{},
		allReads:    map[string]bool{},
		bodyWriteP:  map[string]map[string]bool{},
		envInj:      map[string][]string{},
		fired:       map[string]bool{},
		guardTrue:   map[string]bool{},
		everStarted: map[string]bool{},
		bodyErrs:    map[string]string{},
		unsup:       map[string]bool{},
	}
	for _, ji := range pp.Juncs {
		c.fqs = append(c.fqs, ji.FQ)
		c.instJuncs[ji.Inst] = append(c.instJuncs[ji.Inst], ji.FQ)
		c.observable[ji.FQ] = newObsKeys()
		c.incomingP[ji.FQ] = map[string]bool{}
		c.incomingD[ji.FQ] = map[string]bool{}
		c.bodyReadP[ji.FQ] = map[string]bool{}
		c.bodyWriteP[ji.FQ] = map[string]bool{}
	}
	sort.Strings(c.fqs)
	for _, fqs := range c.instJuncs {
		sort.Strings(fqs)
	}
	c.buildStaticFacts()
	return c
}

func (c *checker) buildStaticFacts() {
	for _, fq := range c.fqs {
		ji := c.infos[fq]
		fs := []formula.Formula{}
		if ji.Def.Guard != nil {
			fs = append(fs, ji.Def.Guard)
		}
		plan.Walk(ji.Body.Ops, func(o *plan.Op, _ []*plan.Op) {
			o.Conds(func(_ string, f formula.Formula) { fs = append(fs, f) })
		})
		for _, f := range fs {
			rs := plan.FormulaReadSet(ji, f)
			// Remote visibility: a qualified reference At(γ, P) in any of this
			// junction's formulas makes P observable at γ.
			for _, o := range rs.Origins {
				switch {
				case o.Junction == "" || o.Liveness:
				case !strings.Contains(o.Junction, "::"):
					// Unresolvable qualifier (idx-valued): every junction
					// must treat the key as observable.
					for _, ofq := range c.fqs {
						c.observable[ofq].add(o.Key)
					}
				case c.observable[o.Junction] != nil:
					c.observable[o.Junction].add(o.Key)
				}
			}
			// Own read set, for sibling-branch read/write visibility.
			for _, k := range rs.Props {
				c.bodyReadP[fq][k] = true
			}
			if rs.Unbounded {
				c.allReads[fq] = true
			}
		}

		// Incoming writes (remote assert/retract/write targets recorded on
		// the target's Writes map) and own local writes.
		for key, accs := range ji.Writes {
			kind, name, ok := strings.Cut(key, ":")
			if !ok {
				continue
			}
			for _, a := range accs {
				switch {
				case a.Kind == plan.AccessIncoming && kind == "p":
					c.incomingP[fq][name] = true
				case a.Kind == plan.AccessIncoming && kind == "d":
					c.incomingD[fq][name] = true
				case kind == "p":
					c.bodyWriteP[fq][name] = true
				}
			}
		}

		// Sibling-branch race keys, confirmed concurrent by the §8 event
		// structure (exercises the memoized Consistent relation).
		rk := newObsKeys()
		for race := range analysis.EventRaces(fq, ji.Def, 0) {
			if race.Junction != fq {
				continue
			}
			rk.add(race.Key)
			if i := strings.IndexByte(race.Key, '['); i > 0 {
				rk.prefixes = append(rk.prefixes, race.Key[:i+1])
			}
		}
		c.raceKeys[fq] = rk
	}

	// Environment-assertable propositions: consulted by a guard or wait,
	// never asserted (tt or havoc) by any statement, initially false. The
	// environment writing them is an incoming write.
	for _, fq := range c.fqs {
		ji := c.infos[fq]
		cand := map[string]bool{}
		if ji.Guard != nil {
			for _, k := range ji.Guard.Props {
				cand[k] = true
			}
		}
		plan.Walk(ji.Body.Ops, func(o *plan.Op, _ []*plan.Op) {
			if o.Kind == plan.OpWait {
				for _, k := range o.Wait.Reads.Props {
					cand[k] = true
				}
			}
		})
		for k := range cand {
			if strings.HasPrefix(k, "@") || !ji.HasProp(k) || ji.PropInit(k) {
				continue
			}
			asserted := false
			for _, a := range ji.Writes["p:"+k] {
				if a.Class == "tt" || a.Class == "*" {
					asserted = true
					break
				}
			}
			if asserted {
				continue
			}
			c.envInj[fq] = append(c.envInj[fq], k)
			c.incomingP[fq][k] = true
		}
		sort.Strings(c.envInj[fq])
	}
}

// ---- state construction -------------------------------------------------

func (c *checker) initialState() *state {
	st := &state{
		running: map[string]bool{},
		js:      map[string]*jstate{},
		envLeft: c.opts.MaxEnv,
	}
	// Main is executed as a sequential prefix: start/stop effects in walk
	// order (the driver of every catalogue pattern is a sequence of starts).
	dsl.WalkBody(c.prog.Main, func(e dsl.Expr) {
		switch n := e.(type) {
		case dsl.Start:
			if !st.running[n.Instance] {
				c.startInstance(st, n.Instance)
			}
		case dsl.Stop:
			st.running[n.Instance] = false
		}
	})
	return st
}

func (c *checker) startInstance(st *state, inst string) {
	st.running[inst] = true
	c.everStarted[inst] = true
	for _, fq := range c.instJuncs[inst] {
		ji := c.infos[fq]
		js := &jstate{
			props: map[string]bool{},
			data:  map[string]bool{},
			pendP: map[string]bool{},
			pendD: map[string]bool{},
			idx:   map[string]string{},
			sub:   map[string][]string{},
		}
		for _, p := range ji.Props() {
			js.props[p] = ji.PropInit(p)
		}
		for _, d := range ji.Data() {
			js.data[d] = false
		}
		for _, ix := range ji.Idxs() {
			js.idx[ix] = ""
		}
		for _, sb := range ji.Subsets() {
			js.sub[sb] = nil
		}
		st.js[fq] = js
	}
}

// ---- name resolution, mirroring internal/runtime ------------------------

func instOf(fq string) string {
	inst, _, _ := strings.Cut(fq, "::")
	return inst
}

// elemToFQ resolves a set-element or junction name to a fully-qualified
// junction, mirroring Junction.elemToFQ.
func (c *checker) elemToFQ(fromFQ, elem string) (string, error) {
	elem = c.infos[fromFQ].ResolveName(elem)
	if strings.Contains(elem, "::") {
		return elem, nil
	}
	inst, jn, err := dsl.ResolveElemJunction(c.prog, elem)
	if err != nil {
		return "", err
	}
	return inst + "::" + jn, nil
}

// resolveTarget mirrors the runtime's target resolution (compileTarget).
func (c *checker) resolveTarget(st *state, fq string, ref dsl.JunctionRef) (string, error) {
	switch {
	case ref.MeJunction:
		return fq, nil
	case ref.MeInstance:
		return instOf(fq) + "::" + ref.Junction, nil
	case ref.Idx != "":
		js := st.js[fq]
		elem := ""
		if js != nil {
			elem = js.idx[ref.Idx]
		}
		if elem == "" {
			return "", fmt.Errorf("idx %q is undef", ref.Idx)
		}
		return c.elemToFQ(fq, elem)
	case ref.Instance != "" && ref.Junction != "":
		return ref.Instance + "::" + ref.Junction, nil
	case ref.Instance != "":
		return c.elemToFQ(fq, ref.Instance)
	default:
		return "", fmt.Errorf("empty junction reference")
	}
}

// resolvePropName mirrors the runtime's proposition resolution (compilePropRef).
func (c *checker) resolvePropName(st *state, fq string, pr dsl.PropRef) (string, error) {
	if pr.Index == "" {
		return c.infos[fq].ResolveName(pr.Base), nil
	}
	if pr.IndexIsVar {
		js := st.js[fq]
		elem := ""
		if js != nil {
			elem = js.idx[pr.Index]
		}
		if elem == "" {
			return "", fmt.Errorf("idx %q is undef", pr.Index)
		}
		return dsl.IndexedName(pr.Base, elem), nil
	}
	return dsl.IndexedName(pr.Base, c.infos[fq].ResolveName(pr.Index)), nil
}

// substIdx resolves a formula's local propositions against fq's idx values,
// as the runtime does at wait entry (plan.SubstIdx).
func (c *checker) substIdx(st *state, fq string, f formula.Formula) formula.Formula {
	js := st.js[fq]
	return plan.SubstIdx(f, c.infos[fq].ResolveName, func(v string) string {
		if js == nil {
			return ""
		}
		return js.idx[v]
	})
}

// ---- environment evaluation, mirroring Junction.env ----------------------

const runningProp = "@running"

// localProp reads a proposition from tableFQ's applied state with idx and
// me:: tokens resolved by resolverFQ (mirrors localPropResolvedBy).
func (c *checker) localProp(st *state, tableFQ, resolverFQ, name string) formula.Truth {
	if base, idxVar, ok := dsl.SplitIdxProp(name); ok {
		js := st.js[resolverFQ]
		elem := ""
		if js != nil {
			elem = js.idx[idxVar]
		}
		if elem == "" {
			return formula.Unknown
		}
		name = dsl.IndexedName(base, elem)
	} else {
		name = c.infos[resolverFQ].ResolveName(name)
	}
	js := st.js[tableFQ]
	if js == nil {
		return formula.Unknown
	}
	v, ok := js.props[name]
	if !ok {
		return formula.Unknown
	}
	return formula.FromBool(v)
}

// envFor builds the formula environment a junction's formulas evaluate in,
// mirroring Junction.env: unqualified names read the local table; qualified
// names read the target's applied state, with @running synthesized from
// instance liveness and every read of a stopped junction going Unknown.
func (c *checker) envFor(st *state, fq string) formula.Env {
	return formula.EnvFunc(func(junction, name string) formula.Truth {
		if junction == "" {
			return c.localProp(st, fq, fq, name)
		}
		tfq, err := c.elemToFQ(fq, junction)
		if err != nil {
			return formula.Unknown
		}
		if !st.running[instOf(tfq)] || st.js[tfq] == nil {
			if name == runningProp {
				return formula.False
			}
			return formula.Unknown
		}
		if name == runningProp {
			return formula.True
		}
		if strings.HasPrefix(name, "@") {
			return formula.Unknown
		}
		return c.localProp(st, tfq, fq, name)
	})
}

// invariantEnv evaluates program-scope invariants: all references are
// junction-qualified (enforced by Validate), read applied state only.
func (c *checker) invariantEnv(st *state) formula.Env {
	return formula.EnvFunc(func(junction, name string) formula.Truth {
		if junction == "" {
			return formula.Unknown
		}
		tfq := junction
		if !strings.Contains(tfq, "::") {
			inst, jn, err := dsl.ResolveElemJunction(c.prog, tfq)
			if err != nil {
				return formula.Unknown
			}
			tfq = inst + "::" + jn
		}
		if !st.running[instOf(tfq)] || st.js[tfq] == nil {
			if name == runningProp {
				return formula.False
			}
			return formula.Unknown
		}
		if name == runningProp {
			return formula.True
		}
		if strings.HasPrefix(name, "@") {
			return formula.Unknown
		}
		js := st.js[tfq]
		v, ok := js.props[name]
		if !ok {
			return formula.Unknown
		}
		return formula.FromBool(v)
	})
}

// ---- table mutation, mirroring internal/kv ------------------------------

func (c *checker) setPropLocal(js *jstate, key string, v bool) {
	if _, declared := js.props[key]; declared {
		js.props[key] = v
	}
	delete(js.pendP, key) // local priority: a local write drops pending
}

func (c *checker) setDataLocal(js *jstate, key string) {
	if _, declared := js.data[key]; declared {
		js.data[key] = true
	}
	delete(js.pendD, key)
}

// enqueueProp delivers a remote proposition update to tfq: applied directly
// when a blocked wait admits the key, queued pending otherwise (mirrors
// kv.Table.Enqueue).
func (c *checker) enqueueProp(st *state, tfq, key string, v bool) {
	js := st.js[tfq]
	if js == nil {
		return
	}
	if _, declared := js.props[key]; !declared {
		return // applyLocked ignores undeclared keys
	}
	for _, t := range st.threads {
		if t.fq == tfq && t.wait != nil && t.wait.admitP[key] {
			js.props[key] = v
			return
		}
	}
	js.pendP[key] = v
}

func (c *checker) enqueueData(st *state, tfq, key string) {
	js := st.js[tfq]
	if js == nil {
		return
	}
	if _, declared := js.data[key]; !declared {
		return
	}
	for _, t := range st.threads {
		if t.fq == tfq && t.wait != nil && t.wait.admitD[key] {
			js.data[key] = true
			return
		}
	}
	js.pendD[key] = true
}

func applyPending(js *jstate) int {
	n := len(js.pendP) + len(js.pendD)
	for k, v := range js.pendP {
		if _, declared := js.props[k]; declared {
			js.props[k] = v
		}
		delete(js.pendP, k)
	}
	for k := range js.pendD {
		if _, declared := js.data[k]; declared {
			js.data[k] = true
		}
		delete(js.pendD, k)
	}
	return n
}

// ---- canonical state encoding -------------------------------------------

// stateKey renders the state canonically. Thread identity is structural:
// roots are ordered by junction (at most one scheduling per junction exists
// at a time), children by slot, and frames serialize as (kind, role, pc,
// aux) chains — the frame bodies are fully determined by the chain, since
// every body is located by its creating statement's position.
func (c *checker) stateKey(st *state) string {
	var b strings.Builder
	b.WriteString("R")
	insts := make([]string, 0, len(st.running))
	for i := range st.running {
		insts = append(insts, i)
	}
	sort.Strings(insts)
	for _, i := range insts {
		b.WriteString(i)
		if st.running[i] {
			b.WriteString("+")
		} else {
			b.WriteString("-")
		}
	}
	b.WriteString("|E")
	b.WriteString(strconv.Itoa(st.envLeft))

	fqs := make([]string, 0, len(st.js))
	for fq := range st.js {
		fqs = append(fqs, fq)
	}
	sort.Strings(fqs)
	for _, fq := range fqs {
		js := st.js[fq]
		b.WriteString("|J")
		b.WriteString(fq)
		writeBoolMap(&b, "p", js.props)
		writeBoolMap(&b, "d", js.data)
		writeBoolMap(&b, "q", js.pendP)
		writeBoolMap(&b, "r", js.pendD)
		keys := make([]string, 0, len(js.idx))
		for k := range js.idx {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b.WriteString(";i" + k + "=" + js.idx[k])
		}
		keys = keys[:0]
		for k := range js.sub {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b.WriteString(";s" + k + "=")
			if js.sub[k] == nil {
				b.WriteString("?")
			} else {
				b.WriteString(strings.Join(js.sub[k], ","))
			}
		}
	}

	// Threads: canonical tree order.
	roots := make([]*thread, 0, 2)
	for _, t := range st.threads {
		if t.parent < 0 {
			roots = append(roots, t)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].fq < roots[j].fq })
	for _, r := range roots {
		c.writeThread(&b, st, r)
	}
	return b.String()
}

func writeBoolMap(b *strings.Builder, tag string, m map[string]bool) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString(";" + tag)
	for _, k := range keys {
		b.WriteString(k)
		if m[k] {
			b.WriteString("+")
		} else {
			b.WriteString("-")
		}
	}
}

func (c *checker) writeThread(b *strings.Builder, st *state, t *thread) {
	b.WriteString("|T")
	b.WriteString(t.fq)
	fmt.Fprintf(b, ";s%d;r%d;w%d", t.slot, t.retries, t.waiting)
	if t.hasPend {
		fmt.Fprintf(b, ";P%d:%s", t.pendSig, t.pendErr)
	}
	if t.wait != nil {
		b.WriteString(";W" + t.wait.condStr)
		writeBoolMap(b, "a", t.wait.admitP)
		writeBoolMap(b, "b", t.wait.admitD)
	}
	for i, cr := range t.children {
		if cr.done {
			fmt.Fprintf(b, ";c%d=%d:%s", i, cr.sig, cr.err)
		}
	}
	for _, f := range t.frames {
		fmt.Fprintf(b, ";F%d.%s.%d", f.kind, f.role, f.pc)
		switch f.kind {
		case fCase:
			m := f.cm
			fmt.Fprintf(b, ".%d.%d.%d.%d.%d.%v", m.Start, m.Base, m.Cur, m.Rounds, m.Phase, m.InRec)
		case fOtherwise:
			fmt.Fprintf(b, ".%v.%v", f.deadline, f.inHandler)
		case fTxn:
			writeBoolMap(b, "x", f.snapP)
			writeBoolMap(b, "y", f.snapD)
		}
	}
	// Children in slot order (nested, so tree structure is explicit).
	kids := make([]*thread, 0, 2)
	for _, k := range st.threads {
		if k.parent == t.id {
			kids = append(kids, k)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].slot < kids[j].slot })
	b.WriteString("[")
	for _, k := range kids {
		c.writeThread(b, st, k)
	}
	b.WriteString("]")
}
