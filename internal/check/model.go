package check

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"csaw/internal/analysis"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

// words is a bitset over the bits of a state table (bit i is bit i%64 of word
// i/64), with fields of a few bits that never straddle a word.
type words []uint64

func (w words) has(i int) bool { return w[i>>6]>>(i&63)&1 != 0 }

func (w words) set(i int, v bool) {
	if v {
		w[i>>6] |= 1 << (i & 63)
	} else {
		w[i>>6] &^= 1 << (i & 63)
	}
}

func (w words) get(off, width int) int { return int(w[off>>6] >> (off & 63) & (1<<width - 1)) }

func (w words) put(off, width, v int) {
	mask := uint64(1<<width-1) << (off & 63)
	w[off>>6] = w[off>>6]&^mask | uint64(v)<<(off&63)
}

// layout hands out the bits of the state table in declaration order.
type layout struct{ n int }

func (l *layout) take(n int) int {
	off := l.n
	l.n += n
	return off
}

// field reserves width bits inside one word.
func (l *layout) field(width int) int {
	if l.n&63+width > 64 {
		l.align()
	}
	return l.take(width)
}

func (l *layout) align() { l.n = (l.n + 63) &^ 63 }

// junc is one instance junction: its static facts and its slots in the state
// table. The slots start at a word boundary and follow plan's declaration
// order: a bit per prop, then per data (defined?) — the words a transaction
// snapshots —, then per prop a pending-present and a pending-value bit, per
// data a pending-present bit, per idx its element number (0 = undef), and per
// subset a defined bit plus a bit per element of its static universe. The
// pending queue is thereby collapsed to last-writer-wins per key (sound for
// the convergent table: ApplyPending applies in arrival order, so only the
// last value per key survives); kv.Table coalesces only a run of adjacent
// same-key updates, so the model's per-key collapse is the coarser
// abstraction of that queue.
type junc struct {
	fq   string
	num  int // position in checker.juncs
	inst int // instance number
	info *plan.Junction

	np, nd       int // declared props and data: slot s is Props()[s], Data()[s]
	base         int // bit of prop slot 0; data slot s is at base+np+s
	pendP, pendV int // pending-present and pending-value bit of prop slot 0
	pendD        int // pending-present bit of data slot 0
	end          int // first bit past the junction's slots
	idx          map[string]*idxSlot
	sub          map[string]*subSlot
	quals        map[string]*junc // a qualifier read here, resolved on first use

	// observable is the set of local keys read remotely (qualified formula
	// references from other junctions); writes to them are visible.
	observable *obsKeys
	// incomingP/incomingD are keys other junctions (or the environment) write
	// into this table; local writes to them race with the pending queue.
	incomingP, incomingD map[string]bool
	// raceKeys are local keys in event-structure-confirmed sibling-branch
	// write races (analysis.EventRaces over the §8 denotation).
	raceKeys *obsKeys
	// bodyReadP are local prop keys read by the junction's own guard and body
	// formulas.
	bodyReadP map[string]bool
	// bodyWriteP are local prop keys the junction's own body writes.
	bodyWriteP map[string]bool
	// envInj are the environment-assertable prop slots: read by the guard or
	// a wait, never asserted by any program statement, initially false.
	envInj []int

	// Exploration-global observations for the liveness verdict.
	fired, guardTrue bool
	bodyErr          string
}

func (j *junc) data(s int) int { return j.base + j.np + s }

// idxSlot is an idx variable's field: the number e of its current element
// universe[e-1], 0 while undef.
type idxSlot struct {
	off, width int
	universe   []string            // the static elements, me::-resolved (plan)
	known      bool                // the universe resolves statically
	num        map[string]int      // element → number
	over       *subSlot            // the subset it ranges over; nil for a set
	keys       map[string][]string // family base → plan's keys (Family), by element
}

// subSlot is a subset's defined bit and member bits, the members in sorted
// element order. A subset with no members reads undef.
type subSlot struct {
	def, mem int
	members  []string
	known    bool // the universe resolves statically
}

// state is one explored configuration: the table (every instance's running
// and started bits, the environment budget, every junction's slots) and the
// threads. A never-started instance's slots stay zero; a stopped one keeps
// its table. A clone shares its threads until it acts on one (own).
type state struct {
	tab     words
	threads []*thread // ascending id
	nextTid int
	gen     uint64 // the threads of generation gen are this state's own
}

func (c *checker) clone(st *state) *state {
	c.gen++
	return &state{
		tab:     append(words(nil), st.tab...),
		threads: append([]*thread(nil), st.threads...),
		nextTid: st.nextTid,
		gen:     c.gen,
	}
}

// own returns thread id, copied first if another state shares it.
func (st *state) own(id int) *thread {
	for i, t := range st.threads {
		if t.id == id {
			if t.gen != st.gen {
				t = t.clone()
				t.gen = st.gen
				st.threads[i] = t
			}
			return t
		}
	}
	return nil
}

func (st *state) running(inst int) bool { return st.tab.has(2 * inst) }
func (st *state) started(inst int) bool { return st.tab.has(2*inst + 1) }

func (st *state) thread(id int) *thread {
	for _, t := range st.threads {
		if t.id == id {
			return t
		}
	}
	return nil
}

func (st *state) removeThread(id int) {
	st.threads = slices.DeleteFunc(st.threads, func(t *thread) bool { return t.id == id })
}

func (st *state) threadsOf(j *junc) int {
	n := 0
	for _, t := range st.threads {
		if t.j == j {
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

	juncs     []*junc // every instance junction, sorted by FQ
	byFQ      map[string]*junc
	insts     map[string]int // instance → number n: running bit 2n, started bit 2n+1
	instJuncs [][]*junc      // by instance number, sorted by FQ
	env       int            // the environment budget's field
	envWidth  int
	width     int // words per table
	invQuals  map[string]*junc

	rd    reader                 // the formula environment, rebound per evaluation
	key   []byte                 // stateKey's buffer
	gen   uint64                 // the last state generation handed out
	waits map[*plan.Op]*waitInfo // the waits that read no idx
	fx    plan.Effects[words]    // the frame machine's effects, on rd's state and junction

	everStarted []bool
	unsup       map[string]bool
}

func newChecker(pp *plan.Program, opts Options) *checker {
	p := pp.Prog
	c := &checker{
		prog:     p,
		pp:       pp,
		opts:     opts,
		byFQ:     map[string]*junc{},
		insts:    map[string]int{},
		invQuals: map[string]*junc{},
		waits:    map[*plan.Op]*waitInfo{},
		unsup:    map[string]bool{},
	}
	c.rd.c = c
	c.fx = c.newEffects()
	for _, inst := range p.InstanceNames() {
		c.insts[inst] = len(c.insts)
	}
	c.instJuncs = make([][]*junc, len(c.insts))
	c.everStarted = make([]bool, len(c.insts))
	var l layout
	l.take(2 * len(c.insts))
	c.envWidth = max(1, bits.Len(uint(opts.MaxEnv)))
	c.env = l.field(c.envWidth)
	for _, ji := range pp.Juncs {
		j := &junc{fq: ji.FQ, inst: c.insts[ji.Inst], info: ji, quals: map[string]*junc{},
			observable: newObsKeys(), incomingP: map[string]bool{}, incomingD: map[string]bool{},
			bodyReadP: map[string]bool{}, bodyWriteP: map[string]bool{}}
		c.juncs = append(c.juncs, j)
		c.byFQ[j.fq] = j
	}
	sort.Slice(c.juncs, func(a, b int) bool { return c.juncs[a].fq < c.juncs[b].fq })
	for i, j := range c.juncs {
		j.num = i
		c.instJuncs[j.inst] = append(c.instJuncs[j.inst], j)
		j.lay(&l)
	}
	c.width = (l.n + 63) / 64
	c.buildStaticFacts()
	return c
}

// lay places j's slots in the table.
func (j *junc) lay(l *layout) {
	ji := j.info
	l.align()
	j.np, j.nd = len(ji.Props()), len(ji.Data())
	j.base = l.take(j.np + j.nd)
	j.pendP, j.pendV, j.pendD = l.take(j.np), l.take(j.np), l.take(j.nd)
	j.sub = map[string]*subSlot{}
	for _, name := range ji.Subsets() {
		s := &subSlot{def: l.take(1)}
		if u, ok := ji.SetUniverse(name); ok {
			s.members, s.known = append([]string(nil), u...), true
			sort.Strings(s.members)
		}
		s.mem = l.take(len(s.members))
		j.sub[name] = s
	}
	j.idx = map[string]*idxSlot{}
	for _, name := range ji.Idxs() {
		of, _ := ji.IdxSet(name)
		x := &idxSlot{num: map[string]int{}, over: j.sub[of], keys: map[string][]string{}}
		x.universe, x.known = ji.IdxUniverse(name)
		for e, el := range x.universe {
			x.num[el] = e + 1
		}
		x.width = max(1, bits.Len(uint(len(x.universe))))
		x.off = l.field(x.width)
		j.idx[name] = x
	}
	j.end = l.n
}

func (c *checker) buildStaticFacts() {
	for _, j := range c.juncs {
		ji := j.info
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
				if o.Junction != "" && !o.Liveness {
					c.byFQ[o.Junction].observable.add(o.Key)
				}
			}
			// Own read set, for sibling-branch read/write visibility.
			for _, k := range rs.Props {
				j.bodyReadP[k] = true
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
					j.incomingP[name] = true
				case a.Kind == plan.AccessIncoming && kind == "d":
					j.incomingD[name] = true
				case kind == "p":
					j.bodyWriteP[name] = true
				}
			}
		}

		// Sibling-branch race keys, confirmed concurrent by the §8 event
		// structure (exercises the memoized Consistent relation).
		rk := newObsKeys()
		for race := range analysis.EventRaces(j.fq, ji.Def) {
			if race.Junction != j.fq {
				continue
			}
			rk.add(race.Key)
			if i := strings.IndexByte(race.Key, '['); i > 0 {
				rk.prefixes = append(rk.prefixes, race.Key[:i+1])
			}
		}
		j.raceKeys = rk
	}

	// Environment-assertable propositions: consulted by a guard or wait,
	// never asserted (tt or havoc) by any statement, initially false. The
	// environment writing them is an incoming write.
	for _, j := range c.juncs {
		ji := j.info
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
		var inj []string
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
			inj = append(inj, k)
			j.incomingP[k] = true
		}
		sort.Strings(inj)
		for _, k := range inj {
			s, _ := ji.PropSlot(k)
			j.envInj = append(j.envInj, s)
		}
	}
}

// ---- state construction -------------------------------------------------

func (c *checker) initialState() *state {
	st := &state{tab: make(words, c.width)}
	st.tab.put(c.env, c.envWidth, c.opts.MaxEnv)
	// Main runs as it does at run time (plan.RunMain); a main that fails
	// leaves the state it made before it failed.
	_ = plan.ModelMain(c.prog.Main, func(inst string) {
		c.startInstance(st, c.insts[inst])
	}, func(inst string) {
		st.tab.set(2*c.insts[inst], false)
	})
	return st
}

// startInstance marks inst running and gives each of its junctions a fresh
// table.
func (c *checker) startInstance(st *state, inst int) {
	st.tab.set(2*inst, true)
	st.tab.set(2*inst+1, true)
	c.everStarted[inst] = true
	for _, j := range c.instJuncs[inst] {
		clear(st.tab[j.base>>6 : (j.end+63)>>6])
		for s, p := range j.info.Props() {
			st.tab.set(j.base+s, j.info.PropInit(p))
		}
	}
}

// ---- name resolution: what plan resolved, read through the idx slots ----

// target resolves a formula qualifier read at from (nil for a program-scope
// invariant) through plan's resolver, once per qualifier; plan.Compile has
// rejected every qualifier that names no junction.
func (c *checker) target(from *junc, q string) *junc {
	m := c.invQuals
	if from != nil {
		m = from.quals
	}
	r, ok := m[q]
	if !ok {
		fq := c.pp.JunctionFQ(q)
		if from != nil {
			fq = from.info.Qualifier(q)
		}
		r = c.byFQ[fq]
		m[q] = r
	}
	return r
}

// updateDest is where remote update o sends now: its lowered destination,
// through the idx's current element for an idx target.
func (c *checker) updateDest(st *state, j *junc, o *plan.Op) (string, error) {
	idx := o.To.Idx
	if idx == "" {
		return o.Ref.Dest[0], nil
	}
	e := c.elemNum(st, j, idx)
	if e == 0 {
		return "", fmt.Errorf("idx %q is undef", idx)
	}
	return o.Ref.Dest[e-1], nil
}

// updateKey is the table key assert/retract o writes now: its lowered key,
// through the idx's current element for an idx family.
func (c *checker) updateKey(st *state, j *junc, o *plan.Op) (string, error) {
	if !o.Prop.IndexIsVar {
		return o.Ref.Keys[0], nil
	}
	e := c.elemNum(st, j, o.Prop.Index)
	if e == 0 {
		return "", fmt.Errorf("idx %q is undef", o.Prop.Index)
	}
	return o.Ref.Keys[e-1], nil
}

// elemNum is the number e of idx's current element at j, universe[e-1]; 0
// while undef or when j declares no such idx.
func (c *checker) elemNum(st *state, j *junc, idx string) int {
	if x := j.idx[idx]; x != nil {
		return st.tab.get(x.off, x.width)
	}
	return 0
}

// idxElem is idx's current element at j, "" while undef.
func (c *checker) idxElem(st *state, j *junc, idx string) string {
	if e := c.elemNum(st, j, idx); e > 0 {
		return j.idx[idx].universe[e-1]
	}
	return ""
}

// localKey is the one local-name resolver: the table key a local proposition
// names at j — an idx family base[$idx] through the idx's current element, as
// plan binds the family (ok is false while the idx is undef), any other name
// with its me:: tokens resolved.
func (c *checker) localKey(st *state, j *junc, name string) (string, bool) {
	base, idx, family := dsl.SplitIdxProp(name)
	if !family {
		return j.info.ResolveName(name), true
	}
	return c.familyKey(st, j, base, idx)
}

func (c *checker) familyKey(st *state, j *junc, base, idx string) (string, bool) {
	e := c.elemNum(st, j, idx)
	if e == 0 {
		return "", false
	}
	x := j.idx[idx]
	keys, ok := x.keys[base]
	if !ok {
		keys, _ = j.info.Family(base, idx)
		x.keys[base] = keys
	}
	return keys[e-1], true
}

// ---- environment evaluation, mirroring the runtime's compileProp --------

// reader is the formula environment, mirroring the runtime's compiled
// evaluator with every instance at one location: unqualified
// names read j's table; qualified names read the target's applied state, with
// @running synthesized from instance liveness and every read of a stopped
// junction going Unknown. j is nil for program-scope invariants, whose names
// are all qualified (enforced by Validate) and read as written.
type reader struct {
	c  *checker
	st *state
	j  *junc
}

func (r *reader) Prop(q, name string) formula.Truth {
	if q == "" {
		if r.j == nil {
			return formula.Unknown
		}
		return r.c.localProp(r.st, r.j, r.j, name)
	}
	t := r.c.target(r.j, q)
	switch {
	case !r.st.running(t.inst):
		if name == dsl.RunningProp {
			return formula.False
		}
		return formula.Unknown
	case name == dsl.RunningProp:
		return formula.True
	case strings.HasPrefix(name, "@"):
		return formula.Unknown
	}
	return r.c.localProp(r.st, t, r.j, name)
}

// eval evaluates f at j (nil: a program-scope invariant) in st.
func (c *checker) eval(st *state, j *junc, f formula.Formula) formula.Truth {
	c.rd.st, c.rd.j = st, j
	return f.Eval(&c.rd)
}

// localProp reads a proposition from table's applied state, its name
// resolved at resolver (as written when resolver is nil).
func (c *checker) localProp(st *state, table, resolver *junc, name string) formula.Truth {
	key, ok := name, true
	if resolver != nil {
		key, ok = c.localKey(st, resolver, name)
	}
	if !ok || !st.started(table.inst) {
		return formula.Unknown
	}
	s, ok := table.info.PropSlot(key)
	if !ok {
		return formula.Unknown
	}
	return formula.FromBool(st.tab.has(table.base + s))
}

// ---- table mutation, mirroring internal/kv ------------------------------

// setPropLocal writes prop slot s; a local write drops the pending update
// (local priority).
func setPropLocal(st *state, j *junc, s int, v bool) {
	st.tab.set(j.base+s, v)
	st.tab.set(j.pendP+s, false)
	st.tab.set(j.pendV+s, false)
}

func setDataLocal(st *state, j *junc, s int) {
	st.tab.set(j.data(s), true)
	st.tab.set(j.pendD+s, false)
}

// enqueueProp delivers a remote update of prop slot s to j: applied directly
// when a blocked wait admits it, queued pending otherwise (mirrors
// kv.Table.Enqueue).
func enqueueProp(st *state, j *junc, s int, v bool) {
	for _, t := range st.threads {
		if t.j == j && t.wait != nil && t.wait.admitP.has(s) {
			st.tab.set(j.base+s, v)
			return
		}
	}
	st.tab.set(j.pendP+s, true)
	st.tab.set(j.pendV+s, v)
}

func enqueueData(st *state, j *junc, s int) {
	for _, t := range st.threads {
		if t.j == j && t.wait != nil && t.wait.admitD.has(s) {
			st.tab.set(j.data(s), true)
			return
		}
	}
	st.tab.set(j.pendD+s, true)
}

// applyPending applies j's pending updates and reports whether there were
// any.
func applyPending(st *state, j *junc) bool {
	applied := false
	for s := 0; s < j.np; s++ {
		if st.tab.has(j.pendP + s) {
			setPropLocal(st, j, s, st.tab.has(j.pendV+s))
			applied = true
		}
	}
	for s := 0; s < j.nd; s++ {
		if st.tab.has(j.pendD + s) {
			setDataLocal(st, j, s)
			applied = true
		}
	}
	return applied
}

// ---- the state key --------------------------------------------------------

// stateKey encodes st exactly, into a buffer reused across calls: the table
// verbatim, then the threads in canonical tree order. Thread identity is
// structural: roots are ordered by junction (at most one scheduling per
// junction exists at a time), children by slot, and a thread's control state
// is its frame machine's key (plan.FrameMachine.AppendKey). Numbers are
// varints and strings are length-prefixed, so distinct states never share a
// key; the key is deliberately not hashed.
func (c *checker) stateKey(st *state) []byte {
	b := appendWords(c.key[:0], st.tab)
	for _, j := range c.juncs {
		for _, t := range st.threads {
			if t.parent < 0 && t.j == j {
				b = appendThread(b, st, t)
			}
		}
	}
	c.key = b
	return b
}

func appendThread(b []byte, st *state, t *thread) []byte {
	for _, n := range [...]int{t.j.num, t.slot, t.retries, t.waiting} {
		b = binary.AppendUvarint(b, uint64(n))
	}
	wait := "" // a wait's formula never renders empty
	if t.wait != nil {
		wait = t.wait.condStr
	}
	b = appendString(b, wait)
	b = binary.AppendUvarint(b, uint64(len(t.children)))
	for _, o := range t.children {
		b = appendString(append(b, byte(o.Sig)), o.Err)
	}
	b = t.m.AppendKey(b, appendWords)
	// Children in slot order, each after a 1 and the last before a 0: a par's
	// children are created in slot order with ascending ids, and threads stay
	// in ascending id.
	for _, k := range st.threads {
		if k.parent == t.id {
			b = appendThread(append(b, 1), st, k)
		}
	}
	return append(b, 0)
}

func appendWords(b []byte, w words) []byte {
	for _, x := range w {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}
