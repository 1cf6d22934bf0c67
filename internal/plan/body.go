package plan

import (
	"strconv"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
)

// This file is the one lowering of junction bodies. Compile turns each body
// into ops that the executor compiles to closures (internal/runtime),
// the cost model counts (internal/cost) and the model checker steps
// (internal/check), so every decision about a body's shape is made here, once:
// nested sequences are spliced, a par's nested pars are spliced into the
// branches its barrier joins, a ∥n body is replicated, adjacent plain remote
// updates form straight-line groups, and a transaction knows what each prefix
// of its steps can have written. What the ops mean is the §8 denotation's
// (internal/events), against which events.Conforms holds every traced run.

// Signal is the control-flow outcome of running a statement. Failures travel
// separately, as errors: they are what otherwise and transactions handle.
type Signal uint8

const (
	SigNone Signal = iota
	SigBreak
	SigNext
	SigReconsider
	SigReturn
	SigRetry
)

// Kind says what an op does.
type Kind uint8

const (
	OpInvalid   Kind = iota // a statement the lowering does not know
	OpSkip                  // skip
	OpSignal                // return, retry, break, next, reconsider: Sig
	OpProp                  // assert (Value true) / retract of Prop, at To
	OpWrite                 // write of Data to To
	OpWait                  // wait: Cond, Wait
	OpVerify                // verify: Cond
	OpHost                  // host block: Stmt
	OpSave                  // save: Stmt
	OpRestore               // restore: Stmt
	OpKeep                  // keep: Stmt
	OpStart                 // start ι: Stmt
	OpStop                  // stop ι: Stmt
	OpIdxAssign             // idx := element: Stmt
	OpIf                    // Cond, Then, Else
	OpCase                  // Case
	OpPar                   // Arms, Flat, N
	OpSeq                   // Body: a sequence standing where one statement stands
	OpScope                 // Body: a fate scope, which absorbs return
	OpTxn                   // Body, Wrote
	OpOtherwise             // Try, Handler, Timeout
)

// Op is one lowered statement. Which fields are set depends on Kind; the
// operands of a leaf statement that no lowering decision touches (a host
// block's function, a keep's key lists) are read from Stmt.
type Op struct {
	Kind Kind
	Sig  Signal // OpSignal
	// OpProp, OpWrite. Remote marks a plain remote update — an update aimed
	// at another junction, whose whole effect is an optional local table
	// update followed by one acknowledged remote update. Only remote updates
	// are ever members of a group send: the update arms of a par, and the
	// straight-line runs of a Block's Steps.
	Remote bool
	Value  bool // OpProp

	// Pos is the statement's structural path, as vet and the cost passes
	// report it ("f::j/body[2]/par[0]").
	Pos string
	// Stmt is the source statement.
	Stmt dsl.Expr

	To   dsl.JunctionRef // OpProp, OpWrite
	Prop dsl.PropRef     // OpProp
	Data string          // OpWrite
	// Ref is what To and Prop resolve to at the junction (OpProp, OpWrite).
	// It is one pointer because ops live as long as the system.
	Ref *Ref

	Cond formula.Formula // OpWait, OpVerify, OpIf
	Wait *WaitPlan       // OpWait

	// Compound holds the parts of a statement that contains others; nil for
	// a leaf, which is most of a body, so a leaf op carries no room for them.
	*Compound
}

// Ref is an update's references resolved once, at lowering: the keys the
// runtime binds and the model checker writes, and the destinations they send
// to, which the cost model prices and the topology draws.
type Ref struct {
	// Keys are an OpProp's table keys: one, or for an idx family P[$i] one per
	// element of i's universe, in universe order.
	Keys []string
	// Dest is a remote update's destination: for an idx target one
	// fully-qualified junction per element of the idx's universe, in universe
	// order, otherwise one; Compile rejects a program where one of them
	// names no junction. Nil for a local update.
	Dest []string
}

// KeysTo is the keys assert/retract o can send to its destination at
// universe position i (Dest[i]). When the key's index and the destination are
// the same idx, both resolve through its one current element, so that
// destination receives only the key at i; otherwise it may receive every key.
func (o *Op) KeysTo(i int) []string {
	if o.Prop.IndexIsVar && o.Prop.Index == o.To.Idx {
		return o.Ref.Keys[i : i+1]
	}
	return o.Ref.Keys
}

// Compound is the part of an op that only a statement holding other
// statements has.
type Compound struct {
	Then, Else   *Op // OpIf; Else is nil when absent
	Try, Handler *Op // OpOtherwise
	Timeout      time.Duration

	Body *Block // OpSeq, OpScope, OpTxn
	// Wrote[k] is what a transaction can have written once step k of its
	// Body has started: a rollback restores that and no more, so the keys
	// of steps never reached stay as a sibling par arm may have committed
	// them. The last entry is the whole body's write-set.
	Wrote []WriteSet

	Case *Case // OpCase

	// Arms are a par's branches as written: a nested par is one arm, and a
	// ∥n body appears N times (the replicas share their ops). Flat is what
	// the barrier joins: Arms with every nested par (not ∥n) spliced in.
	// Par is decided in branch order — first failure, then first non-none
	// signal — so splicing only regroups branches and changes nothing
	// observable.
	Arms, Flat []*Op
	// N is a ∥n's replica count, 0 for a par.
	N int
}

// Block is a lowered statement list.
type Block struct {
	// Ops are the statements in order with nested sequences spliced: the
	// form in which two statements are adjacent or not.
	Ops []*Op
	// Steps cut Ops into what runs as one unit: a straight-line run of two or
	// more remote updates is one step, every other statement a step of its
	// own.
	Steps [][]*Op
}

// StepAt returns the index of the step holding Ops[i].
func (b *Block) StepAt(i int) int {
	for k, s := range b.Steps {
		if i < len(s) {
			return k
		}
		i -= len(s)
	}
	return len(b.Steps) - 1
}

// Case is a lowered case expression.
type Case struct {
	Arms      []CaseArm
	Otherwise *Block
}

// CaseArm is one lowered F ⇒ E; T arm.
type CaseArm struct {
	Cond formula.Formula
	Body *Block
	Term dsl.Terminator
}

// Body returns arm i's body, or the otherwise branch when i == len(c.Arms).
func (c *Case) Body(i int) *Block {
	if i < len(c.Arms) {
		return c.Arms[i].Body
	}
	return c.Otherwise
}

type lowerer struct{ j *Junction }

// block lowers a statement list whose i-th statement sits at prefix[i]. Its
// Steps are cut later (cutSteps), once the program's facts are known.
func (l lowerer) block(body []dsl.Expr, prefix string) *Block {
	b := &Block{}
	var splice func(body []dsl.Expr, prefix string)
	splice = func(body []dsl.Expr, prefix string) {
		for i, e := range body {
			pos := prefix + "[" + strconv.Itoa(i) + "]"
			if s, ok := e.(dsl.Seq); ok {
				splice(s, pos)
				continue
			}
			b.Ops = append(b.Ops, l.op(e, pos))
		}
	}
	splice(body, prefix)
	return b
}

// cutSteps is Compile's third phase for one junction: every block is cut into
// steps and every transaction gets its prefix write-sets.
func cutSteps(j *Junction) {
	cut := func(b *Block) { b.Steps = steps(j, b.Ops) }
	cut(j.Body)
	Walk(j.Body.Ops, func(o *Op, _ []*Op) {
		switch o.Kind {
		case OpSeq, OpScope:
			cut(o.Body)
		case OpTxn:
			cut(o.Body)
			o.Wrote = wrote(j, o.Body)
		case OpCase:
			for _, a := range o.Case.Arms {
				cut(a.Body)
			}
			cut(o.Case.Otherwise)
		}
	})
}

// steps cuts a spliced statement list into steps. Every maximal run of
// adjacent remote updates is one step, which the runtime sends as groups:
// consecutive members with the same destination share one group message and
// one ack wait. Adjacency is the whole legality test but for one exclusion. A
// member's local half — the sender-side table update of an assert/retract
// whose proposition the sender declares too — is applied when the run starts,
// ahead of the acknowledgments of the members before it. Nothing inside the
// junction can tell (nothing runs between adjacent statements), but a formula
// of another junction that reads the proposition in process could see it
// before an earlier member was delivered. Such a member ends the run and
// starts the next one, where its local half is applied exactly when its own
// statement would have applied it.
func steps(j *Junction, ops []*Op) [][]*Op {
	steps := make([][]*Op, 0, len(ops))
	for i := 0; i < len(ops); {
		n := 1
		if ops[i].Remote {
			for i+n < len(ops) && ops[i+n].Remote && !localHalfReadRemotely(j, ops[i+n]) {
				n++
			}
		}
		steps = append(steps, ops[i:i+n:i+n])
		i += n
	}
	return steps
}

// localHalfReadRemotely reports whether the remote update o also sets, at the
// sending junction, a proposition that another junction's formula reads.
func localHalfReadRemotely(j *Junction, o *Op) bool {
	if o.Kind != OpProp {
		return false // a write has no local half
	}
	for _, k := range j.LocalWrites(o).Props {
		if j.HasProp(k) && j.ReadRemotely(k) {
			return true
		}
	}
	return false
}

// wrote computes a transaction's Wrote from its steps: what each prefix of
// them can have written to the junction's table — every op's LocalWrites,
// and every key a wait can admit a remote update for (admitted updates apply
// mid-transaction, and a rollback must put them back too).
func wrote(j *Junction, b *Block) []WriteSet {
	var ws WriteSet
	seen := map[string]bool{}
	add := func(keys []string, into *[]string, ns string) {
		for _, k := range keys {
			if !seen[ns+k] {
				seen[ns+k] = true
				*into = append(*into, k)
			}
		}
	}
	out := make([]WriteSet, 0, len(b.Steps))
	for _, s := range b.Steps {
		Walk(s, func(o *Op, _ []*Op) {
			w := j.LocalWrites(o)
			if o.Kind == OpWait {
				w = WriteSet{Props: o.Wait.Reads.Props, Data: o.Wait.Reads.Data}
			}
			add(w.Props, &ws.Props, "p:")
			add(w.Data, &ws.Data, "d:")
		})
		out = append(out, WriteSet{Props: ws.Props[:len(ws.Props):len(ws.Props)], Data: ws.Data[:len(ws.Data):len(ws.Data)]})
	}
	return out
}

// Walk visits every op of ops and every op they contain, in program order,
// each before the ops it contains; a ∥n body is visited once. in holds the
// ops that contain o, outermost first (shared with later calls: copy it to
// keep it).
func Walk(ops []*Op, visit func(o *Op, in []*Op)) {
	var in []*Op
	var walk func(ops []*Op)
	walk = func(ops []*Op) {
		for _, o := range ops {
			visit(o, in)
			in = append(in, o)
			switch o.Kind {
			case OpIf:
				walk([]*Op{o.Then})
				if o.Else != nil {
					walk([]*Op{o.Else})
				}
			case OpCase:
				for _, a := range o.Case.Arms {
					walk(a.Body.Ops)
				}
				walk(o.Case.Otherwise.Ops)
			case OpPar:
				arms := o.Arms
				if o.N > 0 {
					arms = arms[:len(arms)/o.N]
				}
				walk(arms)
			case OpSeq, OpScope, OpTxn:
				walk(o.Body.Ops)
			case OpOtherwise:
				walk([]*Op{o.Try, o.Handler})
			}
			in = in[:len(in)-1]
		}
	}
	walk(ops)
}

// Conds visits the conditions o evaluates itself, not those of the ops it
// contains, each with the position vet reports it at: a wait's, verify's or
// if's at o.Pos, a case arm's at o.Pos/arm[i].
func (o *Op) Conds(visit func(pos string, f formula.Formula)) {
	switch o.Kind {
	case OpWait, OpVerify, OpIf:
		if o.Cond != nil {
			visit(o.Pos, o.Cond)
		}
	case OpCase:
		for i, a := range o.Case.Arms {
			visit(o.Pos+"/arm["+strconv.Itoa(i)+"]", a.Cond)
		}
	}
}

// op lowers one statement standing at pos. A sequence here stands where one
// statement stands (a par arm, an if branch, an otherwise operand) and
// becomes an OpSeq over its spliced body.
func (l lowerer) op(e dsl.Expr, pos string) *Op {
	o := &Op{Pos: pos, Stmt: e}
	switch e.(type) {
	case dsl.If, dsl.Case, dsl.Par, dsl.ParN, dsl.Seq, dsl.Scope, dsl.Txn, dsl.Otherwise:
		o.Compound = &Compound{}
	}
	signal := func(s Signal) { o.Kind, o.Sig = OpSignal, s }
	switch n := e.(type) {
	case dsl.Skip:
		o.Kind = OpSkip
	case dsl.Return:
		signal(SigReturn)
	case dsl.Retry:
		signal(SigRetry)
	case dsl.Break:
		signal(SigBreak)
	case dsl.Next:
		signal(SigNext)
	case dsl.Reconsider:
		signal(SigReconsider)
	case dsl.Assert:
		o.Kind, o.To, o.Prop, o.Value, o.Remote = OpProp, n.Target, n.Prop, true, !n.Target.IsLocal()
		o.Ref = &Ref{Keys: l.j.propKeys(n.Prop), Dest: l.j.dest(n.Target)}
	case dsl.Retract:
		o.Kind, o.To, o.Prop, o.Value, o.Remote = OpProp, n.Target, n.Prop, false, !n.Target.IsLocal()
		o.Ref = &Ref{Keys: l.j.propKeys(n.Prop), Dest: l.j.dest(n.Target)}
	case dsl.Write:
		o.Kind, o.To, o.Data, o.Remote = OpWrite, n.To, n.Data, true
		o.Ref = &Ref{Dest: l.j.dest(n.To)}
	case dsl.Wait:
		wp := CompileWait(l.j, n)
		o.Kind, o.Cond, o.Wait = OpWait, n.Cond, &wp
	case dsl.Verify:
		o.Kind, o.Cond = OpVerify, n.Cond
	case dsl.Host:
		o.Kind = OpHost
	case dsl.Save:
		o.Kind = OpSave
	case dsl.Restore:
		o.Kind = OpRestore
	case dsl.Keep:
		o.Kind = OpKeep
	case dsl.Start:
		o.Kind = OpStart
	case dsl.Stop:
		o.Kind = OpStop
	case dsl.IdxAssign:
		o.Kind = OpIdxAssign
	case dsl.If:
		o.Kind, o.Cond, o.Then = OpIf, n.Cond, l.op(n.Then, pos+"/then")
		if n.Else != nil {
			o.Else = l.op(n.Else, pos+"/else")
		}
	case dsl.Case:
		c := &Case{Arms: make([]CaseArm, len(n.Arms))}
		for i, a := range n.Arms {
			c.Arms[i] = CaseArm{Cond: a.Cond, Body: l.block(a.Body, pos+"/arm["+strconv.Itoa(i)+"]"), Term: a.Term}
		}
		c.Otherwise = l.block(n.Otherwise, pos+"/otherwise")
		o.Kind, o.Case = OpCase, c
	case dsl.Par:
		o.Kind = OpPar
		for i, b := range n {
			o.Arms = append(o.Arms, l.op(b, pos+"/par["+strconv.Itoa(i)+"]"))
		}
		o.Flat = splicePars(o.Arms)
	case dsl.ParN:
		body := make([]*Op, len(n.Body))
		for i, b := range n.Body {
			body[i] = l.op(b, pos+"/parn["+strconv.Itoa(i)+"]")
		}
		o.Kind, o.N = OpPar, n.N
		for r := 0; r < n.N; r++ {
			o.Arms = append(o.Arms, body...)
		}
		o.Flat = splicePars(o.Arms)
	case dsl.Seq:
		o.Kind, o.Body = OpSeq, l.block(n, pos)
	case dsl.Scope:
		o.Kind, o.Body = OpScope, l.block(n.Body, pos+"/scope")
	case dsl.Txn:
		o.Kind, o.Body = OpTxn, l.block(n.Body, pos+"/txn")
	case dsl.Otherwise:
		o.Kind, o.Timeout = OpOtherwise, n.Timeout
		o.Try, o.Handler = l.op(n.Try, pos+"/try"), l.op(n.Handler, pos+"/handler")
	}
	return o
}

// splicePars splices the nested pars among a par's arms (their own Flat is
// already spliced); a ∥n arm stays one arm. With nothing to splice, Flat is
// Arms.
func splicePars(arms []*Op) []*Op {
	nested := false
	for _, a := range arms {
		nested = nested || a.Kind == OpPar && a.N == 0
	}
	if !nested {
		return arms
	}
	flat := make([]*Op, 0, len(arms))
	for _, a := range arms {
		if a.Kind == OpPar && a.N == 0 {
			flat = append(flat, a.Flat...)
		} else {
			flat = append(flat, a)
		}
	}
	return flat
}
