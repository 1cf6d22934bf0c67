package plan

import (
	"encoding/binary"

	"csaw/internal/formula"
)

// ErrDeadline is the failure an expired otherwise[t] deadline delivers to the
// strands below it.
const ErrDeadline = "otherwise deadline expired"

// Outcome is how a statement, a body or a strand ended: a signal, or a
// failure (a non-empty Err), which carries no signal.
type Outcome struct {
	Sig Signal
	Err string
}

// Join is what a par delivers once its arms ended with outs, in arm order: the
// first failure, else the first signal other than none, as the runtime's
// compiled par decides.
func Join(outs []Outcome) Outcome {
	var join Outcome
	for _, o := range outs {
		if o.Err != "" {
			return Outcome{Err: o.Err}
		}
		if join.Sig == SigNone {
			join.Sig = o.Sig
		}
	}
	return join
}

// FrameKind says what a frame of a FrameMachine does.
type FrameKind uint8

const (
	FrameBody      FrameKind = iota // runs Body from PC
	FrameScope                      // turns a return through it into none
	FrameTxn                        // restores Snap when a failure passes it
	FrameOtherwise                  // catches the first failure of its try and runs Op.Handler
	FrameCase                       // a case expression, stepped by Case
	FrameTail                       // a case's otherwise run as a tail: only return and retry pass
)

// Frame is one activation record of a FrameMachine. Op is the statement of a
// txn, otherwise or case frame; Else marks a body that is an if's else
// branch, which AppendKey must tell from the then branch.
type Frame[S any] struct {
	Kind               FrameKind
	Op                 *Op
	Body               []*Op
	PC                 int
	Else               bool
	Snap               S           // FrameTxn: the table as the transaction found it
	Case               CaseMachine // FrameCase
	InHandler, Expired bool        // FrameOtherwise: the handler runs; the deadline expired
}

// Effects is what a FrameMachine needs of its caller's state: whether a
// formula definitely holds (an if, a case arm), the table a transaction
// starts from, and the rollback of a failed one: restore snap over ws.
type Effects[S any] struct {
	Holds   func(formula.Formula) bool
	Snap    func() S
	Restore func(snap S, ws WriteSet)
}

// Action is what a FrameMachine's next Step does.
type Action uint8

const (
	ActDeliver Action = iota // deliver an outcome through the frames
	ActMatch                 // take a matching step of the case on top
	ActRun                   // run the next statement
)

// FrameMachine is the control state of one strand of a junction body as the
// model checker steps it: a stack of frames over lowered ops and Out, the
// signal or failure the last statement ended with and no step has delivered
// yet (a none is nothing to deliver). It decides what runs next and what a
// signal or failure does to each frame it crosses; its caller runs the leaf
// statements and the arms of a par and sets Out to what they end with.
//
// An otherwise[t] deadline that expires (Frame.Expired) fails what runs below
// it, in its strand and in the strands of a par under it (Expired): a blocked
// statement at once (Deliver), any other at its next statement. The otherwise
// frames in between pass the failure on, as one whose own context expired
// does at run time, and the expired frame catches it.
type FrameMachine[S any] struct {
	Frames  []Frame[S]
	Out     Outcome
	Expired bool
}

// Next says what the next Step does without taking it: deliver out (Out, the
// none that ends a body, or the failure of an expired strand's next
// statement), match the case op, or run the statement op.
func (m *FrameMachine[S]) Next() (a Action, op *Op, out Outcome) {
	if m.Out != (Outcome{}) {
		return ActDeliver, nil, m.Out
	}
	switch f := &m.Frames[len(m.Frames)-1]; {
	case f.Kind == FrameCase:
		return ActMatch, f.Op, Outcome{}
	case f.PC == len(f.Body):
		return ActDeliver, nil, Outcome{}
	case m.expiredBelow(len(m.Frames)):
		return ActDeliver, nil, Outcome{Err: ErrDeadline}
	default:
		return ActRun, f.Body[f.PC], Outcome{}
	}
}

// Step takes the next step. It returns the statement the caller runs, if any:
// a leaf, after which the caller sets Out to what it signalled or failed
// with, or a par of other than one arm, which the caller runs as strands and
// whose Join it sets. ended reports that the strand ran out of frames,
// ending with out.
func (m *FrameMachine[S]) Step(fx *Effects[S]) (run *Op, out Outcome, ended bool) {
	a, o, out := m.Next()
	f := &m.Frames[len(m.Frames)-1]
	switch {
	case a == ActRun:
		f.PC++
		return m.start(o, fx), Outcome{}, false
	case a == ActMatch:
		arm, err := f.Case.Match(o.Case, func(i int) bool { return fx.Holds(o.Case.Arms[i].Cond) })
		if err == nil {
			m.push(Frame[S]{Body: o.Case.Body(arm).Ops})
			return nil, Outcome{}, false
		}
		m.pop() // the case fails past its frame
		out = Outcome{Err: err.Error()}
	case m.Out != (Outcome{}):
		m.Out = Outcome{}
	case f.PC == len(f.Body):
		m.pop()
	default:
		f.PC++ // an expired strand's statement fails as it starts
	}
	out, ended = m.Deliver(out, fx)
	return nil, out, ended
}

// start starts statement o: a control statement pushes its frames, a leaf or
// a par of other than one arm is returned for the caller to run.
func (m *FrameMachine[S]) start(o *Op, fx *Effects[S]) *Op {
	switch o.Kind {
	case OpSkip:
	case OpSignal:
		m.Out = Outcome{Sig: o.Sig}
	case OpSeq:
		m.push(Frame[S]{Body: o.Body.Ops})
	case OpScope:
		m.push(Frame[S]{Kind: FrameScope}, Frame[S]{Body: o.Body.Ops})
	case OpTxn:
		m.push(Frame[S]{Kind: FrameTxn, Op: o, Snap: fx.Snap()}, Frame[S]{Body: o.Body.Ops})
	case OpOtherwise:
		m.push(Frame[S]{Kind: FrameOtherwise, Op: o}, Frame[S]{Body: []*Op{o.Try}})
	case OpCase:
		m.push(Frame[S]{Kind: FrameCase, Op: o, Case: NewCaseMachine()})
	case OpIf:
		if fx.Holds(o.Cond) {
			m.push(Frame[S]{Body: []*Op{o.Then}})
		} else if o.Else != nil {
			m.push(Frame[S]{Body: []*Op{o.Else}, Else: true})
		}
	case OpPar:
		if len(o.Arms) != 1 {
			return o
		}
		m.push(Frame[S]{Body: o.Arms})
	default:
		return o
	}
	return nil
}

// Deliver carries out through the frames, top first, until one takes it up
// or none is left, and reports whether the strand ended, with what. The
// expiry of a deadline delivers its failure to a blocked strand here, at
// once.
func (m *FrameMachine[S]) Deliver(out Outcome, fx *Effects[S]) (Outcome, bool) {
	at := 0 // the statement that stopped the body popped last
	for len(m.Frames) > 0 {
		k := len(m.Frames) - 1
		switch f := &m.Frames[k]; f.Kind {
		case FrameBody:
			if out == (Outcome{}) {
				return out, false // the body carries on at PC
			}
			at = f.PC - 1
		case FrameScope:
			if out.Sig == SigReturn {
				out.Sig = SigNone
			}
		case FrameTxn:
			if out.Err != "" {
				// Pending updates queued during the transaction survive: the
				// snapshot holds only the applied table.
				fx.Restore(f.Snap, f.Op.Wrote[f.Op.Body.StepAt(at)])
			} else if out.Sig == SigReturn {
				out.Sig = SigNone
			}
		case FrameOtherwise:
			if out.Err != "" && !f.InHandler && !m.expiredBelow(k) {
				f.InHandler, f.Expired = true, false
				m.push(Frame[S]{Body: []*Op{f.Op.Handler}})
				return Outcome{}, false
			}
		case FrameTail:
			if out.Err == "" {
				out.Sig = TailSignal(out.Sig)
			}
		case FrameCase:
			if out.Err != "" {
				break
			}
			switch next, sig := f.Case.Done(f.Op.Case, out.Sig); next {
			case CaseMatch:
				return Outcome{}, false
			case CaseTail:
				m.Frames = append(m.Frames[:k], Frame[S]{Kind: FrameTail}, Frame[S]{Body: f.Op.Case.Otherwise.Ops})
				return Outcome{}, false
			default:
				out.Sig = sig
			}
		}
		m.pop()
	}
	return out, true
}

// Armed reports whether frame k is an otherwise[t] whose deadline can expire.
func (m *FrameMachine[S]) Armed(k int) bool {
	f := &m.Frames[k]
	return f.Kind == FrameOtherwise && f.Op.Timeout > 0 && !f.InHandler && !f.Expired
}

// expiredBelow reports whether a deadline below frame k has expired.
func (m *FrameMachine[S]) expiredBelow(k int) bool {
	for i := range m.Frames[:k] {
		if m.Frames[i].Expired {
			return true
		}
	}
	return m.Expired
}

func (m *FrameMachine[S]) push(fs ...Frame[S]) { m.Frames = append(m.Frames, fs...) }
func (m *FrameMachine[S]) pop()                { m.Frames = m.Frames[:len(m.Frames)-1] }

// AppendKey appends an exact encoding of m to b, snap appending a
// transaction's snapshot: the outcome, then each frame's kind, PC and what
// else steers it. A frame's body is not encoded: the frames below it and the
// ops determine it but for an if's branch, which Else tells.
func (m *FrameMachine[S]) AppendKey(b []byte, snap func([]byte, S) []byte) []byte {
	b = append(b, flag(m.Expired), byte(m.Out.Sig))
	b = append(binary.AppendUvarint(b, uint64(len(m.Out.Err))), m.Out.Err...)
	b = binary.AppendUvarint(b, uint64(len(m.Frames)))
	for i := range m.Frames {
		f := &m.Frames[i]
		b = binary.AppendUvarint(append(b, byte(f.Kind), flag(f.Else)), uint64(f.PC))
		switch f.Kind {
		case FrameCase:
			c := f.Case
			for _, n := range [...]int{c.Start, c.Base, c.Cur, c.Rounds, int(c.Phase)} {
				b = binary.AppendVarint(b, int64(n))
			}
			b = append(b, flag(c.InRec))
		case FrameOtherwise:
			b = append(b, flag(f.InHandler), flag(f.Expired))
		case FrameTxn:
			b = snap(b, f.Snap)
		}
	}
	return b
}

func flag(v bool) byte {
	if v {
		return 1
	}
	return 0
}
