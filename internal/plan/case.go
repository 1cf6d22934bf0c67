package plan

import (
	"errors"
	"fmt"

	"csaw/internal/dsl"
)

// ReconsiderLimit bounds how many matching rounds — the first, and one per
// next or reconsider — one case expression may take within a single
// execution: a termination backstop for reconsider and next chains.
const ReconsiderLimit = 16

var (
	// ErrCaseRounds fails a case that reached ReconsiderLimit.
	ErrCaseRounds = fmt.Errorf("case exceeded %d reconsider/next rounds", ReconsiderLimit)
	// ErrReconsiderFailed fails a reconsider that finds no different match
	// (paper §6: "otherwise the expression fails").
	ErrReconsiderFailed = errors.New("reconsider made no different match")
)

// CasePhase is where a case expression stands between two of its steps.
type CasePhase uint8

const (
	CaseMatching   CasePhase = iota // the next step matches arms from Start
	CaseRunning                     // an arm body, or the otherwise, is running
	CaseRematching                  // reconsider: the next step matches from Base and must find a different arm
)

// CaseStep is what a case does once the body it ran finished without failing.
type CaseStep uint8

const (
	// CaseExit leaves the case; the signal Done returns propagates.
	CaseExit CaseStep = iota
	// CaseMatch takes another matching step (Match).
	CaseMatch
	// CaseTail runs the otherwise as a tail: next passed the last arm. What
	// the tail signals leaves the case through TailSignal.
	CaseTail
)

// CaseMachine is the terminator machine of one case expression, the same for
// the executor and the model checker. Match picks the body to run: the first
// arm whose guard is definitely true, or the otherwise branch. Done reads the
// body's signal, or its arm's terminator when it signalled none: break
// leaves the case; next resumes matching below the arm that ran (function N
// of §8.3), and past the last arm runs the otherwise as a tail; reconsider
// re-matches from the top and proceeds only with a different match, failing
// the case otherwise (§6); return and retry leave the case. A next after a
// reconsider restarts the case over the arms below the new match, with a
// fresh round budget. The zero value is not ready: start from NewCaseMachine.
type CaseMachine struct {
	Start  int // matching scans arms [Start..)
	Base   int // re-matching scans arms [Base..)
	Cur    int // the arm last matched; len(arms) for the otherwise, -1 before the first
	Rounds int // matching rounds taken, bounded by ReconsiderLimit
	Phase  CasePhase
	InRec  bool // the running body was entered through a re-match
}

// NewCaseMachine returns the machine of a case about to match for the first
// time.
func NewCaseMachine() CaseMachine { return CaseMachine{Cur: -1} }

// Match takes one matching step over c: holds(i) reports whether arm i's
// guard is definitely true. It returns the index of the body to run —
// len(c.Arms) for the otherwise — or the error that fails the case.
func (m *CaseMachine) Match(c *Case, holds func(arm int) bool) (int, error) {
	if m.Rounds > ReconsiderLimit {
		return 0, ErrCaseRounds
	}
	m.Rounds++
	from := m.Start
	if m.Phase == CaseRematching {
		from = m.Base
	}
	match := len(c.Arms)
	for i := from; i < len(c.Arms); i++ {
		if holds(i) {
			match = i
			break
		}
	}
	if m.Phase == CaseRematching {
		if match == m.Cur {
			return 0, fmt.Errorf("%w: arm %d still matches", ErrReconsiderFailed, m.Cur)
		}
		m.InRec = true
	} else {
		m.InRec = false
	}
	m.Cur, m.Phase = match, CaseRunning
	return match, nil
}

// Done reads the signal of the body Match picked, which finished without
// failing, and says what the case does next.
func (m *CaseMachine) Done(c *Case, sig Signal) (CaseStep, Signal) {
	term := dsl.TermBreak // the otherwise ends like a break
	if m.Cur < len(c.Arms) {
		term = c.Arms[m.Cur].Term
	}
	switch {
	case sig == SigBreak, sig == SigNone && term == dsl.TermBreak:
		return CaseExit, SigNone
	case sig == SigNext, sig == SigNone && term == dsl.TermNext:
		if m.InRec {
			m.Base, m.Rounds, m.InRec = m.Cur+1, 0, false
		}
		m.Start = m.Cur + 1
		if m.Start >= len(c.Arms) {
			return CaseTail, SigNone
		}
		m.Phase = CaseMatching
		return CaseMatch, SigNone
	case sig == SigReconsider, sig == SigNone && term == dsl.TermReconsider:
		m.Phase = CaseRematching
		return CaseMatch, SigNone
	}
	return CaseExit, sig
}

// TailSignal is what leaves a case whose otherwise ran as a tail: return and
// retry propagate, every other signal ends with the case.
func TailSignal(sig Signal) Signal {
	if sig == SigReturn || sig == SigRetry {
		return sig
	}
	return SigNone
}
