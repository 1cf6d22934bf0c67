package plan_test

import (
	"strings"
	"testing"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

// strand drives a FrameMachine with no checker behind it: every proposition
// is false, a local assert appends its proposition to log, a verify of a
// false formula fails with the formula, a wait blocks, and a par runs its
// arms one after the other, in arm order, and posts their Join. A
// transaction's snapshot is the log so far; a rollback appends
// "snapshot/keys" to restored.
type strand struct {
	log, restored []string
	fx            plan.Effects[string]
}

func newStrand() *strand {
	s := &strand{}
	s.fx = plan.Effects[string]{
		Holds: func(f formula.Formula) bool {
			return f.Eval(formula.EnvFunc(func(string, string) formula.Truth { return formula.False })) == formula.True
		},
		Snap: func() string { return strings.Join(s.log, ",") },
		Restore: func(snap string, ws plan.WriteSet) {
			s.restored = append(s.restored, snap+"/"+strings.Join(ws.Props, ","))
		},
	}
	return s
}

// run steps m until it ends, or blocks on a wait (ended false).
func (s *strand) run(m *plan.FrameMachine[string]) (out plan.Outcome, ended bool) {
	for {
		o, out, ended := m.Step(&s.fx)
		switch {
		case ended:
			return out, true
		case o == nil:
		case o.Kind == plan.OpWait:
			return plan.Outcome{}, false
		case o.Kind == plan.OpProp:
			s.log = append(s.log, o.Prop.Base)
		case o.Kind == plan.OpVerify:
			if !s.fx.Holds(o.Cond) {
				m.Out = plan.Outcome{Err: o.Cond.String()}
			}
		case o.Kind == plan.OpPar:
			outs := make([]plan.Outcome, len(o.Arms))
			for i, arm := range o.Arms {
				am := plan.FrameMachine[string]{Frames: []plan.Frame[string]{{Body: []*plan.Op{arm}}}}
				outs[i], _ = s.run(&am)
			}
			m.Out = plan.Join(outs)
		}
	}
}

// TestFrameMachineRules holds each control rule of the frame machine on its
// own: what reaches each kind of frame, what it lets through, and what runs.
// With expire set, the body must block, and the outermost armed deadline then
// expires, failing the blocked wait at once and landing in its handler.
func TestFrameMachineRules(t *testing.T) {
	ff := formula.FalseF{}
	fails := dsl.Verify{Cond: formula.P("B")}
	never := dsl.Wait{Cond: ff}
	arms := func(tail dsl.Expr) dsl.Expr {
		return dsl.Case{Arms: []dsl.CaseArm{dsl.Arm(formula.TrueF(), dsl.TermBreak, local("A"), dsl.Next{})}, Otherwise: []dsl.Expr{tail}}
	}
	for name, tc := range map[string]struct {
		body     []dsl.Expr
		expire   bool
		log      string
		restored string
		out      plan.Outcome
	}{
		"a scope absorbs return":   {body: []dsl.Expr{dsl.Scope{Body: []dsl.Expr{dsl.Return{}, local("A")}}, local("B")}, log: "B"},
		"return leaves a body":     {body: []dsl.Expr{dsl.Return{}, local("A")}, out: plan.Outcome{Sig: plan.SigReturn}},
		"a scope passes a failure": {body: []dsl.Expr{dsl.Scope{Body: []dsl.Expr{fails}}, local("A")}, out: plan.Outcome{Err: "B"}},
		"a scope passes retry":     {body: []dsl.Expr{dsl.Scope{Body: []dsl.Expr{dsl.Retry{}}}}, out: plan.Outcome{Sig: plan.SigRetry}},
		"a txn commits":            {body: []dsl.Expr{dsl.Txn{Body: []dsl.Expr{local("A"), dsl.Return{}}}, local("B")}, log: "A,B"},
		"a txn restores Wrote at the stopping step": {
			body: []dsl.Expr{local("Own"), dsl.Txn{Body: []dsl.Expr{local("A"), fails, local("B")}}},
			log:  "Own,A", restored: "Own/A", out: plan.Outcome{Err: "B"},
		},
		"an otherwise catches a failure": {
			body: []dsl.Expr{dsl.Otherwise{Try: dsl.Seq{local("A"), fails, local("B")}, Handler: local("Own")}, local("Seen")},
			log:  "A,Own,Seen",
		},
		"an otherwise passes a signal": {
			body: []dsl.Expr{dsl.Otherwise{Try: dsl.Return{}, Handler: local("Own")}, local("A")},
			out:  plan.Outcome{Sig: plan.SigReturn},
		},
		"an otherwise passes its handler's failure": {
			body: []dsl.Expr{dsl.Otherwise{Try: fails, Handler: dsl.Seq{local("A"), dsl.Verify{Cond: formula.P("Own")}}}},
			log:  "A", out: plan.Outcome{Err: "Own"},
		},
		"a case tail passes return": {body: []dsl.Expr{arms(dsl.Return{}), local("B")}, log: "A", out: plan.Outcome{Sig: plan.SigReturn}},
		"a case tail passes retry":  {body: []dsl.Expr{arms(dsl.Retry{}), local("B")}, log: "A", out: plan.Outcome{Sig: plan.SigRetry}},
		"a case tail ends break":    {body: []dsl.Expr{arms(dsl.Break{}), local("B")}, log: "A,B"},
		"a case tail ends next":     {body: []dsl.Expr{arms(dsl.Next{}), local("B")}, log: "A,B"},
		"a case tail passes a failure": {
			body: []dsl.Expr{arms(fails), local("B")}, log: "A", out: plan.Outcome{Err: "B"},
		},
		"a deadline's expiry lands in its own handler": {
			body:   []dsl.Expr{dsl.OtherwiseT(dsl.Seq{local("A"), never, local("B")}, time.Second, local("Own")), local("Seen")},
			expire: true, log: "A,Own,Seen",
		},
		"an outer deadline's expiry passes inner otherwise frames": {
			body: []dsl.Expr{dsl.OtherwiseT(
				dsl.Txn{Body: []dsl.Expr{local("A"), dsl.Otherwise{Try: dsl.OtherwiseT(never, time.Second, local("B")), Handler: local("B")}}},
				time.Second, local("Own"))},
			expire: true, log: "A,Own", restored: "/A,B",
		},
		"a par join ranks the first failure by arm order": {
			body: []dsl.Expr{dsl.Par{dsl.Return{}, fails, dsl.Verify{Cond: formula.P("Own")}}, local("A")},
			out:  plan.Outcome{Err: "B"},
		},
		"a par join ranks the first signal by arm order": {
			body: []dsl.Expr{dsl.Par{dsl.Skip{}, dsl.Retry{}, dsl.Return{}}, local("A")},
			out:  plan.Outcome{Sig: plan.SigRetry},
		},
		"a par of one arm runs it in its strand": {body: []dsl.Expr{dsl.Par{local("A")}, local("B")}, log: "A,B"},
	} {
		t.Run(name, func(t *testing.T) {
			s := newStrand()
			m := plan.FrameMachine[string]{Frames: []plan.Frame[string]{{Body: lower(t, tc.body...).Ops}}}
			out, ended := s.run(&m)
			if tc.expire {
				if ended {
					t.Fatalf("ended with %+v before the deadline could expire", out)
				}
				k := 0
				for !m.Armed(k) {
					k++
				}
				m.Frames[k].Expired = true
				// The failure unwinds to the expired frame's handler in one
				// delivery, past the otherwise frames in between.
				if out, ended = m.Deliver(plan.Outcome{Err: plan.ErrDeadline}, &s.fx); ended || !m.Frames[k].InHandler || len(m.Frames) != k+2 {
					t.Fatalf("the expiry's delivery ended %v with frames %+v, want frame %d's handler on top", ended, m.Frames, k)
				}
				out, ended = s.run(&m)
			}
			if !ended || out != tc.out {
				t.Errorf("ended %v with %+v, want %+v", ended, out, tc.out)
			}
			if got := strings.Join(s.log, ","); got != tc.log {
				t.Errorf("ran %q, want %q", got, tc.log)
			}
			if got := strings.Join(s.restored, " "); got != tc.restored {
				t.Errorf("restored %q, want %q", got, tc.restored)
			}
		})
	}
}

// TestFrameMachineExpiryReachesParArms: a deadline that expires above a par
// fails the arms below it, a blocked one at once and a running one at its
// next statement, and its own frame catches the join's failure, while the
// plain otherwise between them passes it on.
func TestFrameMachineExpiryReachesParArms(t *testing.T) {
	s := newStrand()
	body := lower(t, dsl.OtherwiseT(dsl.Otherwise{
		Try:     dsl.Par{dsl.Wait{Cond: formula.FalseF{}}, local("A")},
		Handler: local("B"),
	}, time.Second, local("Own"))).Ops
	m := plan.FrameMachine[string]{Frames: []plan.Frame[string]{{Body: body}}}
	var par *plan.Op
	for par == nil {
		if o, _, _ := m.Step(&s.fx); o != nil {
			par = o
		}
	}
	if par.Kind != plan.OpPar || !m.Armed(1) {
		t.Fatalf("stopped at op kind %d with frames %+v, want the par under an armed deadline", par.Kind, m.Frames)
	}
	blocked := plan.FrameMachine[string]{Frames: []plan.Frame[string]{{Body: par.Arms[:1]}}}
	running := plan.FrameMachine[string]{Frames: []plan.Frame[string]{{Body: par.Arms[1:]}}}
	if _, ended := s.run(&blocked); ended {
		t.Fatal("the wait arm did not block")
	}

	m.Frames[1].Expired = true
	blocked.Expired, running.Expired = true, true
	var outs [2]plan.Outcome
	outs[0], _ = blocked.Deliver(plan.Outcome{Err: plan.ErrDeadline}, &s.fx)
	if a, _, out := running.Next(); a != plan.ActDeliver || out.Err != plan.ErrDeadline {
		t.Fatalf("the running arm's next step is %d with %+v, want the deadline's failure", a, out)
	}
	outs[1], _ = s.run(&running)
	m.Out = plan.Join(outs[:])
	if out, ended := s.run(&m); !ended || out != (plan.Outcome{}) {
		t.Fatalf("ended %v with %+v, want none", ended, out)
	}
	if got := strings.Join(s.log, ","); got != "Own" {
		t.Fatalf("ran %q, want only the expired deadline's handler", got)
	}
}
