package plan_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

// lower compiles f::j with the given body, which sends to g::j, and g::j,
// whose guard reads f::j@Seen and nothing else of f's, and returns f::j's
// lowered body.
func lower(t *testing.T, body ...dsl.Expr) *plan.Block {
	t.Helper()
	p := dsl.NewProgram()
	p.Type("F").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Seen", Init: false}, dsl.InitProp{Name: "Own", Init: false},
			dsl.InitProp{Name: "A", Init: false}, dsl.InitProp{Name: "B", Init: false},
			dsl.InitData{Name: "d"}, dsl.DeclSet{Name: "S", Elems: []string{"g::j"}}, dsl.DeclIdx{Name: "a", Of: "S"}),
		body...))
	p.Type("G").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Seen", Init: false}, dsl.InitProp{Name: "Own", Init: false},
			dsl.InitProp{Name: "U", Init: false}, dsl.InitData{Name: "d"}),
		dsl.Skip{}).Guarded(formula.And(formula.P("U"), formula.At("f::j", "Seen"))))
	p.Instance("f", "F").Instance("g", "G")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}})
	return compile(t, p).Junctions["f::j"].Body
}

var (
	toG   = dsl.J("g", "j")
	write = dsl.Write{Data: "d", To: toG}
)

func up(prop string) dsl.Expr    { return dsl.Assert{Target: toG, Prop: dsl.PR(prop)} }
func local(prop string) dsl.Expr { return dsl.Assert{Prop: dsl.PR(prop)} }

// shape renders ops as kind@pos, the two things lowering decides about them.
func shape(ops []*plan.Op) []string {
	out := make([]string, len(ops))
	for i, o := range ops {
		out[i] = fmt.Sprintf("%d@%s", o.Kind, o.Pos)
	}
	return out
}

func TestLowerSplicesSequences(t *testing.T) {
	b := lower(t,
		local("A"),
		dsl.Seq{local("B"), dsl.Seq{dsl.Skip{}}, dsl.Seq{}},
		dsl.If{Cond: formula.P("A"), Then: dsl.Seq{dsl.Skip{}, dsl.Return{}}},
	)
	want := []string{
		fmt.Sprintf("%d@f::j/body[0]", plan.OpProp),
		fmt.Sprintf("%d@f::j/body[1][0]", plan.OpProp),
		fmt.Sprintf("%d@f::j/body[1][1][0]", plan.OpSkip),
		fmt.Sprintf("%d@f::j/body[2]", plan.OpIf),
	}
	if got := shape(b.Ops); !reflect.DeepEqual(got, want) {
		t.Fatalf("ops %v, want %v", got, want)
	}
	// A sequence standing where one statement stands stays one op.
	then := b.Ops[3].Then
	if then.Kind != plan.OpSeq || then.Pos != "f::j/body[2]/then" {
		t.Fatalf("if branch lowered to %d@%s, want a sequence op at .../then", then.Kind, then.Pos)
	}
	if got := shape(then.Body.Ops); !reflect.DeepEqual(got, []string{
		fmt.Sprintf("%d@f::j/body[2]/then[0]", plan.OpSkip),
		fmt.Sprintf("%d@f::j/body[2]/then[1]", plan.OpSignal),
	}) || then.Body.Ops[1].Sig != plan.SigReturn {
		t.Fatalf("branch body %v", got)
	}
}

func TestLowerSplicesParsAndReplicatesParN(t *testing.T) {
	a, b, c := local("A"), local("B"), dsl.Skip{}
	cases := []struct {
		name       string
		par        dsl.Expr
		arms, flat []string // positions
		n          int
	}{
		{
			name: "nested par is one arm, spliced into the barrier",
			par:  dsl.Par{a, dsl.Par{b, dsl.Par{c}}},
			arms: []string{"P/par[0]", "P/par[1]"},
			flat: []string{"P/par[0]", "P/par[1]/par[0]", "P/par[1]/par[1]/par[0]"},
		},
		{
			name: "a ∥n arm stays one arm",
			par:  dsl.Par{a, dsl.ParN{N: 2, Body: []dsl.Expr{b}}},
			arms: []string{"P/par[0]", "P/par[1]"},
			flat: []string{"P/par[0]", "P/par[1]"},
		},
		{
			name: "∥n replicates its body",
			par:  dsl.ParN{N: 3, Body: []dsl.Expr{a, b}},
			arms: []string{"P/parn[0]", "P/parn[1]", "P/parn[0]", "P/parn[1]", "P/parn[0]", "P/parn[1]"},
			flat: []string{"P/parn[0]", "P/parn[1]", "P/parn[0]", "P/parn[1]", "P/parn[0]", "P/parn[1]"},
			n:    3,
		},
		{
			name: "a par inside a ∥n body is spliced in every replica",
			par:  dsl.ParN{N: 2, Body: []dsl.Expr{dsl.Par{a, b}}},
			arms: []string{"P/parn[0]", "P/parn[0]"},
			flat: []string{"P/parn[0]/par[0]", "P/parn[0]/par[1]", "P/parn[0]/par[0]", "P/parn[0]/par[1]"},
			n:    2,
		},
	}
	pos := func(ops []*plan.Op) []string {
		out := make([]string, len(ops))
		for i, o := range ops {
			out[i] = "P" + o.Pos[len("f::j/body[0]"):]
		}
		return out
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := lower(t, tc.par).Ops[0]
			if o.Kind != plan.OpPar || o.N != tc.n {
				t.Fatalf("kind %d n %d, want par n %d", o.Kind, o.N, tc.n)
			}
			if got := pos(o.Arms); !reflect.DeepEqual(got, tc.arms) {
				t.Errorf("arms %v, want %v", got, tc.arms)
			}
			if got := pos(o.Flat); !reflect.DeepEqual(got, tc.flat) {
				t.Errorf("flat %v, want %v", got, tc.flat)
			}
		})
	}
	// Replicas share their ops: only the lowering replicates, once.
	o := lower(t, dsl.ParN{N: 2, Body: []dsl.Expr{a}}).Ops[0]
	if o.Arms[0] != o.Arms[1] {
		t.Error("∥n replicas lowered twice")
	}
}

// TestLowerParUpdateArms pins which par arms the runtime sends as groups:
// exactly the plain remote updates, in arm order.
func TestLowerParUpdateArms(t *testing.T) {
	o := lower(t, dsl.Par{
		write, local("Own"), up("U"), dsl.Seq{up("U")},
		dsl.Retract{Target: dsl.ByIdx("a"), Prop: dsl.PR("U")}, dsl.Par{up("Seen")},
	}).Ops[0]
	var got []bool
	for _, a := range o.Flat {
		got = append(got, a.Remote)
	}
	if want := []bool{true, false, true, false, true, true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("remote update arms %v, want %v", got, want)
	}
	if w := o.Flat[0]; w.Kind != plan.OpWrite || w.To != toG || w.Data != "d" {
		t.Errorf("write arm lowered to %+v", w)
	}
	if r := o.Flat[4]; r.Kind != plan.OpProp || r.Value || r.Prop != dsl.PR("U") {
		t.Errorf("retract arm lowered to %+v", r)
	}
}

// TestLowerGroupRuns pins the straight-line rule: adjacency of plain remote
// updates is the whole test, except that a member whose local half another
// junction reads in process may only start a run.
func TestLowerGroupRuns(t *testing.T) {
	cases := []struct {
		body  []dsl.Expr
		steps []int // statements per step
	}{
		{[]dsl.Expr{write, up("U"), dsl.Retract{Target: dsl.ByIdx("a"), Prop: dsl.PR("U")}}, []int{3}},
		{[]dsl.Expr{dsl.Skip{}, up("U")}, []int{1, 1}},
		{[]dsl.Expr{local("Own"), up("U")}, []int{1, 1}},             // a local assert is not a remote update
		{[]dsl.Expr{up("U"), local("Own"), up("U")}, []int{1, 1, 1}}, // and ends a run
		{[]dsl.Expr{up("U"), dsl.Wait{Cond: formula.P("Own")}, up("U")}, []int{1, 1, 1}},
		{[]dsl.Expr{up("U"), up("Own"), up("U")}, []int{3}},                  // a local half nobody else reads
		{[]dsl.Expr{up("U"), up("Seen"), up("U")}, []int{1, 2}},              // g reads f::j@Seen: Seen may not run ahead of U's ack
		{[]dsl.Expr{up("Seen"), up("U"), up("Own")}, []int{3}},               // but it may start a run
		{[]dsl.Expr{dsl.Seq{up("U"), up("U")}, up("U")}, []int{3}},           // nested Seq levels are spliced first
		{[]dsl.Expr{up("U"), dsl.Par{up("U")}, up("U")}, []int{1, 1, 1}},     // a par is not a straight-line member
		{[]dsl.Expr{write, dsl.Txn{Body: []dsl.Expr{up("U")}}}, []int{1, 1}}, // nor is a block holding one
	}
	for i, c := range cases {
		b := lower(t, c.body...)
		var got []int
		n := 0
		for _, s := range b.Steps {
			got = append(got, len(s))
			for _, o := range s {
				if o != b.Ops[n] {
					t.Fatalf("case %d: steps do not cut Ops in order", i)
				}
				n++
			}
		}
		if n != len(b.Ops) || !reflect.DeepEqual(got, c.steps) {
			t.Errorf("case %d %v: steps %v, want %v", i, c.body, got, c.steps)
		}
	}
}

// TestLowerTxnPrefixes pins what a failed transaction restores: the
// write-set of the steps started, a straight-line run counting as one step.
func TestLowerTxnPrefixes(t *testing.T) {
	o := lower(t, dsl.Txn{Body: []dsl.Expr{
		local("A"),
		dsl.Seq{up("Own"), up("U")},
		dsl.Wait{Cond: formula.P("B"), Data: []string{"d"}},
		dsl.Retract{Prop: dsl.PR("A")},
	}}).Ops[0]
	if o.Kind != plan.OpTxn || len(o.Body.Steps) != 4 || len(o.Body.Ops) != 5 {
		t.Fatalf("txn lowered to kind %d, %d steps over %d ops", o.Kind, len(o.Body.Steps), len(o.Body.Ops))
	}
	want := []plan.WriteSet{
		{Props: []string{"A"}},
		{Props: []string{"A", "Own", "U"}},
		{Props: []string{"A", "Own", "U", "B"}, Data: []string{"d"}},
		{Props: []string{"A", "Own", "U", "B"}, Data: []string{"d"}},
	}
	for k := range want {
		if got := o.Wrote[k]; !reflect.DeepEqual(got, want[k]) {
			t.Errorf("after step %d: %+v, want %+v", k, got, want[k])
		}
	}
	for i, k := range []int{0, 1, 1, 2, 3} {
		if got := o.Body.StepAt(i); got != k {
			t.Errorf("op %d is in step %d, want %d", i, got, k)
		}
	}
	if w := o.Body.Ops[3]; w.Kind != plan.OpWait || w.Wait == nil || !w.Wait.Static {
		t.Errorf("wait lowered without its static plan: %+v", w)
	}
}

// TestCaseMachineDone is the terminator table: every terminator of the arm
// that ran × every signal its body delivered × whether a reconsider entered
// it, at a middle arm (next finds arms below) and at the last arm (next runs
// the otherwise as a tail).
func TestCaseMachineDone(t *testing.T) {
	terms := []dsl.Terminator{dsl.TermBreak, dsl.TermNext, dsl.TermReconsider}
	sigs := []plan.Signal{plan.SigNone, plan.SigBreak, plan.SigNext, plan.SigReconsider, plan.SigReturn, plan.SigRetry}
	for _, term := range terms {
		c := &plan.Case{Arms: []plan.CaseArm{{Term: term}, {Term: term}, {Term: term}}}
		for _, sig := range sigs {
			for _, rec := range []bool{false, true} {
				for _, cur := range []int{1, 2} {
					start := plan.CaseMachine{Start: 1, Base: 0, Cur: cur, Rounds: 5, Phase: plan.CaseRunning, InRec: rec}
					m := start
					step, out := m.Done(c, sig)

					want, wantSig := start, plan.SigNone
					var wantStep plan.CaseStep
					eff := sig
					if sig == plan.SigNone {
						eff = map[dsl.Terminator]plan.Signal{dsl.TermBreak: plan.SigBreak, dsl.TermNext: plan.SigNext, dsl.TermReconsider: plan.SigReconsider}[term]
					}
					switch eff {
					case plan.SigBreak:
						wantStep = plan.CaseExit
					case plan.SigReturn, plan.SigRetry:
						wantStep, wantSig = plan.CaseExit, eff
					case plan.SigReconsider:
						wantStep, want.Phase = plan.CaseMatch, plan.CaseRematching
					case plan.SigNext:
						if rec {
							// A next after a reconsider restarts the case below
							// the arm, with a fresh round budget.
							want.Base, want.Rounds, want.InRec = cur+1, 0, false
						}
						want.Start = cur + 1
						if cur == 2 {
							wantStep = plan.CaseTail
						} else {
							wantStep, want.Phase = plan.CaseMatch, plan.CaseMatching
						}
					}
					if step != wantStep || out != wantSig || m != want {
						t.Errorf("term %d sig %d rec %v arm %d: (%d, %d, %+v), want (%d, %d, %+v)",
							term, sig, rec, cur, step, out, m, wantStep, wantSig, want)
					}
				}
			}
		}
	}
	// The otherwise ends like a break, whatever the last arm's terminator.
	c := &plan.Case{Arms: []plan.CaseArm{{Term: dsl.TermReconsider}}}
	m := plan.CaseMachine{Cur: 1, Phase: plan.CaseRunning}
	if step, out := m.Done(c, plan.SigNone); step != plan.CaseExit || out != plan.SigNone {
		t.Errorf("otherwise done: (%d, %d), want exit", step, out)
	}
	for sig, want := range map[plan.Signal]plan.Signal{
		plan.SigNone: plan.SigNone, plan.SigBreak: plan.SigNone, plan.SigNext: plan.SigNone,
		plan.SigReconsider: plan.SigNone, plan.SigReturn: plan.SigReturn, plan.SigRetry: plan.SigRetry,
	} {
		if got := plan.TailSignal(sig); got != want {
			t.Errorf("tail signal %d: %d, want %d", sig, got, want)
		}
	}
}

// TestCaseMachineMatch covers matching, re-matching after a reconsider, and
// the round limit.
func TestCaseMachineMatch(t *testing.T) {
	c := &plan.Case{Arms: []plan.CaseArm{{Term: dsl.TermReconsider}, {Term: dsl.TermReconsider}, {Term: dsl.TermBreak}}}
	truth := []bool{false, true, true}
	holds := func(i int) bool { return truth[i] }

	m := plan.NewCaseMachine()
	if arm, err := m.Match(c, holds); err != nil || arm != 1 || m.InRec || m.Phase != plan.CaseRunning {
		t.Fatalf("first match: arm %d, %v, %+v", arm, err, m)
	}
	// Reconsider: the same arm still matching fails the case.
	m.Done(c, plan.SigNone)
	if _, err := m.Match(c, holds); !errors.Is(err, plan.ErrReconsiderFailed) || err.Error() != "reconsider made no different match: arm 1 still matches" {
		t.Fatalf("re-match of the same arm: %v", err)
	}
	// A different match proceeds, entered by reconsider.
	m = plan.NewCaseMachine()
	m.Match(c, holds)
	m.Done(c, plan.SigNone)
	truth[1] = false
	if arm, err := m.Match(c, holds); err != nil || arm != 2 || !m.InRec {
		t.Fatalf("re-match: arm %d, %v, %+v", arm, err, m)
	}
	// With nothing true the otherwise runs; re-matching from the otherwise
	// into the otherwise again fails.
	truth[2] = false
	m = plan.NewCaseMachine()
	if arm, _ := m.Match(c, holds); arm != 3 {
		t.Fatalf("no arm true: ran %d, want the otherwise", arm)
	}
	m.Done(c, plan.SigReconsider)
	if _, err := m.Match(c, holds); !errors.Is(err, plan.ErrReconsiderFailed) {
		t.Fatalf("otherwise re-matched into itself: %v", err)
	}

	// Round limit: two arms that keep re-pointing at each other stop after
	// ReconsiderLimit+1 matchings.
	pingPong := &plan.Case{Arms: []plan.CaseArm{{Term: dsl.TermReconsider}, {Term: dsl.TermReconsider}}}
	a := true
	m = plan.NewCaseMachine()
	for round := 0; ; round++ {
		arm, err := m.Match(pingPong, func(i int) bool { return (i == 0) == a })
		if err != nil {
			if !errors.Is(err, plan.ErrCaseRounds) || round != plan.ReconsiderLimit+1 {
				t.Fatalf("round %d: %v", round, err)
			}
			break
		}
		if arm == 2 {
			t.Fatalf("round %d fell to the otherwise", round)
		}
		a = !a
		if step, _ := m.Done(pingPong, plan.SigNone); step != plan.CaseMatch {
			t.Fatalf("round %d: reconsider did not re-match", round)
		}
	}
}
