package events

import (
	"strings"
	"testing"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

func TestStructureBasics(t *testing.T) {
	s := NewStructure()
	a := s.Add(Label{Kind: KindAdHoc, Key: "a"})
	b := s.Add(Label{Kind: KindAdHoc, Key: "b"})
	c := s.Add(Label{Kind: KindAdHoc, Key: "c"})
	s.Enable(a.ID, b.ID)
	s.Enable(b.ID, c.ID)

	if !s.Leq(a.ID, c.ID) {
		t.Error("≤ not transitive")
	}
	if !s.Leq(a.ID, a.ID) {
		t.Error("≤ not reflexive")
	}
	if s.Leq(c.ID, a.ID) {
		t.Error("≤ has a false edge")
	}
	lm := s.Leftmost()
	if len(lm) != 1 || lm[0] != a.ID {
		t.Errorf("leftmost = %v", lm)
	}
	rm := s.Rightmost()
	if len(rm) != 1 || rm[0] != c.ID {
		t.Errorf("rightmost = %v", rm)
	}
	if err := s.CheckAxioms(); err != nil {
		t.Fatal(err)
	}
}

func TestConflictInheritance(t *testing.T) {
	// a # b, b ⪇ c ⟹ a # c (inherited).
	s := NewStructure()
	a := s.Add(Label{Kind: KindAdHoc, Key: "a"})
	b := s.Add(Label{Kind: KindAdHoc, Key: "b"})
	c := s.Add(Label{Kind: KindAdHoc, Key: "c"})
	s.Conflict(a.ID, b.ID)
	s.Enable(b.ID, c.ID)
	if !s.InConflict(a.ID, c.ID) {
		t.Error("conflict not inherited down enablement")
	}
	if s.InConflict(a.ID, a.ID) {
		t.Error("conflict must be irreflexive")
	}
	if !s.InConflict(b.ID, a.ID) {
		t.Error("conflict must be symmetric")
	}
}

func TestConcurrency(t *testing.T) {
	// Fan-out: a enables b and c; b and c are concurrent unless conflicting.
	s := NewStructure()
	a := s.Add(Label{Kind: KindAdHoc, Key: "a"})
	b := s.Add(Label{Kind: KindAdHoc, Key: "b"})
	c := s.Add(Label{Kind: KindAdHoc, Key: "c"})
	s.Enable(a.ID, b.ID)
	s.Enable(a.ID, c.ID)
	if !s.Concurrent(b.ID, c.ID) {
		t.Error("parallel chains should be concurrent")
	}
	s.Conflict(b.ID, c.ID)
	if s.Concurrent(b.ID, c.ID) {
		t.Error("conflicting events are not concurrent")
	}
	if s.Concurrent(a.ID, b.ID) {
		t.Error("ordered events are not concurrent")
	}
}

func TestCycleDetected(t *testing.T) {
	s := NewStructure()
	a := s.Add(Label{Kind: KindAdHoc, Key: "a"})
	b := s.Add(Label{Kind: KindAdHoc, Key: "b"})
	s.Enable(a.ID, b.ID)
	s.Enable(b.ID, a.ID)
	if err := s.CheckAxioms(); err == nil {
		t.Fatal("cyclic enablement must violate the axioms")
	}
}

// fig3Junction builds τf::junction of Fig. 3 and checks its event structure
// matches Fig. 18's f-side chain:
// Sched_f → Wr_f(n,*) → Wr_g(n,*) → {Wr_f(Work,tt), Wr_g(Work,tt)} →
// Rd_f(Work,ff) → Unsched_f.
func TestFig18Shape(t *testing.T) {
	def := dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}, dsl.InitData{Name: "n"}),
		dsl.Save{Data: "n", From: func(dsl.HostCtx) ([]byte, error) { return nil, nil }},
		dsl.Write{Data: "n", To: dsl.J("g", "junction")},
		dsl.Assert{Target: dsl.J("g", "junction"), Prop: dsl.PR("Work")},
		dsl.Wait{Cond: formula.Not(formula.P("Work"))},
	)
	def.Name = "junction"
	s := DenoteJunction("f", def, Budget{})
	ExpandWaits(s)
	if err := s.CheckAxioms(); err != nil {
		t.Fatal(err)
	}

	get := func(label string) EventID {
		id, err := s.FindOne(label)
		if err != nil {
			t.Fatalf("%v (structure:\n%s)", err, s.Dot("fig18"))
		}
		return id
	}
	sched := get("Sched_f")
	wrN := get("Wr_f(n,*)")
	wrNg := get("Wr_g::junction(n,*)")
	wrWf := get("Wr_f(Work,tt)")
	wrWg := get("Wr_g::junction(Work,tt)")
	rd := get("Rd_f(Work,ff)")
	unsched := get("Unsched_f")

	chain := [][2]EventID{
		{sched, wrN}, {wrN, wrNg}, {wrNg, wrWf}, {wrNg, wrWg},
		{wrWf, rd}, {wrWg, rd}, {rd, unsched},
	}
	for _, e := range chain {
		if !s.Leq(e[0], e[1]) {
			t.Errorf("missing enablement %s ≤ %s",
				s.Events[e[0]].Label, s.Events[e[1]].Label)
		}
	}
	// The two assert writes are concurrent (fan-out, conjunctive fan-in).
	if !s.Concurrent(wrWf, wrWg) {
		t.Error("assert's two table writes should be concurrent")
	}
}

func TestStartUpPortion(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("tA").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}),
		dsl.Skip{},
	))
	p.Type("tB").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}, dsl.InitProp{Name: "Retried", Init: false}),
		dsl.Skip{},
	))
	p.Instance("Act", "tA").Instance("Aud", "tB")
	p.SetMain(dsl.Par{dsl.Start{Instance: "Act"}, dsl.Start{Instance: "Aud"}})

	pp, err := plan.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	s := StartUp(pp)
	if err := s.CheckAxioms(); err != nil {
		t.Fatal(err)
	}
	main, err := s.FindOne("main")
	if err != nil {
		t.Fatal(err)
	}
	stAct, err := s.FindOne("Start_init(Act)")
	if err != nil {
		t.Fatal(err)
	}
	stAud, err := s.FindOne("Start_init(Aud)")
	if err != nil {
		t.Fatal(err)
	}
	wrAct, err := s.FindOne("Wr_Act(Work,ff)")
	if err != nil {
		t.Fatal(err)
	}
	wrAudR, err := s.FindOne("Wr_Aud(Retried,ff)")
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]EventID{{main, stAct}, {main, stAud}, {stAct, wrAct}, {stAud, wrAudR}} {
		if !s.Leq(pair[0], pair[1]) {
			t.Errorf("missing startup enablement %v", pair)
		}
	}
}

// TestStartUpFollowsMain: the start-up portion has a Start_init event for each
// start main makes as it runs, so an otherwise whose try succeeded starts
// nothing, and a Wr event for each proposition declared, named as declared.
func TestStartUpFollowsMain(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("T").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work[me::junction]", Init: true}),
		dsl.Skip{},
	))
	p.Instance("a", "T").Instance("b", "T")
	p.SetMain(dsl.OtherwiseT(dsl.Start{Instance: "a"}, 50*time.Millisecond, dsl.Start{Instance: "b"}))
	pp, err := plan.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	s := StartUp(pp)
	var got []string
	for _, id := range s.IDs() {
		got = append(got, s.Events[id].Label.String())
	}
	if want := "main Start_init(a) Wr_a(Work[me::junction],tt)"; strings.Join(got, " ") != want {
		t.Fatalf("start-up events %v, want %s", got, want)
	}
}

func TestOtherwiseConflictShape(t *testing.T) {
	// E1 otherwise E2 must attach a conflicting handler copy at each event
	// of E1, as in Fig. 21's complain branches.
	e := dsl.Otherwise{
		Try: dsl.Seq{
			dsl.Save{Data: "n", From: nil},
			dsl.Write{Data: "n", To: dsl.J("Aud", "junction")},
		},
		Timeout: time.Second,
		Handler: dsl.Host{Label: "complain", Writes: []string{"c"}, Fn: nil},
	}
	s := DenoteExpr("Act", e, Budget{})
	if err := s.CheckAxioms(); err != nil {
		t.Fatal(err)
	}
	// Two events in E1 → two handler copies.
	handlers := s.Find("Wr_Act(c,*)")
	if len(handlers) != 2 {
		t.Fatalf("expected 2 handler copies, got %d:\n%s", len(handlers), s.Dot("x"))
	}
	// Each E1 event conflicts with one handler copy.
	wrN, err := s.FindOne("Wr_Act(n,*)")
	if err != nil {
		t.Fatal(err)
	}
	conflicting := 0
	for _, h := range handlers {
		if s.InConflict(wrN, h) {
			conflicting++
		}
	}
	if conflicting == 0 {
		t.Error("Try event has no conflicting handler")
	}
	// E1 events are isolated.
	if s.Events[wrN].Outward {
		t.Error("otherwise must isolate the events of E1")
	}
}

func TestCaseGuardConflict(t *testing.T) {
	c := dsl.Case{
		Arms: []dsl.CaseArm{
			dsl.Arm(formula.P("Work"), dsl.TermBreak,
				dsl.Save{Data: "x", From: nil}),
		},
		Otherwise: []dsl.Expr{dsl.Save{Data: "y", From: nil}},
	}
	s := DenoteExpr("J", c, Budget{})
	if err := s.CheckAxioms(); err != nil {
		t.Fatal(err)
	}
	rdT, err := s.FindOne("Rd_J(Work,tt)")
	if err != nil {
		t.Fatal(err)
	}
	rdF, err := s.FindOne("Rd_J(Work,ff)")
	if err != nil {
		t.Fatal(err)
	}
	if !s.InConflict(rdT, rdF) {
		t.Error("guard and its negation must be in minimal conflict")
	}
	// The positive read enables the arm body; the negative read enables the
	// otherwise body.
	armX, err := s.FindOne("Wr_J(x,*)")
	if err != nil {
		t.Fatal(err)
	}
	owY, err := s.FindOne("Wr_J(y,*)")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Leq(rdT, armX) {
		t.Error("guard does not enable arm body")
	}
	if !s.Leq(rdF, owY) {
		t.Error("¬guard does not enable otherwise body")
	}
	// The two bodies are in (inherited) conflict.
	if !s.InConflict(armX, owY) {
		t.Error("alternative case bodies must conflict")
	}
}

func TestWaitExpansionMultiDisjunct(t *testing.T) {
	// wait [m] (A ∨ ¬B) expands into two conflicting alternatives, each
	// followed by a read of m.
	f := formula.Or(formula.P("A"), formula.Not(formula.P("B")))
	e := dsl.Seq{
		dsl.Save{Data: "s", From: nil},
		dsl.Wait{Data: []string{"m"}, Cond: f},
		dsl.Save{Data: "t", From: nil},
	}
	s := DenoteExpr("J", e, Budget{})
	ExpandWaits(s)
	if err := s.CheckAxioms(); err != nil {
		t.Fatal(err)
	}
	if len(s.Find("Wait_J([m],"+f.String()+")")) != 0 {
		t.Fatal("wait placeholder not expanded")
	}
	rdA := s.Find("Rd_J(A,tt)")
	rdB := s.Find("Rd_J(B,ff)")
	if len(rdA) != 1 || len(rdB) != 1 {
		t.Fatalf("disjunct reads: A=%d B=%d", len(rdA), len(rdB))
	}
	if !s.InConflict(rdA[0], rdB[0]) {
		t.Error("DNF alternatives must be strict alternatives (conflict)")
	}
	// Each alternative gets its own copy of the data read.
	rdM := s.Find("Rd_J(m,*)")
	if len(rdM) != 2 {
		t.Fatalf("data reads = %d, want one copy per disjunct", len(rdM))
	}
	// Staging: the disjunct read precedes its data read, which precedes the
	// successor write.
	wrT, err := s.FindOne("Wr_J(t,*)")
	if err != nil {
		t.Fatal(err)
	}
	okChain := false
	for _, m := range rdM {
		if s.Leq(rdA[0], m) && s.Leq(m, wrT) {
			okChain = true
		}
	}
	if !okChain {
		t.Errorf("staged wait chain missing:\n%s", s.Dot("wait"))
	}
}

func TestRetryBudgetBounds(t *testing.T) {
	e := dsl.Seq{
		dsl.Save{Data: "n", From: nil},
		dsl.Retry{},
	}
	s := DenoteExpr("J", e, Budget{Unfold: 2})
	if err := s.CheckAxioms(); err != nil {
		t.Fatal(err)
	}
	// Two unfoldings of the body plus a ⊥ marker.
	if got := len(s.Find("Wr_J(n,*)")); got != 2 {
		t.Errorf("unfolded %d times, want 2", got)
	}
	if got := len(s.Find("⊥")); got != 1 {
		t.Errorf("⊥ markers = %d, want 1", got)
	}
}

func TestTxnSynchPrefix(t *testing.T) {
	e := dsl.Txn{Body: []dsl.Expr{dsl.Save{Data: "n", From: nil}}}
	s := DenoteExpr("J", e, Budget{})
	synch, err := s.FindOne("Synch_J")
	if err != nil {
		t.Fatal(err)
	}
	wr, err := s.FindOne("Wr_J(n,*)")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Leq(synch, wr) {
		t.Error("transaction Synch must prefix the body")
	}
	if s.Events[wr].Outward {
		t.Error("transaction body must be isolated")
	}
}

func TestDenoteProgramFig3(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("tau_f").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}, dsl.InitData{Name: "n"}),
		dsl.Save{Data: "n", From: func(dsl.HostCtx) ([]byte, error) { return nil, nil }},
		dsl.Write{Data: "n", To: dsl.J("g", "junction")},
		dsl.Assert{Target: dsl.J("g", "junction"), Prop: dsl.PR("Work")},
		dsl.Wait{Cond: formula.Not(formula.P("Work"))},
	))
	p.Type("tau_g").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}, dsl.InitData{Name: "n"}),
		dsl.Restore{Data: "n", Into: nil},
		dsl.Retract{Target: dsl.J("f", "junction"), Prop: dsl.PR("Work")},
	).Guarded(formula.P("Work")))
	p.Instance("f", "tau_f").Instance("g", "tau_g")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}})

	pp, err := plan.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := DenoteProgram(pp, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	// Program semantics include startup, both junctions' Sched/Unsched, and
	// no unexpanded waits.
	for _, want := range []string{"main", "Start_init(f)", "Start_init(g)", "Sched_f", "Unsched_f", "Sched_g", "Unsched_g"} {
		if len(s.Find(want)) != 1 {
			t.Errorf("missing event %q", want)
		}
	}
	for _, id := range s.IDs() {
		if s.Events[id].Label.Kind == KindWait {
			t.Fatal("unexpanded wait in program semantics")
		}
	}
	dot := s.Dot("fig3")
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "Sched_f") {
		t.Error("dot output malformed")
	}
}

func TestLabelStrings(t *testing.T) {
	cases := []struct {
		l    Label
		want string
	}{
		{Label{Kind: KindRd, Junction: "f", Key: "Work", Value: "ff"}, "Rd_f(Work,ff)"},
		{Label{Kind: KindWr, Junction: "g", Key: "n", Value: "*"}, "Wr_g(n,*)"},
		{Label{Kind: KindStart, Junction: "init", Key: "Act"}, "Start_init(Act)"},
		{Label{Kind: KindStop, Junction: "f", Key: "g"}, "Stop_f(g)"},
		{Label{Kind: KindSched, Junction: "f"}, "Sched_f"},
		{Label{Kind: KindUnsched, Junction: "f"}, "Unsched_f"},
		{Label{Kind: KindSynch, Junction: "J"}, "Synch_J"},
		{Label{Kind: KindAdHoc, Key: "complain"}, "complain"},
	}
	for _, c := range cases {
		if got := c.l.String(); got != c.want {
			t.Errorf("label = %q, want %q", got, c.want)
		}
	}
	w := Label{Kind: KindWait, Junction: "J", Data: []string{"m"}, Formula: "¬Work"}
	if got := w.String(); got != "Wait_J([m],¬Work)" {
		t.Errorf("wait label = %q", got)
	}
}

func TestIfDesugarsToCase(t *testing.T) {
	e := dsl.If{
		Cond: formula.P("A"),
		Then: dsl.Save{Data: "x", From: nil},
	}
	s := DenoteExpr("J", e, Budget{})
	if err := s.CheckAxioms(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FindOne("Rd_J(A,tt)"); err != nil {
		t.Error("if guard read missing")
	}
	if _, err := s.FindOne("Rd_J(A,ff)"); err != nil {
		t.Error("if negated guard read missing")
	}
}

// TestParNDenotesConcurrentCopies: ∥n produces n concurrent copies of the
// body (documented simplification: plain union).
func TestParNDenotesConcurrentCopies(t *testing.T) {
	e := dsl.ParN{N: 3, Body: []dsl.Expr{dsl.Save{Data: "n", From: nil}}}
	s := DenoteExpr("J", e, Budget{})
	writes := s.Find("Wr_J(n,*)")
	if len(writes) != 3 {
		t.Fatalf("∥3 produced %d events", len(writes))
	}
	for i := 0; i < len(writes); i++ {
		for k := i + 1; k < len(writes); k++ {
			if !s.Concurrent(writes[i], writes[k]) {
				t.Fatal("replicated branches must be concurrent")
			}
		}
	}
}

// TestStartStopDenotation covers the start/stop event labels.
func TestStartStopDenotation(t *testing.T) {
	s := DenoteExpr("J", dsl.Seq{dsl.Start{Instance: "x"}, dsl.Stop{Instance: "x"}}, Budget{})
	st, err := s.FindOne("Start_J(x)")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := s.FindOne("Stop_J(x)")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Leq(st, sp) {
		t.Fatal("sequencing lost between start and stop")
	}
}

// TestDenoteFig4Program: the full remote-snapshot program (Fig. 4) denotes
// to a well-formed structure containing the retry/failure branches.
func TestDenoteFig4Program(t *testing.T) {
	// Reuse the catalogue shape: a guard-scheduled auditor with reconsider
	// logic, denoted at Unfold 2 to include one retry round.
	def := dsl.Def(
		dsl.Decls(
			dsl.InitProp{Name: "Work", Init: false},
			dsl.InitProp{Name: "Retried", Init: false},
			dsl.InitData{Name: "n"},
		),
		dsl.Restore{Data: "n", Into: nil},
		dsl.Retract{Prop: dsl.PR("Retried")},
		dsl.Case{
			Arms: []dsl.CaseArm{
				dsl.Arm(formula.P("Work"), dsl.TermReconsider,
					dsl.OtherwiseT(
						dsl.Retract{Target: dsl.J("Act", "junction"), Prop: dsl.PR("Work")},
						time.Second,
						dsl.If{
							Cond: formula.Not(formula.P("Retried")),
							Then: dsl.Assert{Prop: dsl.PR("Retried")},
							Else: dsl.Host{Label: "complain", Writes: []string{"c"}, Fn: nil},
						},
					),
				),
			},
			Otherwise: []dsl.Expr{dsl.Skip{}},
		},
	).Guarded(formula.P("Work"))
	def.Name = "junction"
	s := DenoteJunction("Aud", def, Budget{Unfold: 2})
	ExpandWaits(s)
	if err := s.CheckAxioms(); err != nil {
		t.Fatal(err)
	}
	// The failure/retry structure is present: Retried writes in both
	// polarities and conflicting read alternatives on Work.
	if len(s.Find("Wr_Aud(Retried,ff)")) == 0 || len(s.Find("Wr_Aud(Retried,tt)")) == 0 {
		t.Fatal("retry bookkeeping events missing")
	}
	rdT := s.Find("Rd_Aud(Work,tt)")
	rdF := s.Find("Rd_Aud(Work,ff)")
	if len(rdT) == 0 || len(rdF) == 0 {
		t.Fatal("case guard reads missing")
	}
	foundConflict := false
	for _, a := range rdT {
		for _, b := range rdF {
			if s.InConflict(a, b) {
				foundConflict = true
			}
		}
	}
	if !foundConflict {
		t.Fatal("guard alternatives not in conflict")
	}
}

// TestIsolateAndOutwardRightmost covers the isolate/outward machinery.
func TestIsolateAndOutwardRightmost(t *testing.T) {
	s := NewStructure()
	a := s.Add(Label{Kind: KindAdHoc, Key: "a"})
	b := s.Add(Label{Kind: KindAdHoc, Key: "b"})
	s.Enable(a.ID, b.ID)
	if got := s.OutwardRightmost(); len(got) != 1 || got[0] != b.ID {
		t.Fatalf("outward rightmost = %v", got)
	}
	s.Isolate()
	if got := s.OutwardRightmost(); len(got) != 0 {
		t.Fatalf("after isolate, outward rightmost = %v", got)
	}
}
