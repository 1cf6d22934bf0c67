package runtime

import (
	"context"
	"errors"
	"testing"
	"time"

	"csaw/internal/compart"
	"csaw/internal/dsl"
	"csaw/internal/formula"
)

// guardEvals is how many times the junction's guard has been evaluated since
// its instance (re)started.
func guardEvals(s *System, fq string) uint64 {
	m := s.obs.Junction(fq)
	return m.Schedulings.Load() + m.NotSchedulable.Load()
}

// peerProgram is a reader r whose junction j is guarded on guard (with a local
// Done it asserts on firing, so a fired guard goes quiet), beside a target
// instance other whose unguarded junction j asserts P at its own table, and
// declares P[a] and P[b] for idx-qualified reads. main starts other, then r.
func peerProgram(guard formula.Formula, fired chan<- struct{}) *dsl.Program {
	p := dsl.NewProgram()
	p.Type("target").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "P", Init: false},
			dsl.InitProp{Name: "P[a]", Init: false}, dsl.InitProp{Name: "P[b]", Init: false}),
		dsl.Assert{Prop: dsl.PR("P")}))
	p.Type("reader").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Done", Init: false},
			dsl.DeclSet{Name: "Elems", Elems: []string{"a", "b"}}, dsl.DeclIdx{Name: "tgt", Of: "Elems"}),
		dsl.Assert{Prop: dsl.PR("Done")},
		dsl.Host{Label: "fired", Fn: func(dsl.HostCtx) error { fired <- struct{}{}; return nil }},
	).Guarded(formula.And(guard, formula.Not(formula.P("Done")))))
	p.Instance("other", "target").Instance("r", "reader")
	p.SetMain(dsl.Start{Instance: "other"}, dsl.Start{Instance: "r"})
	return p
}

// awaitFired waits wakeBound for the reader's guard to fire.
func awaitFired(t *testing.T, fired <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-fired:
	case <-time.After(wakeBound):
		t.Fatalf("%s: the guard did not fire within %v", what, wakeBound)
	}
}

// TestQualifiedGuardIdlesUntilWritten: a guard on a colocated junction's
// proposition is evaluated when its driver starts and then not again while
// nothing it reads changes. A 2 ms poll would evaluate it about 50 times in
// the 100 ms.
func TestQualifiedGuardIdlesUntilWritten(t *testing.T) {
	fired := make(chan struct{}, 1)
	s := mustSystem(t, peerProgram(formula.At("other::j", "P"), fired), Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if n := guardEvals(s, "r::j"); n > 1 {
		t.Fatalf("guard on other::j@P evaluated %d times in 100ms with nothing written, want at most 1", n)
	}
}

// TestQualifiedGuardFiresOnWrite: asserting P at the peer wakes the reader's
// driver through its subscription on the peer's table, with no retry wake.
func TestQualifiedGuardFiresOnWrite(t *testing.T) {
	fired := make(chan struct{}, 1)
	s := mustSystem(t, peerProgram(formula.At("other::j", "P"), fired), Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // long enough for a poll to have fired
	if err := s.Invoke(context.Background(), "other", "j"); err != nil {
		t.Fatal(err)
	}
	awaitFired(t, fired, "other asserted P")
	m := s.obs.Junction("r::j")
	if m.WakesRetry.Load() != 0 || m.WakesEvent.Load() == 0 {
		t.Fatalf("reader woke %d times on events and %d on retries, want ≥ 1 and 0", m.WakesEvent.Load(), m.WakesRetry.Load())
	}
}

// TestLivenessGuardFiresOnCrash: a guard on ¬x@running fires when x crashes.
func TestLivenessGuardFiresOnCrash(t *testing.T) {
	fired := make(chan struct{}, 1)
	s := mustSystem(t, peerProgram(formula.Not(dsl.Running("other::j")), fired), Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // long enough for a poll to have fired
	s.CrashInstance("other")
	awaitFired(t, fired, "other crashed")
	if n := s.obs.Junction("r::j").WakesRetry.Load(); n != 0 {
		t.Fatalf("reader took %d retry wakes, want 0", n)
	}
}

// TestLivenessGuardFiresOnStartAndRestart: a guard on x@running whose driver
// runs before x ever started fires on x's first start, and, re-armed, on x's
// restart after a crash.
func TestLivenessGuardFiresOnStartAndRestart(t *testing.T) {
	fired := make(chan struct{}, 1)
	p := peerProgram(dsl.Running("other::j"), fired)
	p.SetMain(dsl.Start{Instance: "r"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "the reader's first evaluation", func() bool { return guardEvals(s, "r::j") == 1 })
	if err := s.StartInstance("other", nil); err != nil {
		t.Fatal(err)
	}
	awaitFired(t, fired, "other started")
	s.CrashInstance("other")
	r, err := s.Junction("r", "j")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Table().SetProp("Done", false); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	select {
	case <-fired:
		t.Fatal("the guard fired while other was down")
	default:
	}
	if err := s.StartInstance("other", nil); err != nil {
		t.Fatal(err)
	}
	awaitFired(t, fired, "other restarted")
	if n := s.obs.Junction("r::j").WakesRetry.Load(); n != 0 {
		t.Fatalf("reader took %d retry wakes, want 0", n)
	}
}

// TestIdxQualifiedGuardWakesOnItsElementOnly: a guard on other::j@P[$tgt]
// watches the one key tgt's element names: a write to P[b] while tgt is a
// does not wake it, a write to P[a] fires it.
func TestIdxQualifiedGuardWakesOnItsElementOnly(t *testing.T) {
	fired := make(chan struct{}, 1)
	s := mustSystem(t, peerProgram(formula.At("other::j", dsl.PropIdx("P", "tgt").Name), fired), Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	r, err := s.Junction("r", "j")
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.Junction("other", "j")
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "the reader's first evaluation", func() bool { return guardEvals(s, "r::j") == 1 })
	if err := r.SetIdx("tgt", "a"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "the evaluation SetIdx wakes", func() bool { return guardEvals(s, "r::j") == 2 })
	if err := other.Table().SetProp("P[b]", true); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := guardEvals(s, "r::j") - 2; n != 0 {
		t.Fatalf("a write to P[b] with tgt = a evaluated the guard %d times, want 0", n)
	}
	if err := other.Table().SetProp("P[a]", true); err != nil {
		t.Fatal(err)
	}
	awaitFired(t, fired, "P[a] asserted")
}

// waitOnPeer is the wait counterpart of peerProgram: r's unguarded junction
// waits for other::j@P and then signals done.
func waitOnPeer(done chan<- struct{}) *dsl.Program {
	p := dsl.NewProgram()
	p.Type("target").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "P", Init: false}),
		dsl.Assert{Prop: dsl.PR("P")}))
	p.Type("reader").Junction("j", dsl.Def(nil,
		dsl.Wait{Cond: formula.At("other::j", "P")},
		dsl.Host{Label: "done", Fn: func(dsl.HostCtx) error { done <- struct{}{}; return nil }}))
	p.Instance("other", "target").Instance("r", "reader")
	p.SetMain(dsl.Start{Instance: "other"}, dsl.Start{Instance: "r"})
	return p
}

// TestWaitOnPeerFollowsMigration: a wait on other::j@P stays blocked while
// other migrates, re-arms on each new incarnation, and is admitted when P is
// set there. "colocated" has both at A and moves other to B and back;
// "brought together" starts other at B, where the read is Unknown, and moves
// it to A.
func TestWaitOnPeerFollowsMigration(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start string   // other's first location; r is at A
		moves []string // other's migrations, in order
	}{
		{"colocated", "A", []string{"B", "A"}},
		{"brought together", "B", []string{"A"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			netA, netB := compart.NewNetwork(1), compart.NewNetwork(2)
			defer netA.Close()
			defer netB.Close()
			dep := NewDeployment().AddLocation("A", netA).AddLocation("B", netB)
			dep.Place("r", "A").Place("other", tc.start)
			done := make(chan struct{}, 1)
			s := mustSystem(t, waitOnPeer(done), Options{Deploy: dep})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.RunMain(ctx); err != nil {
				t.Fatal(err)
			}
			invoked := make(chan error, 1)
			go func() { invoked <- s.Invoke(ctx, "r", "j") }()
			waitUntil(t, 5*time.Second, "r's wait", func() bool { return s.obs.Junction("r::j").WaitsArmed.Load() == 1 })
			for _, to := range tc.moves {
				if err := s.MigrateInstance("other", to); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case <-done:
				t.Fatal("the wait was admitted before P was set")
			default:
			}
			if err := s.Invoke(ctx, "other", "j"); err != nil {
				t.Fatal(err)
			}
			select {
			case <-done:
			case <-time.After(wakeBound):
				t.Fatalf("the wait was not admitted within %v of P being set at other's new incarnation", wakeBound)
			}
			if err := <-invoked; err != nil && !errors.Is(err, context.Canceled) {
				t.Fatal(err)
			}
		})
	}
}
