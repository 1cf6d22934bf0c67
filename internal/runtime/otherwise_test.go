package runtime

// otherwise[t] deadlines (deadline.go): a firing that does not expire
// allocates nothing, an expired deadline is replaced rather than re-armed,
// nested scopes and a driver's abandonment reach every linked child, and an
// expiry racing the disarm never leaks into the next firing.

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
)

// oneJunction starts a single instance "i" of one junction "j".
func oneJunction(tb testing.TB, def *dsl.JunctionDef) *System {
	tb.Helper()
	p := dsl.NewProgram()
	p.Type("t").Junction("j", def)
	p.Instance("i", "t")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(tb, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return s
}

// otherwiseSystem's junction runs local statements and a host call inside
// otherwise[1s]: the shape of a request round that does not expire.
func otherwiseSystem(tb testing.TB, complained *atomic.Int32) *System {
	return oneJunction(tb, dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "A", Init: false}),
		dsl.OtherwiseT(
			dsl.Seq{
				dsl.Assert{Prop: dsl.PR("A")},
				dsl.Host{Label: "work", Fn: func(dsl.HostCtx) error { return nil }},
				dsl.Retract{Prop: dsl.PR("A")},
			},
			time.Second,
			dsl.Host{Label: "complain", Fn: func(dsl.HostCtx) error { complained.Add(1); return nil }},
		),
	))
}

func TestOtherwiseFiringAllocatesNothing(t *testing.T) {
	var complained atomic.Int32
	s := otherwiseSystem(t, &complained)
	ctx := context.Background()
	fire := func() {
		if err := s.Invoke(ctx, "i", "j"); err != nil {
			t.Fatal(err)
		}
	}
	fire()
	if allocs := testing.AllocsPerRun(200, fire); allocs != 0 {
		t.Fatalf("an otherwise[t] firing allocates %v objects, want 0", allocs)
	}
	if n := complained.Load(); n != 0 {
		t.Fatalf("the handler ran %d times on firings that did not expire", n)
	}
}

func BenchmarkSchedulingOtherwise(b *testing.B) {
	var complained atomic.Int32
	s := otherwiseSystem(b, &complained)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Invoke(ctx, "i", "j"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestInvokeCancelledReportsCause: when the caller's context stops a body
// between statements, the error is ErrTimeout and also the context's own
// error, with the message it always had.
func TestInvokeCancelledReportsCause(t *testing.T) {
	t.Run("cancelled", func(t *testing.T) {
		s := oneJunction(t, dsl.Def(nil, dsl.Host{Label: "h", Fn: func(dsl.HostCtx) error { return nil }}))
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := s.Invoke(ctx, "i", "j")
		if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.Canceled) {
			t.Fatalf("Invoke under a cancelled context: %v, want ErrTimeout and context.Canceled", err)
		}
		if got, want := err.Error(), "i::j: runtime: timed out: context canceled"; got != want {
			t.Fatalf("message %q, want %q", got, want)
		}
	})
	t.Run("deadline", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		s := oneJunction(t, dsl.Def(nil,
			dsl.Host{Label: "slow", Fn: func(dsl.HostCtx) error { <-ctx.Done(); return nil }},
			dsl.Host{Label: "next", Fn: func(dsl.HostCtx) error { return nil }},
		))
		err := s.Invoke(ctx, "i", "j")
		if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Invoke past its deadline: %v, want ErrTimeout and context.DeadlineExceeded", err)
		}
	})
	t.Run("between groups", func(t *testing.T) {
		// Two updates to two destinations are one straight-line run sent as
		// two groups; the context ends once the first has arrived.
		p := dsl.NewProgram()
		p.Type("src").Junction("j", dsl.Def(nil,
			dsl.Assert{Target: dsl.J("g", "j"), Prop: dsl.PR("U")},
			dsl.Assert{Target: dsl.J("h", "j"), Prop: dsl.PR("U")},
		))
		p.Type("sink").Junction("j", dsl.Def(dsl.Decls(dsl.InitProp{Name: "U", Init: false})))
		p.Instance("f", "src").Instance("g", "sink").Instance("h", "sink")
		p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}, dsl.Start{Instance: "h"}})
		s := mustSystem(t, p, Options{})
		if err := s.RunMain(context.Background()); err != nil {
			t.Fatal(err)
		}
		g := s.junctionQuiet("g", "j")
		ctx := endsWhen{func() bool { return g.met.RemoteQueued.Load() > 0 }}
		err := s.Invoke(ctx, "f", "j")
		if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.Canceled) {
			t.Fatalf("Invoke cancelled between groups: %v, want ErrTimeout and context.Canceled", err)
		}
		if got, want := err.Error(), "f::j: runtime: timed out: context canceled"; got != want {
			t.Fatalf("message %q, want %q", got, want)
		}
	})
}

// endsWhen is a context that reports context.Canceled once ended() holds. Its
// Done is nil: only the checks between statements can see it end.
type endsWhen struct{ ended func() bool }

func (endsWhen) Deadline() (time.Time, bool) { return time.Time{}, false }
func (endsWhen) Done() <-chan struct{}       { return nil }
func (endsWhen) Value(any) any               { return nil }
func (c endsWhen) Err() error {
	if c.ended() {
		return context.Canceled
	}
	return nil
}

// TestOtherwiseAfterExpiryStartsFresh alternates expiring and succeeding
// firings of one step: a firing after an expiry must not inherit the closed
// Done, and must have its whole t.
func TestOtherwiseAfterExpiryStartsFresh(t *testing.T) {
	const timeout = 100 * time.Millisecond
	var handled atomic.Int32
	s := oneJunction(t, dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Go", Init: false}),
		dsl.OtherwiseT(
			dsl.Seq{dsl.Wait{Cond: formula.P("Go")}, dsl.Retract{Prop: dsl.PR("Go")}},
			timeout,
			dsl.Host{Label: "h", Fn: func(dsl.HostCtx) error { handled.Add(1); return nil }},
		),
	))
	j := s.junctionQuiet("i", "j")
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		// Nothing admits the wait: the deadline expires and the handler runs.
		if err := s.Invoke(ctx, "i", "j"); err != nil {
			t.Fatalf("round %d, expiring firing: %v", round, err)
		}
		if n := handled.Load(); n != int32(round+1) {
			t.Fatalf("round %d: the handler ran %d times, want %d", round, n, round+1)
		}
		// The wait is admitted well within t, after the firing has begun: a
		// Done left closed by the expiry would end it at once.
		go func() {
			time.Sleep(timeout / 5)
			j.InjectProp("Go", true)
		}()
		if err := s.Invoke(ctx, "i", "j"); err != nil {
			t.Fatalf("round %d, succeeding firing: %v", round, err)
		}
		if n := handled.Load(); n != int32(round+1) {
			t.Fatalf("round %d: the firing after an expiry ran the handler", round)
		}
	}
}

// TestNestedOtherwiseOuterDeadlineWins: the inner scope's long t does not
// extend an enclosing deadline, an outer otherwise[t] or the caller's own. A
// handler runs only when its enclosing context is still live.
func TestNestedOtherwiseOuterDeadlineWins(t *testing.T) {
	const outer = 50 * time.Millisecond
	var innerRan, outerRan atomic.Int32
	s := oneJunction(t, dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Go", Init: false}),
		dsl.OtherwiseT(
			dsl.OtherwiseT(
				dsl.Wait{Cond: formula.P("Go")},
				5*time.Second,
				dsl.Host{Label: "inner", Fn: func(dsl.HostCtx) error { innerRan.Add(1); return nil }},
			),
			outer,
			dsl.Host{Label: "outer", Fn: func(dsl.HostCtx) error { outerRan.Add(1); return nil }},
		),
	))
	for round := 1; round <= 2; round++ {
		start := time.Now()
		if err := s.Invoke(context.Background(), "i", "j"); err != nil {
			t.Fatal(err)
		}
		e := time.Since(start)
		if e < outer || e > 2*time.Second {
			t.Fatalf("round %d: the wait ended after %v, want the outer deadline %v", round, e, outer)
		}
		if innerRan.Load() != 0 || outerRan.Load() != int32(round) {
			t.Fatalf("round %d: inner handler ran %d times, outer %d", round, innerRan.Load(), outerRan.Load())
		}
	}
	// The caller's own context encloses both scopes the same way, through
	// context.AfterFunc: it ends the wait, and with it ended no handler runs.
	ctx, cancel := context.WithTimeout(context.Background(), outer/2)
	defer cancel()
	start := time.Now()
	if err := s.Invoke(ctx, "i", "j"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Invoke past the caller's deadline: %v, want ErrTimeout", err)
	}
	if e := time.Since(start); e < outer/2 || e > 2*time.Second {
		t.Fatalf("the wait ended after %v, want the caller's deadline %v", e, outer/2)
	}
	if innerRan.Load() != 0 || outerRan.Load() != 2 {
		t.Fatalf("a handler ran under an ended caller: inner %d, outer %d", innerRan.Load(), outerRan.Load())
	}
}

// TestAbandonReachesNestedOtherwise: a driver blocked in a wait two
// otherwise[t] scopes down is abandoned through its root context, which must
// reach the innermost deadline: crash and Close return at once, neither
// handler runs, and nothing is recorded as a body failure.
func TestAbandonReachesNestedOtherwise(t *testing.T) {
	for _, how := range []string{"crash", "close"} {
		t.Run(how, func(t *testing.T) {
			var handled atomic.Int32
			complain := dsl.Host{Label: "h", Fn: func(dsl.HostCtx) error { handled.Add(1); return nil }}
			s := oneJunction(t, dsl.Def(
				dsl.Decls(dsl.InitProp{Name: "Go", Init: false}, dsl.InitProp{Name: "Done", Init: false}),
				dsl.Retract{Prop: dsl.PR("Go")},
				dsl.OtherwiseT(
					dsl.OtherwiseT(dsl.Wait{Cond: formula.P("Done")}, 30*time.Second, complain),
					30*time.Second, complain),
			).Guarded(formula.P("Go")))
			j := s.junctionQuiet("i", "j")
			j.InjectProp("Go", true)
			for deadline := time.Now().Add(5 * time.Second); j.met.WaitsArmed.Load() != 1; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the driver never reached the wait")
				}
			}
			start := time.Now()
			if how == "crash" {
				s.CrashInstance("i")
			} else {
				s.Close()
			}
			if e := time.Since(start); e > 200*time.Millisecond {
				t.Errorf("%s took %v with the driver in a nested wait", how, e)
			}
			if n := handled.Load(); n != 0 {
				t.Errorf("a handler ran %d times on an abandoned firing", n)
			}
			if err := s.LastDriverError("i::j"); err != nil {
				t.Errorf("the abandoned scheduling was recorded as a body failure: %v", err)
			}
		})
	}
}

// TestDeadlineExpiryRacingDisarm runs firings whose try takes about t, so
// the timer fires just before, during or just after the disarm. Each firing
// must begin with a live deadline and end exactly one way: the try finished,
// or a handler ran. In the nested case the inner scope's t is longer, so only
// the outer expiry ends it: the parent's cancel races the child's disarm, and
// a child it reached must not be re-armed.
//
// A firing whose first statement never ran began with its deadline ended. On
// a loaded host that can be a late start: the goroutine got no CPU until t had
// passed. A stale deadline, one a firing re-armed after it ended, ends sooner:
// its handler runs before t has passed since Invoke began, and that fails.
func TestDeadlineExpiryRacingDisarm(t *testing.T) {
	const timeout = 2 * time.Millisecond
	const rounds = 300
	for _, nested := range []bool{false, true} {
		name := "flat"
		if nested {
			name = "nested"
		}
		t.Run(name, func(t *testing.T) {
			var began, finished, innerHandled, outerHandled atomic.Int32
			epoch := time.Now()
			var handledAt atomic.Int64 // when the last outer handler ran, since epoch
			rng := rand.New(rand.NewSource(1))
			var try dsl.Expr = dsl.Seq{
				dsl.Host{Label: "begin", Fn: func(dsl.HostCtx) error { began.Add(1); return nil }},
				dsl.Host{Label: "work", Fn: func(dsl.HostCtx) error {
					time.Sleep(timeout/4 + time.Duration(rng.Int63n(int64(timeout))))
					return nil
				}},
				dsl.Host{Label: "end", Fn: func(dsl.HostCtx) error { finished.Add(1); return nil }},
			}
			if nested {
				try = dsl.OtherwiseT(try, 4*timeout,
					dsl.Host{Label: "inner", Fn: func(dsl.HostCtx) error { innerHandled.Add(1); return nil }})
			}
			s := oneJunction(t, dsl.Def(nil, dsl.OtherwiseT(try, timeout,
				dsl.Host{Label: "outer", Fn: func(dsl.HostCtx) error {
					handledAt.Store(int64(time.Since(epoch)))
					outerHandled.Add(1)
					return nil
				}})))
			late := int32(0) // firings that started after their t had passed
			for i := 1; i <= rounds; i++ {
				invoked := time.Since(epoch)
				if err := s.Invoke(context.Background(), "i", "j"); err != nil {
					t.Fatalf("firing %d: %v", i, err)
				}
				if began.Load() != int32(i)-late {
					if ended := time.Duration(handledAt.Load()) - invoked; ended < timeout {
						t.Fatalf("firing %d began with its deadline already ended: its handler ran %v after Invoke began, within its %v", i, ended, timeout)
					}
					late++
				}
				if n := finished.Load() + innerHandled.Load() + outerHandled.Load(); n != int32(i) {
					t.Fatalf("after %d firings: %d finished, %d inner and %d outer handlers ran",
						i, finished.Load(), innerHandled.Load(), outerHandled.Load())
				}
			}
			t.Logf("%d finished, %d inner and %d outer handlers ran, %d firings started late", finished.Load(), innerHandled.Load(), outerHandled.Load(), late)
		})
	}
}
