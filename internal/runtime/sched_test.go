package runtime

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
)

// buildWorker constructs a single-type program whose junction is guarded on
// the local proposition Work; the body signals the per-instance hook and
// retracts Work. Because the guard reads only local state, its driver runs
// on its own table's keyed subscription alone.
func buildWorker(n int, onRun func(instance string)) *dsl.Program {
	p := dsl.NewProgram()
	p.Type("tau").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}),
		// Retract before signalling: the retract is a local write, and local
		// priority drops queued updates to the same key — an injection raced
		// between signal and retract would be silently superseded.
		dsl.Retract{Prop: dsl.PR("Work")},
		dsl.Host{Label: "run", Fn: func(ctx dsl.HostCtx) error {
			onRun(ctx.Instance())
			return nil
		}},
	).Guarded(formula.P("Work")))
	starts := make([]dsl.Expr, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("w%d", i)
		p.Instance(name, "tau")
		starts[i] = dsl.Start{Instance: name}
	}
	p.SetMain(dsl.Par(starts))
	return p
}

// wakeBound is how long a guard or InvokeWhenReady may take to react to the
// write that makes it true. A subscription wake lands in microseconds; the
// bound only absorbs a loaded test host.
const wakeBound = 500 * time.Millisecond

// TestLocalGuardWakesWithoutPoll pins the property of the event-driven
// driver: a junction whose guard depends only on local state is scheduled by
// the write that makes the guard true, within wakeBound.
func TestLocalGuardWakesWithoutPoll(t *testing.T) {
	ran := make(chan string, 16)
	s := mustSystem(t, buildWorker(1, func(inst string) { ran <- inst }), Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	j, err := s.Junction("w0", "junction")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		start := time.Now()
		j.InjectProp("Work", true)
		select {
		case <-ran:
		case <-time.After(wakeBound):
			t.Fatalf("round %d: guard did not fire within %v — the write did not wake the driver", round, wakeBound)
		}
		if lat := time.Since(start); lat > wakeBound {
			t.Fatalf("round %d: wake latency %v, want ≤ %v", round, lat, wakeBound)
		}
	}
}

// TestInvokeWhenReadyWakesWithoutPoll is the same property for the blocked
// InvokeWhenReady path: the write that makes the guard true wakes it.
func TestInvokeWhenReadyWakesWithoutPoll(t *testing.T) {
	var runs atomic.Int32
	p := dsl.NewProgram()
	p.Type("tau").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}),
		dsl.Retract{Prop: dsl.PR("Work")},
		dsl.Host{Label: "run", Fn: func(dsl.HostCtx) error { runs.Add(1); return nil }},
	).Guarded(formula.P("Work")).ManuallyScheduled())
	p.Instance("w", "tau")
	p.SetMain(dsl.Start{Instance: "w"})

	s := mustSystem(t, p, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	j, err := s.Junction("w", "junction")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.InvokeWhenReady(ctx, "w", "junction") }()
	time.Sleep(20 * time.Millisecond) // let the invoke block on a false guard
	start := time.Now()
	j.InjectProp("Work", true)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(wakeBound):
		t.Fatalf("InvokeWhenReady still blocked after %v — the write did not wake it", wakeBound)
	}
	if lat := time.Since(start); lat > wakeBound {
		t.Fatalf("InvokeWhenReady wake latency %v, want ≤ %v", lat, wakeBound)
	}
	if runs.Load() != 1 {
		t.Fatalf("body ran %d times, want 1", runs.Load())
	}
}

// TestEventDriverStress hammers many event-driven instances concurrently:
// each injector thread feeds its instance a new Work assertion as soon as the
// previous one was processed, so every injection corresponds to exactly one
// scheduling. Run under -race in CI.
func TestEventDriverStress(t *testing.T) {
	const (
		instances = 8
		rounds    = 50
	)
	type cell struct {
		mu   sync.Mutex
		runs int
		done chan struct{}
	}
	cells := map[string]*cell{}
	for i := 0; i < instances; i++ {
		cells[fmt.Sprintf("w%d", i)] = &cell{done: make(chan struct{}, rounds)}
	}
	s := mustSystem(t, buildWorker(instances, func(inst string) {
		c := cells[inst]
		c.mu.Lock()
		c.runs++
		c.mu.Unlock()
		c.done <- struct{}{}
	}), Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, instances)
	for i := 0; i < instances; i++ {
		inst := fmt.Sprintf("w%d", i)
		j, err := s.Junction(inst, "junction")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cells[inst]
			for r := 0; r < rounds; r++ {
				j.InjectProp("Work", true)
				select {
				case <-c.done:
				case <-ctx.Done():
					errCh <- fmt.Errorf("%s: round %d never processed", inst, r)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	for inst, c := range cells {
		c.mu.Lock()
		runs := c.runs
		c.mu.Unlock()
		if runs != rounds {
			t.Errorf("%s: processed %d rounds, want %d", inst, runs, rounds)
		}
	}
	if log, dropped := s.DriverErrors(); len(log) != 0 || dropped != 0 {
		t.Errorf("driver errors under stress: %v (dropped %d)", log, dropped)
	}
}

// TestDriverErrorsLog pins the new diagnostics surface: every failing
// scheduling is recorded (not just the last), the per-junction latest error
// remains queryable, and the log is bounded. Nothing the guard reads changes
// after the first failure: only the retry pause drives the crash loop.
func TestDriverErrorsLog(t *testing.T) {
	var fails atomic.Int32
	p := dsl.NewProgram()
	p.Type("tau").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}),
		dsl.Host{Label: "boom", Fn: func(dsl.HostCtx) error {
			fails.Add(1)
			return fmt.Errorf("host failure %d", fails.Load())
		}},
	).Guarded(formula.P("Work")))
	p.Instance("w", "tau")
	p.SetMain(dsl.Start{Instance: "w"})

	s := mustSystem(t, p, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	j, err := s.Junction("w", "junction")
	if err != nil {
		t.Fatal(err)
	}
	j.InjectProp("Work", true)
	deadline := time.Now().Add(5 * time.Second)
	for fails.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if fails.Load() < 3 {
		t.Fatalf("junction failed %d times, want repeated crash-loop retries", fails.Load())
	}
	if err := s.LastDriverError("w::junction"); err == nil {
		t.Fatal("LastDriverError lost the failure")
	}
	log, _ := s.DriverErrors()
	if len(log) < 3 {
		t.Fatalf("driver log holds %d entries, want every recorded failure", len(log))
	}
	for _, de := range log {
		if de.Junction != "w::junction" || de.Err == nil {
			t.Fatalf("malformed log entry %+v", de)
		}
	}
}

// TestInvokeDeadlineWhileDriverHoldsJunction: a guarded junction's driver is
// parked in a wait with no otherwise, holding the junction. Invoke and
// InvokeWhenReady under a 50 ms deadline must give up with ErrTimeout, not
// wait for the driver; once the driver lets go, the junction schedules again.
func TestInvokeDeadlineWhileDriverHoldsJunction(t *testing.T) {
	parked := make(chan struct{})
	var once sync.Once
	p := dsl.NewProgram()
	p.Type("tau").Junction("junction", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Go", Init: true}, dsl.InitProp{Name: "Release", Init: false}),
		dsl.Host{Label: "parked", Fn: func(dsl.HostCtx) error { once.Do(func() { close(parked) }); return nil }},
		dsl.Wait{Cond: formula.P("Release")},
		dsl.Retract{Prop: dsl.PR("Go")},
	).Guarded(formula.P("Go")))
	p.Instance("w", "tau")
	p.SetMain(dsl.Start{Instance: "w"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the driver never fired")
	}

	for _, call := range []struct {
		name   string
		invoke func(context.Context, string, string) error
	}{{"Invoke", s.Invoke}, {"InvokeWhenReady", s.InvokeWhenReady}} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		done := make(chan error, 1)
		go func() { done <- call.invoke(ctx, "w", "junction") }()
		select {
		case err := <-done:
			if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s while the driver holds the junction: %v, want ErrTimeout", call.name, err)
			}
		case <-time.After(time.Second):
			t.Errorf("%s under a 50ms deadline still waits for the driver after 1s", call.name)
		}
		cancel()
	}
	// Callers that give up leave no goroutine each behind them: one helper
	// waits for the junction on behalf of all of them.
	before := goruntime.NumGoroutine()
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		if err := s.Invoke(ctx, "w", "junction"); !errors.Is(err, ErrTimeout) {
			t.Fatalf("Invoke %d while the driver holds the junction: %v, want ErrTimeout", i, err)
		}
		cancel()
	}
	if grown := goruntime.NumGoroutine() - before; grown > 2 {
		t.Errorf("50 abandoned Invokes left %d more goroutines, want at most the one helper", grown)
	}

	j, err := s.Junction("w", "junction")
	if err != nil {
		t.Fatal(err)
	}
	j.InjectProp("Release", true)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		// The driver retracts Go on its way out; the next scheduling finds
		// the guard false.
		err := s.Invoke(ctx, "w", "junction")
		if errors.Is(err, ErrNotSchedulable) {
			break
		}
		if err != nil {
			t.Fatalf("Invoke after the driver let go: %v", err)
		}
	}
}

// TestScheduleWaitersGiveUpAndTakeTurns races callers with short deadlines
// for one junction: some get their turn, some give up while the helper is
// handing the lock over. No two schedulings overlap, every call returns, and
// once all have, no caller is counted and no helper runs.
func TestScheduleWaitersGiveUpAndTakeTurns(t *testing.T) {
	var inside atomic.Int32
	s := oneJunction(t, dsl.Def(nil, dsl.Host{Label: "busy", Fn: func(dsl.HostCtx) error {
		if n := inside.Add(1); n != 1 {
			t.Errorf("%d schedulings of one junction at once", n)
		}
		time.Sleep(100 * time.Microsecond)
		inside.Add(-1)
		return nil
	}}))
	var ran, gaveUp atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(50+(c*37+i*53)%400)*time.Microsecond)
				switch err := s.Invoke(ctx, "i", "j"); {
				case err == nil:
					ran.Add(1)
				case errors.Is(err, ErrTimeout):
					gaveUp.Add(1)
				default:
					t.Errorf("Invoke: %v", err)
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	if ran.Load() == 0 || gaveUp.Load() == 0 {
		t.Errorf("%d calls ran and %d gave up: the race wants both", ran.Load(), gaveUp.Load())
	}
	t.Logf("%d calls ran, %d gave up", ran.Load(), gaveUp.Load())
	if err := s.Invoke(context.Background(), "i", "j"); err != nil {
		t.Fatal(err)
	}
	j, err := s.Junction("i", "j")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		j.turn.mu.Lock()
		waiters, running := j.turn.waiters, j.turn.ch != nil
		j.turn.mu.Unlock()
		if waiters == 0 && !running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after every call returned: %d callers counted, helper running %v", waiters, running)
		}
		time.Sleep(time.Millisecond)
	}
}
