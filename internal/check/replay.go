package check

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/obsv"
	"csaw/internal/runtime"
)

// ReplayOptions bounds a counterexample replay.
type ReplayOptions struct {
	// Timeout is the overall replay deadline. Default 5s.
	Timeout time.Duration
	// Grace is the settle window before confirming a deadlock (time for any
	// in-flight scheduling to make progress if it were going to). Default 300ms.
	Grace time.Duration
}

// ReplayResult reports whether the real runtime reproduced the violation.
type ReplayResult struct {
	Confirmed bool   `json:"confirmed"`
	Detail    string `json:"detail"`
}

type chanSink struct{ ch chan obsv.Event }

func (s *chanSink) Emit(e obsv.Event) {
	select {
	case s.ch <- e:
	default: // replay traces are short; dropping beyond the buffer is fine
	}
}

// Replay re-executes a violation's counterexample schedule against the real
// runtime (drivers disabled, so nothing races the schedule) and checks
// that the violating condition holds there too: the declared invariant
// evaluates to false over the real KV tables, or every blocked scheduling is
// still blocked and every guarded junction refuses to schedule. Liveness
// findings are bound-relative diagnostics and have no replayable schedule.
func Replay(p *dsl.Program, v Violation, opts ReplayOptions) (*ReplayResult, error) {
	if v.Kind == Liveness {
		return nil, fmt.Errorf("check: liveness findings carry no replayable schedule")
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.Grace <= 0 {
		opts.Grace = 300 * time.Millisecond
	}
	sink := &chanSink{ch: make(chan obsv.Event, 4096)}
	sys, err := runtime.New(p, runtime.Options{DisableDrivers: true, Trace: sink})
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
	defer cancel()
	if err := sys.RunMain(ctx); err != nil {
		return nil, fmt.Errorf("check: replay main: %w", err)
	}

	deadline := time.Now().Add(opts.Timeout)
	waitEvent := func(kind obsv.Kind, junction string) error {
		for {
			select {
			case e := <-sink.ch:
				if e.Kind == kind && (junction == "" || e.Junction == junction) {
					return nil
				}
			case <-time.After(time.Until(deadline)):
				return fmt.Errorf("timed out waiting for %s at %s", kind, junction)
			}
		}
	}

	refuted := func(format string, args ...any) (*ReplayResult, error) {
		return &ReplayResult{Confirmed: false, Detail: fmt.Sprintf(format, args...)}, nil
	}

	// outstanding tracks schedulings the model left blocked on a wait: their
	// Invoke runs asynchronously and must NOT have completed at the end.
	outstanding := map[string]chan error{}

	for i, step := range v.Trace {
		inst, jn, _ := strings.Cut(step.Junction, "::")
		switch step.Kind {
		case StepStrand:
			continue // thread-internal; covered by the invoke that ran the body
		case StepSchedule, StepInvoke:
			if step.Blocks {
				ch := make(chan error, 1)
				go func() { ch <- sys.Invoke(ctx, inst, jn) }()
				if err := waitEvent(obsv.EvWaitArmed, step.Junction); err != nil {
					return refuted("step %d (%s): %v", i, step, err)
				}
				outstanding[step.Junction] = ch
				continue
			}
			if err := sys.Invoke(ctx, inst, jn); err != nil {
				return refuted("step %d (%s): invoke failed: %v", i, step, err)
			}
		case StepAbsorb:
			if err := sys.Invoke(ctx, inst, jn); !errors.Is(err, runtime.ErrNotSchedulable) {
				return refuted("step %d (%s): expected not-schedulable, got %v", i, step, err)
			}
		case StepInject:
			j, err := sys.Junction(inst, jn)
			if err != nil {
				return refuted("step %d (%s): %v", i, step, err)
			}
			j.InjectProp(step.Key, true)
		case StepResume:
			if err := waitEvent(obsv.EvWaitAdmitted, step.Junction); err != nil {
				return refuted("step %d (%s): %v", i, step, err)
			}
		case StepTimeout:
			if err := waitEvent(obsv.EvWaitTimeout, step.Junction); err != nil {
				return refuted("step %d (%s): %v", i, step, err)
			}
		}
	}

	switch v.Kind {
	case Invariant:
		// Every scheduling the model ran to completion must finish before the
		// quiescent evaluation (resumed invokes return asynchronously).
		for fq, ch := range outstanding {
			select {
			case <-ch:
			case <-time.After(time.Until(deadline)):
				return refuted("scheduling of %s still blocked at quiescence", fq)
			}
		}
		var inv *dsl.Invariant
		for i := range p.Invariants {
			if p.Invariants[i].Name == v.Invariant {
				inv = &p.Invariants[i]
				break
			}
		}
		if inv == nil {
			return nil, fmt.Errorf("check: invariant %q not declared", v.Invariant)
		}
		truth := inv.Cond.Eval(realEnv(sys))
		if truth != formula.False {
			return refuted("invariant %q evaluates to %v at quiescence, not false", v.Invariant, truth)
		}
		return &ReplayResult{Confirmed: true, Detail: fmt.Sprintf("invariant %q false over the real tables", v.Invariant)}, nil

	default: // Deadlock
		time.Sleep(opts.Grace)
		for fq, ch := range outstanding {
			select {
			case err := <-ch:
				return refuted("scheduling of %s completed (%v); not deadlocked", fq, err)
			default:
			}
		}
		// Every guarded junction without a blocked scheduling must refuse to
		// schedule (a blocked one holds its scheduling slot and is skipped —
		// its wait staying armed is the evidence).
		for inst, typeName := range p.Instances {
			t := p.Types[typeName]
			if t == nil || !sys.InstanceRunning(inst) {
				continue
			}
			for _, jn := range t.JunctionNames() {
				fq := inst + "::" + jn
				if t.Junctions[jn].Guard == nil {
					continue
				}
				if _, blocked := outstanding[fq]; blocked {
					continue
				}
				ictx, icancel := context.WithTimeout(ctx, opts.Grace)
				err := sys.Invoke(ictx, inst, jn)
				icancel()
				if !errors.Is(err, runtime.ErrNotSchedulable) && !errors.Is(err, runtime.ErrNotRunning) {
					return refuted("%s scheduled (%v); not deadlocked", fq, err)
				}
			}
		}
		return &ReplayResult{Confirmed: true, Detail: "all blocked schedulings stayed blocked; no guard schedulable"}, nil
	}
}

// realEnv evaluates invariant formulas over the running system's tables.
func realEnv(sys *runtime.System) formula.Env {
	return formula.EnvFunc(func(junction, name string) formula.Truth {
		if junction == "" {
			return formula.Unknown
		}
		inst, jn, ok := strings.Cut(sys.Plan().JunctionFQ(junction), "::")
		if !ok {
			return formula.Unknown
		}
		if name == dsl.RunningProp {
			return formula.FromBool(sys.InstanceRunning(inst))
		}
		if strings.HasPrefix(name, "@") {
			return formula.Unknown
		}
		if !sys.InstanceRunning(inst) {
			return formula.Unknown
		}
		j, err := sys.Junction(inst, jn)
		if err != nil {
			return formula.Unknown
		}
		v, err := j.Table().Prop(name)
		if err != nil {
			return formula.Unknown
		}
		return formula.FromBool(v)
	})
}
