package plan

import (
	"errors"
	"fmt"

	"csaw/internal/dsl"
)

// RunMain runs a program's main body (paper §6, "Start and stop"), the one
// reading of it that the runtime, the model checker, the §8 start-up
// semantics and Compile share; dsl.Validate admits in main exactly the forms
// it runs. A sequence runs in order and stops at its first failure; every arm
// of a par runs, in arm order, and the par fails with their failures joined; a
// scope runs its body; an otherwise runs its handler only when its try
// failed; skip does nothing; start and stop call the callbacks. An
// otherwise's timeout is not read: a start or stop does not block, so a try
// ends before any deadline could, and arm order is one legal interleaving of
// a par.
func RunMain(main []dsl.Expr, start func(instance string, args any) error, stop func(instance string) error) error {
	return runMain(dsl.Seq(main), start, stop)
}

func runMain(e dsl.Expr, start func(string, any) error, stop func(string) error) error {
	switch n := e.(type) {
	case dsl.Seq:
		for _, c := range n {
			if err := runMain(c, start, stop); err != nil {
				return err
			}
		}
		return nil
	case dsl.Par:
		// All arm failures matter: a parallel start composition can fail
		// several ways at once, and dropping all but the first hides them.
		errs := make([]error, len(n))
		for i, c := range n {
			errs[i] = runMain(c, start, stop)
		}
		return errors.Join(errs...)
	case dsl.Scope:
		return runMain(dsl.Seq(n.Body), start, stop)
	case dsl.Otherwise:
		if runMain(n.Try, start, stop) == nil {
			return nil
		}
		return runMain(n.Handler, start, stop)
	case dsl.Skip:
		return nil
	case dsl.Start:
		return start(n.Instance, n.Args)
	case dsl.Stop:
		return stop(n.Instance)
	}
	return fmt.Errorf("plan: statement %s not allowed in main", e)
}

// ModelMain runs main through RunMain over a model that knows only which
// instances run, none at first: a start of a running instance and a stop of
// a stopped one fail there, as they do at run time. started and stopped see
// each start and stop that succeeded, in the order main makes them.
func ModelMain(main []dsl.Expr, started, stopped func(instance string)) error {
	running := map[string]bool{}
	return RunMain(main, func(inst string, _ any) error {
		if running[inst] {
			return fmt.Errorf("start %s: instance already started", inst)
		}
		running[inst] = true
		started(inst)
		return nil
	}, func(inst string) error {
		if !running[inst] {
			return fmt.Errorf("stop %s: instance not running", inst)
		}
		running[inst] = false
		stopped(inst)
		return nil
	})
}
