package main

import (
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

// buildProgram builds the workload's own program text, as set-up does.
func buildProgram(w *workload) *dsl.Program {
	switch w.arch {
	case archShard:
		s, prog := newShardStore(shards, nil)
		s.closeApp()
		return prog
	case archCache:
		c, prog := newCacheStore(nil)
		c.server.Close()
		return prog
	default:
		return fanoutProgram(w.clients)
	}
}

func probePlan(w *workload, m *metrics) error {
	var err error
	ns, _ := probe(func() {
		if e := dsl.Validate(buildProgram(w)); e != nil {
			err = e
		}
	})
	m.add("dsl.build_validate_us", ns/1e3, "us")
	if err != nil {
		return err
	}
	prog := buildProgram(w)
	if err := dsl.Validate(prog); err != nil {
		return err
	}
	ns, _ = probe(func() { plan.Compile(prog) })
	m.add("plan.compile_us", ns/1e3, "us")

	// The back-end guard of the key-value workloads over a table-like
	// environment.
	guard := formula.P("Work")
	env := formula.MapEnv{"Work": true}
	ns, _ = probe(func() { guard.Eval(env) })
	m.add("formula.guard_eval_ns", ns, "ns")
	return nil
}
