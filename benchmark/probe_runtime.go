package main

import (
	"context"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/runtime"
)

// pingProgram is the smallest request round: the front asserts Work at the
// back and waits for the back to retract it — sharding's handshake without
// data, hooks or application.
func pingProgram() *dsl.Program {
	p := dsl.NewProgram()
	p.Type("front").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}),
		dsl.Assert{Target: dsl.J("back", "j"), Prop: dsl.PR("Work")},
		dsl.Wait{Cond: formula.Not(formula.P("Work"))},
	))
	p.Type("back").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}),
		dsl.Retract{Target: dsl.J("front", "j"), Prop: dsl.PR("Work")},
	).Guarded(formula.P("Work")))
	p.Instance("front", "front").Instance("back", "back")
	p.SetMain(dsl.Par{dsl.Start{Instance: "front"}, dsl.Start{Instance: "back"}})
	return p
}

func probeRuntime(w *workload, m *metrics) error {
	s, err := startLocal(pingProgram(), nil)
	if err != nil {
		return err
	}
	ctx := context.Background()
	ns, _ := probe(func() {
		if e := s.sys.Invoke(ctx, "front", "j"); e != nil {
			err = e
		}
	})
	s.close()
	if err != nil {
		return err
	}
	m.add("runtime.roundtrip_us", ns/1e3, "us")

	// runtime.New plus RunMain on the workload's own program; Close is not
	// timed.
	times := make([]float64, probeBatches)
	for i := range times {
		prog := buildProgram(w)
		t0 := time.Now()
		sys, err := runtime.New(prog, runtime.Options{AckTimeout: ackTimeout})
		if err != nil {
			return err
		}
		if err := sys.RunMain(ctx); err != nil {
			sys.Close()
			return err
		}
		times[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		sys.Close()
	}
	m.add("runtime.new_ms", median(times), "ms")
	return nil
}
