// Quickstart: the paper's Fig. 3 — the sequential program "H1; H2" typified
// into two distributed instances f and g that coordinate through their
// junctions' KV tables.
//
//	go run ./examples/quickstart
//
// f runs H1, saves its state into named data n, writes n to g, asserts the
// Work proposition at g and waits for its retraction. g's junction is
// guarded on Work: the runtime schedules it when the assertion arrives; it
// restores n, runs H2 and retracts Work back at f.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/plan"
	"csaw/internal/runtime"
)

func main() {
	p := dsl.NewProgram()

	// def τf :: junction(g)
	p.Type("tau_f").Junction("junction", dsl.Def(
		dsl.Decls(
			dsl.InitProp{Name: "Work", Init: false},
			dsl.InitData{Name: "n"},
		),
		dsl.Host{Label: "H1", Fn: func(ctx dsl.HostCtx) error {
			fmt.Println("f: running H1 (the first half of the program)")
			return nil
		}},
		dsl.Save{Data: "n", From: func(dsl.HostCtx) ([]byte, error) {
			return []byte("intermediate result of H1"), nil
		}},
		dsl.Write{Data: "n", To: dsl.J("g", "junction")},
		dsl.Assert{Target: dsl.J("g", "junction"), Prop: dsl.PR("Work")},
		dsl.Wait{Cond: formula.Not(formula.P("Work"))},
	))

	// def τg :: junction(f) with guard Work
	p.Type("tau_g").Junction("junction", dsl.Def(
		dsl.Decls(
			dsl.InitProp{Name: "Work", Init: false},
			dsl.InitData{Name: "n"},
		),
		dsl.Restore{Data: "n", Into: func(_ dsl.HostCtx, b []byte) error {
			fmt.Printf("g: restored %q from f\n", b)
			return nil
		}},
		dsl.Host{Label: "H2", Fn: func(dsl.HostCtx) error {
			fmt.Println("g: running H2 (the second half of the program)")
			return nil
		}},
		dsl.Retract{Target: dsl.J("f", "junction"), Prop: dsl.PR("Work")},
	).Guarded(formula.P("Work")))

	// Instances = {f : τf, g : τg}; def main ◀ start f + start g
	p.Instance("f", "tau_f").Instance("g", "tau_g")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}})

	// Print the architecture's communication topology (§8.7).
	fmt.Println("communication topology:")
	for _, e := range plan.Compile(p).Topo().Edges {
		fmt.Printf("  %s -> %s\n", e.From, e.To)
	}

	// Poll is deliberately huge: g's guard reads only local state, so its
	// driver is scheduled by the keyed-subscription wake from the arriving
	// assertion, never by the poll timer — the three invocations below
	// complete in milliseconds regardless.
	sys, err := runtime.New(p, runtime.Options{Poll: 30 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// The compiled execution plan exposes what each guard depends on.
	for fq, pj := range sys.Plan().Junctions {
		if pj.Guard != nil {
			fmt.Printf("compiled guard read-set of %s: props=%v localOnly=%t\n",
				fq, pj.Guard.Props, pj.Guard.LocalOnly())
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.RunMain(ctx); err != nil {
		log.Fatal(err)
	}
	// Application logic schedules f's (unguarded) junction; g's guarded
	// junction is runtime-driven.
	for i := 1; i <= 3; i++ {
		fmt.Printf("--- invocation %d ---\n", i)
		if err := sys.Invoke(ctx, "f", "junction"); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("done: H1;H2 executed three times across two coordinated instances")
}
