package runtime

import (
	"context"
	"testing"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/obsv"
)

// TestMainStartsEverythingBeforeAnyScheduling: main sets up the initial
// configuration in one step, the state the model checker explores from, so
// no junction is scheduled before main's last start, whichever arm of a par
// comes first.
func TestMainStartsEverythingBeforeAnyScheduling(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Go", Init: true}),
		dsl.Retract{Prop: dsl.PR("Go")},
	).Guarded(formula.P("Go")))
	var starts dsl.Par
	for _, inst := range []string{"a", "b", "c", "d"} {
		p.Instance(inst, "t")
		starts = append(starts, dsl.Start{Instance: inst})
	}
	p.SetMain(starts)
	ring := obsv.NewRingSink(1024)
	s := mustSystem(t, p, Options{Trace: ring})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		fired := 0
		for _, e := range ring.Events() {
			if e.Kind == obsv.EvSchedFire {
				fired++
			}
		}
		if fired == len(starts) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d junctions fired", fired, len(starts))
		}
	}
	scheduled := false
	for _, e := range ring.Events() {
		switch e.Kind {
		case obsv.EvSchedStart:
			scheduled = true
		case obsv.EvInstanceStart:
			if scheduled {
				t.Fatalf("instance %s started after a junction was scheduled", e.Junction)
			}
		}
	}
}
