package check_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"csaw/internal/check"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/runtime"
)

// TestMainRunsAsAtRunTime: the checker's initial state is what main leaves at
// run time, because both run it through plan.RunMain. An otherwise runs its
// handler only when its try failed, so b never starts: the runtime leaves it
// stopped and the invariant that says so holds in every state the checker
// explores. A main that fails at run time (a second start of a) is refused
// before either runs it: runtime.New and the checker both name the start.
func TestMainRunsAsAtRunTime(t *testing.T) {
	for name, tc := range map[string]struct {
		main    []dsl.Expr
		wantErr string
	}{
		"start a otherwise start b": {
			main: []dsl.Expr{dsl.OtherwiseT(dsl.Start{Instance: "a"}, 50*time.Millisecond, dsl.Start{Instance: "b"})},
		},
		"start a; start a; start b": {
			main:    []dsl.Expr{dsl.Start{Instance: "a"}, dsl.Start{Instance: "a"}, dsl.Start{Instance: "b"}},
			wantErr: "main: start a: instance already started",
		},
	} {
		t.Run(name, func(t *testing.T) {
			p := dsl.NewProgram()
			p.Type("T").Junction("j", dsl.Def(nil, dsl.Skip{}))
			p.Instance("a", "T").Instance("b", "T")
			p.SetMain(tc.main...)
			p.Invariant("b-stopped", formula.Not(dsl.Running("b::j")))

			s, err := runtime.New(p, runtime.Options{DisableDrivers: true})
			if tc.wantErr != "" {
				if !errors.Is(err, dsl.ErrInvalid) || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("runtime.New: %v, want an invalid program naming %q", err, tc.wantErr)
				}
				if _, err := check.Check(p, check.Options{}); !errors.Is(err, dsl.ErrInvalid) || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Check: %v, want an invalid program naming %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.RunMain(context.Background()); err != nil {
				t.Fatalf("RunMain: %v", err)
			}
			if !s.InstanceRunning("a") || s.InstanceRunning("b") {
				t.Fatalf("running after main: a %v, b %v; want a only", s.InstanceRunning("a"), s.InstanceRunning("b"))
			}

			res := mustCheck(t, p, check.Options{})
			if len(res.Violations) != 0 {
				t.Fatalf("the checker's main starts b: %v", res.Violations)
			}
		})
	}
}
