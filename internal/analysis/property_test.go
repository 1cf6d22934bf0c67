package analysis_test

import (
	"fmt"
	"reflect"
	"testing"

	"csaw/internal/analysis"
	"csaw/internal/progen"
)

// TestPassSuiteOnRandomPrograms drives the full suite over generated
// programs: no pass may panic, and two runs over the same program must
// produce byte-identical reports (determinism is what makes suppressions and
// CI gating trustworthy).
func TestPassSuiteOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := progen.Program(seed)
			r1, err := analysis.Analyze(p, nil)
			if err != nil {
				t.Fatalf("generated program invalid: %v", err)
			}
			r2, err := analysis.Analyze(progen.Program(seed), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("nondeterministic report:\n%s\nvs\n%s", diagDump(r1.Diagnostics), diagDump(r2.Diagnostics))
			}
		})
	}
}
