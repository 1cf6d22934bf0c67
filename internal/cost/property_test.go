package cost_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"csaw/internal/analysis"
	"csaw/internal/cost"
	"csaw/internal/dsl"
	"csaw/internal/progen"
)

// genPlacement splits the generated instances across up to two locations,
// deterministically from the seed.
func genPlacement(seed int64, p *dsl.Program) map[string]string {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	locs := []string{"", "east", "west"}
	placement := map[string]string{}
	for _, inst := range p.InstanceNames() {
		placement[inst] = locs[r.Intn(len(locs))]
	}
	return placement
}

// TestCostSuiteOnRandomPrograms drives the cost passes, model, and optimizer
// over generated programs: nothing may panic, and two runs over the same
// program under the same placement must produce byte-identical reports —
// determinism is what makes CostSuppressions and the CI gate trustworthy.
func TestCostSuiteOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			run := func() ([]byte, *analysis.Report) {
				p := progen.Program(seed)
				placement := genPlacement(seed, p)
				rep, err := analysis.Analyze(p, &analysis.Config{Passes: cost.Passes(), Placement: placement})
				if err != nil {
					t.Fatalf("generated program invalid: %v", err)
				}
				m := cost.Build(mustCompile(t, p))
				final, moves := cost.Optimize(m, placement, nil, []string{"", "east", "west"})
				cr := m.Report(final)
				cr.Moves = moves
				cr.CrossAfterMoves = cost.CrossTraffic(m, final)
				var buf bytes.Buffer
				if err := analysis.EncodeReports(&buf, []analysis.ArchReport{{
					Arch: "generated", Diagnostics: rep.Diagnostics, Suppressed: rep.Suppressed, Cost: cr,
				}}); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes(), rep
			}
			b1, r1 := run()
			b2, r2 := run()
			if !bytes.Equal(b1, b2) {
				t.Fatalf("nondeterministic cost report:\n%s\nvs\n%s", b1, b2)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("nondeterministic diagnostics: %+v vs %+v", r1, r2)
			}
		})
	}
}
