package analysis_test

import (
	"fmt"
	"testing"

	"csaw/internal/analysis"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/patterns"
	"csaw/internal/plan"
)

// TestCatalogueVetsClean self-applies the analyzer: every §5/§7 architecture
// in the shipped catalogue must come out clean under its recorded
// suppressions, and every recorded suppression must actually fire (no stale
// suppressions accumulating).
func TestCatalogueVetsClean(t *testing.T) {
	for _, e := range patterns.Catalogue() {
		t.Run(e.Name, func(t *testing.T) {
			rep, err := analysis.Analyze(e.Build(), &analysis.Config{Suppress: e.Suppressions})
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			for _, d := range rep.Diagnostics {
				t.Errorf("unsuppressed finding: %s", d)
			}
			fired := map[string]bool{}
			for _, s := range rep.Suppressed {
				fired[s.Reason] = true
			}
			for _, s := range e.Suppressions {
				if !fired[s.Reason] {
					t.Errorf("stale suppression (never fired): %+v", s)
				}
			}
		})
	}
}

// TestParConflictAgreesWithEventStructures cross-checks the syntactic race
// detector against the §8 denotational conflict relation on every catalogue
// junction: wherever the syntactic pass sees no semantic candidates, the
// event structure must see no races either, and every semantic candidate key
// confirmed by the event structure must come from the candidate set.
func TestParConflictAgreesWithEventStructures(t *testing.T) {
	for _, e := range patterns.Catalogue() {
		t.Run(e.Name, func(t *testing.T) {
			pp, err := plan.Compile(e.Build())
			if err != nil {
				t.Fatal(err)
			}
			for _, tj := range pp.TypeJuncs {
				cands := analysis.ParCandidates(tj)
				semantic := map[analysis.RaceKey]bool{}
				for _, cd := range cands {
					if cd.Semantic {
						semantic[cd.Key] = true
					}
				}
				races := analysis.EventRaces(tj.FQ(), tj.Def)
				for k := range races {
					if !semantic[k] {
						t.Errorf("%s: event structure races on %s but the syntactic pass has no candidate", tj.FQ(), k)
					}
				}
				// The catalogue is race-free: candidates may over-approximate,
				// but none may be confirmed.
				for k := range semantic {
					if races[k] {
						t.Errorf("%s: confirmed race %s in a catalogue architecture", tj.FQ(), k)
					}
				}
			}
		})
	}
}

// TestParConflictAgreementOnSeededRace checks the two detectors agree in the
// positive direction too: a deliberately racy junction shows the same key in
// both the candidate set and the event-structure relation.
func TestParConflictAgreementOnSeededRace(t *testing.T) {
	def := dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "P", Init: false}),
		dsl.Par{
			dsl.Assert{Prop: dsl.PR("P")},
			dsl.Retract{Prop: dsl.PR("P")},
		},
		dsl.Verify{Cond: formula.P("P")},
	)
	p := dsl.NewProgram()
	p.Type("tau").Junction("j", def)
	p.Instance("i", "tau")
	p.SetMain(dsl.Start{Instance: "i"})
	const j = "tau::j"
	pp, err := plan.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	cands := analysis.ParCandidates(pp.TypeJuncs[0])
	if len(cands) == 0 {
		t.Fatal("no syntactic candidates for a seeded race")
	}
	races := analysis.EventRaces(j, def)
	want := analysis.RaceKey{Junction: j, Key: "P"}
	if !races[want] {
		keys := make([]string, 0, len(races))
		for k := range races {
			keys = append(keys, fmt.Sprint(k))
		}
		t.Fatalf("event structure does not confirm %s (races: %v)", want, keys)
	}
	found := false
	for _, cd := range cands {
		if cd.Key == want && cd.Semantic {
			found = true
		}
	}
	if !found {
		t.Fatalf("candidate set %v does not contain %s", cands, want)
	}
}
