package bench

import (
	"fmt"

	"csaw/internal/loc"
)

// Table2 regenerates the paper's effort comparison: lines of code needed to
// support each architecture-level feature through the DSL (the reusable
// architecture expression plus the per-application junction wiring) versus
// writing the re-architecture directly in the host language with its own
// communication and synchronization plumbing.
func Table2(cfg Config) (Result, error) {
	root, err := loc.ModuleRoot("")
	if err != nil {
		return Result{}, err
	}
	rows, err := loc.Table2(root)
	if err != nil {
		return Result{}, err
	}
	t := Table{Header: []string{"Feature", "DSL (pattern)", "Redis glue", "DSL total", "Direct Go", "saving"}}
	for _, r := range rows {
		total := r.DSL + r.RedisGlue
		saving := fmt.Sprintf("%.1fx", float64(r.DirectGo)/float64(total))
		t.Rows = append(t.Rows, []string{
			r.Feature,
			fmt.Sprintf("%d", r.DSL),
			fmt.Sprintf("%d", r.RedisGlue),
			fmt.Sprintf("%d", total),
			fmt.Sprintf("%d", r.DirectGo),
			saving,
		})
	}
	return Result{
		ID:      "Table2",
		Caption: "Effort (LoC) to support software extensions: DSL vs direct implementation",
		Tables:  []Table{t},
		Notes: []string{
			"DSL patterns are reused across applications (the Suricata and cURL wiring reuse the same pattern files), amortizing the first column",
			"Direct Go re-grows per-feature communication/synchronization plumbing (direct.go), mirroring the paper's +195-line observation",
		},
	}, nil
}

// Experiment is one regenerable artefact.
type Experiment struct {
	ID  string
	Run func(Config) (Result, error)
}

// All returns every experiment of the evaluation, in the paper's order.
func All() []Experiment {
	return []Experiment{
		{"Fig23a", Fig23a},
		{"Fig23b", Fig23b},
		{"Fig23c", Fig23c},
		{"Fig24a", Fig24a},
		{"Fig24b", Fig24b},
		{"Fig24c", Fig24c},
		{"Fig25ab", Fig25ab},
		{"Fig25c", Fig25c},
		{"Fig26a", Fig26a},
		{"Fig26b", Fig26b},
		{"Fig26c", Fig26c},
		{"Table2", Table2},
		{"Suricata-sharding-overhead", SuricataShardingOverhead},
	}
}
