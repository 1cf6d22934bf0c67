// Package analysis is a pass-based static analyzer for validated C-Saw
// programs, modeled on go/analysis: named passes run over the program's one
// static pass (plan.Compile: resolved declarations, lowered ops, read/write
// facts), the §8.7 topology and §8 event structures, and report structured
// diagnostics.
//
// The analyzer exploits exactly what the paper argues makes architecture
// logic statically checkable (§4, §6): bounded expressions, explicit host
// write-sets V⃗, declaration-scoped KV state, and a denotational conflict
// relation. Passes:
//
//   - kvlifecycle: KV lifecycle — unused/write-only/constant declarations.
//   - parconflict: unordered conflicting writes to the same table key from
//     sibling Par/ParN branches, cross-checked against the event-structure
//     conflict relation (§8).
//   - reachability: junctions unreachable from any entry junction per the
//     Topo graph (§8.7), statically false case arms, never-started instances.
//   - divergence: waits without deadlines, reconsider ping-pong without
//     progress, guarded busy loops.
//   - scopecheck: Scope/Txn nesting and replication-scope misuse.
package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"csaw/internal/dsl"
	"csaw/internal/plan"
)

// Severity ranks a finding. Error-severity findings fail `csawc -vet`;
// warnings and infos are advisory.
type Severity uint8

const (
	// SevInfo is a stylistic or redundancy note.
	SevInfo Severity = iota
	// SevWarning is a likely bug that has a plausible legitimate reading.
	SevWarning
	// SevError is a defect: the program can fail or hang at runtime.
	SevError
)

// String renders the severity keyword.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", uint8(s))
	}
}

// MarshalJSON renders the severity as its keyword.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses the severity keyword.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var kw string
	if err := json.Unmarshal(b, &kw); err != nil {
		return err
	}
	switch kw {
	case "info":
		*s = SevInfo
	case "warning":
		*s = SevWarning
	case "error":
		*s = SevError
	default:
		return fmt.Errorf("analysis: unknown severity %q", kw)
	}
	return nil
}

// Diagnostic is one finding. Pos is a structural path into the program
// (the EDSL has no source positions): "inst::junction/body[2]/try/...".
type Diagnostic struct {
	Pass     string   `json:"pass"`
	Severity Severity `json:"severity"`
	Pos      string   `json:"pos"`
	Msg      string   `json:"msg"`
}

// String renders the diagnostic one-per-line, compiler style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: [%s] %s", d.Pos, d.Severity, d.Pass, d.Msg)
}

// Pass is one named analysis. Run receives the shared fact context and
// returns findings; the framework stamps Pass names and sorts output.
type Pass struct {
	Name string
	Doc  string
	Run  func(*Context) []Diagnostic
}

// All returns the full pass suite in canonical order.
func All() []*Pass {
	return []*Pass{KVLifecycle, ParConflict, Reachability, Divergence, ScopeCheck}
}

// Suppression mutes findings with a recorded reason. A finding is suppressed
// when Pass matches (empty matches every pass) and Match is a substring of
// the diagnostic's Pos or Msg.
type Suppression struct {
	Pass   string `json:"pass"`
	Match  string `json:"match"`
	Reason string `json:"reason"`
}

func (s Suppression) matches(d Diagnostic) bool {
	if s.Pass != "" && s.Pass != d.Pass {
		return false
	}
	return s.Match != "" && (strings.Contains(d.Pos, s.Match) || strings.Contains(d.Msg, s.Match))
}

// Config parameterizes a run.
type Config struct {
	// Passes to run; nil means All().
	Passes []*Pass
	// Suppress mutes matching findings (kept in Report.Suppressed).
	Suppress []Suppression
	// Placement maps instance names to deployment locations for
	// placement-aware passes (the cost suite): two instances mapped to
	// different non-empty locations are assumed to live on different machines
	// bridged by a transport. Instances absent from the map share the empty
	// location. Nil means everything is co-located.
	Placement map[string]string
}

// SuppressedDiagnostic pairs a muted finding with the reason it was muted.
type SuppressedDiagnostic struct {
	Diagnostic
	Reason string `json:"reason"`
}

// Report is the result of an analyzer run.
type Report struct {
	Diagnostics []Diagnostic           `json:"diagnostics"`
	Suppressed  []SuppressedDiagnostic `json:"suppressed,omitempty"`
}

// Errors counts error-severity findings.
func (r *Report) Errors() int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Severity == SevError {
			n++
		}
	}
	return n
}

// Empty reports whether the run produced no findings at all.
func (r *Report) Empty() bool { return len(r.Diagnostics) == 0 }

// Format writes the human-readable report.
func (r *Report) Format(w io.Writer) {
	for _, d := range r.Diagnostics {
		fmt.Fprintln(w, d)
	}
	for _, s := range r.Suppressed {
		fmt.Fprintf(w, "%s [suppressed: %s]\n", s.Diagnostic, s.Reason)
	}
}

// Analyze compiles p (plan.Compile, which checks it) and runs the configured
// passes. The returned error is non-nil only for invalid programs (static
// analysis assumes well-formedness); findings — including error-severity
// ones — are reported in the Report.
func Analyze(p *dsl.Program, cfg *Config) (*Report, error) {
	pp, err := plan.Compile(p)
	if err != nil {
		return nil, err
	}
	return AnalyzePlan(pp, cfg), nil
}

// AnalyzePlan runs the configured passes over an already compiled, valid
// program — for a caller that compiled it for its own use too.
func AnalyzePlan(pp *plan.Program, cfg *Config) *Report {
	if cfg == nil {
		cfg = &Config{}
	}
	passes := cfg.Passes
	if passes == nil {
		passes = All()
	}
	ctx := &Context{Program: pp, Placement: cfg.Placement}
	var all []Diagnostic
	for _, pass := range passes {
		ds := pass.Run(ctx)
		for i := range ds {
			ds[i].Pass = pass.Name
		}
		all = append(all, ds...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Pos != all[j].Pos {
			return all[i].Pos < all[j].Pos
		}
		if all[i].Pass != all[j].Pass {
			return all[i].Pass < all[j].Pass
		}
		if all[i].Severity != all[j].Severity {
			return all[i].Severity > all[j].Severity
		}
		return all[i].Msg < all[j].Msg
	})
	report := &Report{}
	var prev *Diagnostic
	for _, d := range all {
		if prev != nil && *prev == d {
			continue // identical finding from symmetric instances
		}
		d := d
		prev = &d
		muted := false
		for _, sup := range cfg.Suppress {
			if sup.matches(d) {
				report.Suppressed = append(report.Suppressed, SuppressedDiagnostic{Diagnostic: d, Reason: sup.Reason})
				muted = true
				break
			}
		}
		if !muted {
			report.Diagnostics = append(report.Diagnostics, d)
		}
	}
	// A suppression naming a pass outside this run can never match — almost
	// always a typo in the config (the findings it meant to mute stay live).
	known := map[string]bool{}
	for _, pass := range passes {
		known[pass.Name] = true
	}
	for _, sup := range cfg.Suppress {
		if sup.Pass != "" && !known[sup.Pass] {
			report.Diagnostics = append(report.Diagnostics, Diagnostic{
				Pass:     "suppress",
				Severity: SevWarning,
				Pos:      "(config)",
				Msg:      fmt.Sprintf("suppression %q names unknown pass %q and can never match", sup.Match, sup.Pass),
			})
		}
	}
	return report
}
