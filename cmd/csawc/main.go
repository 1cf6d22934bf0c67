// Command csawc is the C-Saw architecture tool: it validates the built-in
// catalogue of architecture descriptions (the patterns of §5 and §7),
// extracts their communication topology (§8.7), renders their
// event-structure semantics (§8) as Graphviz DOT, vets them with the
// static-analysis pass suite (internal/analysis), and model-checks them with
// the bounded explicit-state checker (internal/check).
//
// Usage:
//
//	csawc -list
//	csawc -arch failover -topo        # topology DOT on stdout
//	csawc -arch snapshot -events      # event-structure DOT on stdout
//	csawc -arch sharding              # validate and summarize
//	csawc -arch failover -vet         # run the analyzer on one architecture
//	csawc -vet-all                    # vet the whole catalogue
//	csawc -vet-all -json              # ... as a JSON report
//	csawc -arch snapshot -check       # bounded model checking of one architecture
//	csawc -check-all                  # check catalogue + negative examples
//	                                  # against their annotated verdicts
//	csawc -arch x -check -check-bound 64 -check-json
//	csawc -arch sharding -cost        # static traffic model + cost findings
//	csawc -arch sharding -placement   # suggested instance relocations
//	csawc -cost-all                   # cost-vet the catalogue against its
//	                                  # annotated verdicts
//	csawc -cost-all -cost-json        # ... as a JSON report (ArchReport.Cost)
//
// -vet and -vet-all exit non-zero when any error-severity diagnostic
// survives the catalogue's recorded suppressions. -check exits non-zero on
// any deadlock or invariant violation (liveness findings are warnings), and
// -check-all additionally when an entry's verdict drifts from its
// annotation. -cost prices each entry under its recorded CostPlacement and
// exits non-zero on unsuppressed error-severity cost findings; -cost-all
// additionally enforces the annotated CostVerdict. All JSON modes share the
// analysis.ArchReport schema.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"csaw/internal/analysis"
	"csaw/internal/check"
	"csaw/internal/cost"
	"csaw/internal/dsl"
	"csaw/internal/events"
	"csaw/internal/patterns"
	"csaw/internal/plan"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list catalogue architectures")
		arch       = flag.String("arch", "", "architecture to analyze")
		topo       = flag.Bool("topo", false, "print topology (Graphviz DOT)")
		eventsOut  = flag.Bool("events", false, "print event-structure semantics (Graphviz DOT)")
		vet        = flag.Bool("vet", false, "run the static-analysis pass suite on -arch")
		vetAll     = flag.Bool("vet-all", false, "run the static-analysis pass suite on every catalogue architecture")
		jsonOut    = flag.Bool("json", false, "with -vet/-vet-all: emit the report as JSON")
		checkOne   = flag.Bool("check", false, "run the bounded model checker on -arch")
		checkAll   = flag.Bool("check-all", false, "model-check the catalogue and negative examples against their annotated verdicts")
		checkBound = flag.Int("check-bound", 0, "with -check/-check-all: schedule-length bound (0 = default)")
		checkJSON  = flag.Bool("check-json", false, "with -check/-check-all: emit the report as JSON")
		costOne    = flag.Bool("cost", false, "run the communication-cost suite on -arch")
		costAll    = flag.Bool("cost-all", false, "cost-vet every catalogue architecture against its annotated verdict")
		costJSON   = flag.Bool("cost-json", false, "with -cost/-cost-all: emit the report as JSON")
		placeOut   = flag.Bool("placement", false, "with -arch: print the optimizer's suggested instance relocations")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "csawc: unexpected argument %q (architectures are selected with -arch)\n", flag.Arg(0))
		os.Exit(2)
	}

	if *vetAll {
		os.Exit(vetArchitectures(os.Stdout, patterns.Catalogue(), *jsonOut))
	}
	if *checkAll {
		entries := append(patterns.Catalogue(), patterns.Negatives()...)
		os.Exit(checkArchitectures(os.Stdout, entries, *checkBound, *checkJSON, true))
	}
	if *costAll {
		os.Exit(costArchitectures(os.Stdout, patterns.Catalogue(), *costJSON, true, false))
	}

	if *list || *arch == "" {
		for _, e := range patterns.Catalogue() {
			fmt.Printf("%-18s %s\n", e.Name, e.Doc)
		}
		for _, e := range patterns.Negatives() {
			fmt.Printf("%-18s %s (negative example)\n", e.Name, e.Doc)
		}
		return
	}

	entry, ok := findEntry(*arch)
	if !ok {
		fmt.Fprintf(os.Stderr, "csawc: unknown architecture %q (see -list)\n", *arch)
		os.Exit(1)
	}
	if *vet {
		os.Exit(vetArchitectures(os.Stdout, []patterns.CatalogueEntry{entry}, *jsonOut))
	}
	if *checkOne {
		os.Exit(checkArchitectures(os.Stdout, []patterns.CatalogueEntry{entry}, *checkBound, *checkJSON, false))
	}
	if *costOne || *placeOut {
		os.Exit(costArchitectures(os.Stdout, []patterns.CatalogueEntry{entry}, *costJSON, false, *placeOut))
	}

	p := entry.Build()
	if err := dsl.Validate(p); err != nil {
		fmt.Fprintf(os.Stderr, "csawc: %s does not validate:\n%v\n", *arch, err)
		os.Exit(1)
	}

	switch {
	case *topo:
		fmt.Print(plan.Compile(p).Topo().Dot())
	case *eventsOut:
		s, err := events.DenoteProgram(p, events.Budget{Unfold: 1})
		if err != nil {
			fmt.Fprintf(os.Stderr, "csawc: semantics: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(s.Dot(*arch))
	default:
		pp := plan.Compile(p)
		t := pp.Topo()
		fmt.Printf("%s: valid\n", *arch)
		fmt.Printf("  types:     %d (%v)\n", len(p.Types), p.TypeNames())
		fmt.Printf("  instances: %d (%v)\n", len(p.Instances), p.InstanceNames())
		fmt.Printf("  junctions: %d, communication edges: %d\n", len(t.Nodes), len(t.Edges))
		event, polled, invoked := schedulingModes(pp)
		fmt.Printf("  scheduling: %d event-driven, %d with poll fallback, %d app-invoked\n", event, polled, invoked)
		s, err := events.DenoteProgram(p, events.Budget{Unfold: 1})
		if err != nil {
			fmt.Fprintf(os.Stderr, "csawc: semantics: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  event structure: %d events (axioms hold)\n", s.Len())
	}
}

// findEntry resolves an architecture name across the catalogue and the
// negative examples.
func findEntry(name string) (patterns.CatalogueEntry, bool) {
	if e, ok := patterns.CatalogueEntryByName(name); ok {
		return e, true
	}
	for _, e := range patterns.Negatives() {
		if e.Name == name {
			return e, true
		}
	}
	return patterns.CatalogueEntry{}, false
}

// schedulingModes classifies each junction by how the runtime will drive it,
// from the compiled plan's guard read-sets: a local-only guard schedules
// purely on keyed KV subscription wakes; a guard consulting remote state
// keeps the poll timer as a fallback; an unguarded junction only runs when
// the application invokes it.
func schedulingModes(pp *plan.Program) (event, polled, invoked int) {
	for _, pj := range pp.Junctions {
		switch {
		case pj.Guard == nil:
			invoked++
		case pj.Guard.LocalOnly():
			event++
		default:
			polled++
		}
	}
	return event, polled, invoked
}

// vetArchitectures runs the full pass suite over each entry (honouring its
// recorded suppressions) and returns the process exit code: 1 if any
// architecture fails to validate or carries an unsuppressed error-severity
// diagnostic, 0 otherwise.
func vetArchitectures(w io.Writer, entries []patterns.CatalogueEntry, asJSON bool) int {
	code := 0
	reports := make([]analysis.ArchReport, 0, len(entries))
	for _, e := range entries {
		ar := analysis.ArchReport{Arch: e.Name, Diagnostics: []analysis.Diagnostic{}}
		rep, err := analysis.Analyze(e.Build(), &analysis.Config{Suppress: e.Suppressions})
		if err != nil {
			ar.Error = err.Error()
			code = 1
		} else {
			ar.Diagnostics = append(ar.Diagnostics, rep.Diagnostics...)
			ar.Suppressed = rep.Suppressed
			if rep.Errors() > 0 {
				code = 1
			}
		}
		reports = append(reports, ar)
	}

	if asJSON {
		if err := analysis.EncodeReports(w, reports); err != nil {
			fmt.Fprintf(os.Stderr, "csawc: %v\n", err)
			return 1
		}
		return code
	}

	for _, ar := range reports {
		switch {
		case ar.Error != "":
			fmt.Fprintf(w, "%s: INVALID\n%s\n", ar.Arch, ar.Error)
		case len(ar.Diagnostics) == 0:
			fmt.Fprintf(w, "%s: clean (%d finding(s) suppressed)\n", ar.Arch, len(ar.Suppressed))
		default:
			fmt.Fprintf(w, "%s: %d finding(s), %d suppressed\n", ar.Arch, len(ar.Diagnostics), len(ar.Suppressed))
			for _, d := range ar.Diagnostics {
				fmt.Fprintf(w, "  %s\n", d.String())
			}
		}
	}
	return code
}

// costArchitectures runs the communication-cost suite over each entry: the
// cost passes under the entry's recorded CostPlacement (honouring its
// CostSuppressions), the static traffic model, and the placement optimizer
// over the unpinned instances. Exit code 1 on validation failure or an
// unsuppressed error-severity finding; with enforceVerdicts (the -cost-all
// mode) additionally when the verdict ("clean"/"findings"/"error") drifts
// from the entry's CostVerdict annotation. placeOnly trims the text output
// to the optimizer's suggestions.
func costArchitectures(w io.Writer, entries []patterns.CatalogueEntry, asJSON, enforceVerdicts, placeOnly bool) int {
	code := 0
	reports := make([]analysis.ArchReport, 0, len(entries))
	verdicts := make([]string, 0, len(entries))
	for _, e := range entries {
		ar := analysis.ArchReport{Arch: e.Name, Diagnostics: []analysis.Diagnostic{}}
		p := e.Build()
		verdict := "clean"
		if err := dsl.Validate(p); err != nil {
			ar.Error = err.Error()
			verdict = "invalid"
			code = 1
		} else {
			pp := plan.Compile(p)
			rep := analysis.AnalyzePlan(pp, &analysis.Config{
				Passes:    cost.Passes(),
				Suppress:  e.CostSuppressions,
				Placement: e.CostPlacement,
			})
			ar.Diagnostics = append(ar.Diagnostics, rep.Diagnostics...)
			ar.Suppressed = rep.Suppressed
			switch {
			case rep.Errors() > 0:
				verdict = "error"
			case len(rep.Diagnostics) > 0:
				verdict = "findings"
			}
			m := cost.Build(pp)
			cr := m.Report(e.CostPlacement)
			final, moves := cost.Optimize(m, e.CostPlacement, e.CostPins, nil)
			if len(moves) > 0 {
				cr.Moves = moves
				cr.CrossAfterMoves = cost.CrossTraffic(m, final)
			}
			ar.Cost = cr
		}
		if enforceVerdicts {
			want := e.CostVerdict
			if want == "" {
				want = "clean"
			}
			if verdict != want {
				ar.Diagnostics = append(ar.Diagnostics, analysis.Diagnostic{
					Pass: "cost", Severity: analysis.SevError, Pos: "(verdict)",
					Msg: fmt.Sprintf("cost verdict %q, annotated %q", verdict, want),
				})
				code = 1
			}
		} else if verdict == "error" {
			code = 1
		}
		reports = append(reports, ar)
		verdicts = append(verdicts, verdict)
	}

	if asJSON {
		if err := analysis.EncodeReports(w, reports); err != nil {
			fmt.Fprintf(os.Stderr, "csawc: %v\n", err)
			return 1
		}
		return code
	}

	for i, ar := range reports {
		if ar.Error != "" {
			fmt.Fprintf(w, "%s: INVALID\n%s\n", ar.Arch, ar.Error)
			continue
		}
		cr := ar.Cost
		if placeOnly {
			if len(cr.Moves) == 0 {
				fmt.Fprintf(w, "%s: placement optimal (cross-location updates/drive: %g)\n", ar.Arch, cr.CrossUpdatesPerDrive)
				continue
			}
			fmt.Fprintf(w, "%s: %d suggested move(s), cross-location updates/drive %g -> %g\n",
				ar.Arch, len(cr.Moves), cr.CrossUpdatesPerDrive, cr.CrossAfterMoves)
			for _, mv := range cr.Moves {
				fmt.Fprintf(w, "  move %s: %s -> %s (predicted delta %+g updates/drive)\n", mv.Instance, locName(mv.From), locName(mv.To), mv.Delta)
			}
			continue
		}
		fmt.Fprintf(w, "%s: %s (%d finding(s), %d suppressed; cross-location updates/drive: %g)\n",
			ar.Arch, verdicts[i], len(ar.Diagnostics), len(ar.Suppressed), cr.CrossUpdatesPerDrive)
		for _, jc := range cr.Junctions {
			fmt.Fprintf(w, "  %-22s %-14s activation=%-6g updates/firing=%-5g frames=%-5g rounds=%d\n",
				jc.FQ, jc.Guard, jc.Activation, jc.UpdatesPerFiring, jc.FramesPerFiring, jc.RoundsPerFiring)
		}
		for _, ec := range cr.Edges {
			mark := ""
			if ec.Cross {
				mark = "  [cross]"
			}
			if ec.GuardRead {
				mark += "  [guard-read]"
			}
			fmt.Fprintf(w, "  %s -> %s: %g updates/drive%s\n", ec.From, ec.To, ec.UpdatesPerDrive, mark)
		}
		for _, d := range ar.Diagnostics {
			fmt.Fprintf(w, "  %s\n", d.String())
		}
		if len(cr.Moves) > 0 {
			fmt.Fprintf(w, "  optimizer: cross-location updates/drive %g -> %g\n", cr.CrossUpdatesPerDrive, cr.CrossAfterMoves)
			for _, mv := range cr.Moves {
				fmt.Fprintf(w, "    move %s: %s -> %s (%+g)\n", mv.Instance, locName(mv.From), locName(mv.To), mv.Delta)
			}
		}
	}
	return code
}

// locName renders the empty (default) location readably.
func locName(loc string) string {
	if loc == "" {
		return "(default)"
	}
	return loc
}

// checkArchitectures model-checks each entry and returns the process exit
// code. Deadlock and invariant violations are error-severity (exit 1);
// liveness findings are warnings. With enforceVerdicts (the -check-all mode),
// the computed verdict must additionally equal the entry's annotation, so a
// checker or pattern regression fails CI even when the expected verdict is a
// non-clean one.
func checkArchitectures(w io.Writer, entries []patterns.CatalogueEntry, bound int, asJSON, enforceVerdicts bool) int {
	code := 0
	reports := make([]analysis.ArchReport, 0, len(entries))
	type outcome struct {
		res     *check.Result
		verdict string
	}
	outcomes := make([]outcome, 0, len(entries))
	for _, e := range entries {
		ar := analysis.ArchReport{Arch: e.Name, Diagnostics: []analysis.Diagnostic{}}
		res, err := check.Check(e.Build(), check.Options{Bound: bound})
		verdict := ""
		if err != nil {
			ar.Error = err.Error()
			verdict = "invalid"
			code = 1
		} else {
			verdict = check.VerdictOf(res)
			for _, v := range res.Violations {
				sev := analysis.SevError
				if v.Kind == check.Liveness {
					sev = analysis.SevWarning
				}
				pos := v.Junction
				if pos == "" {
					pos = "(program)"
				}
				ar.Diagnostics = append(ar.Diagnostics, analysis.Diagnostic{
					Pass: "check", Severity: sev, Pos: pos, Msg: v.String(),
				})
			}
		}
		if enforceVerdicts {
			want := e.CheckVerdict
			if want == "" {
				want = "clean"
			}
			if verdict != want {
				ar.Diagnostics = append(ar.Diagnostics, analysis.Diagnostic{
					Pass: "check", Severity: analysis.SevError, Pos: "(verdict)",
					Msg: fmt.Sprintf("verdict %q, annotated %q", verdict, want),
				})
				code = 1
			}
		} else {
			for _, d := range ar.Diagnostics {
				if d.Severity == analysis.SevError {
					code = 1
					break
				}
			}
		}
		reports = append(reports, ar)
		outcomes = append(outcomes, outcome{res: res, verdict: verdict})
	}

	if asJSON {
		if err := analysis.EncodeReports(w, reports); err != nil {
			fmt.Fprintf(os.Stderr, "csawc: %v\n", err)
			return 1
		}
		return code
	}

	for i, ar := range reports {
		o := outcomes[i]
		if ar.Error != "" {
			fmt.Fprintf(w, "%s: INVALID\n%s\n", ar.Arch, ar.Error)
			continue
		}
		fmt.Fprintf(w, "%s: %s (states=%d transitions=%d", ar.Arch, o.verdict, o.res.States, o.res.Transitions)
		if o.res.Truncated {
			fmt.Fprintf(w, ", truncated")
		}
		fmt.Fprintf(w, ")\n")
		for _, v := range o.res.Violations {
			fmt.Fprintf(w, "  %s\n", v)
			for _, s := range v.Trace {
				fmt.Fprintf(w, "    %s\n", s)
			}
		}
		for _, note := range o.res.Unsupported {
			fmt.Fprintf(w, "  note: %s\n", note)
		}
		for _, d := range ar.Diagnostics {
			if d.Pos == "(verdict)" {
				fmt.Fprintf(w, "  %s\n", d.String())
			}
		}
	}
	return code
}
