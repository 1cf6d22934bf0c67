// Command csaw-bench regenerates the paper's evaluation tables and figures
// (§10) and prints them as text series and tables.
//
// Usage:
//
//	csaw-bench [-full] [-run Fig23a,Table2] [-ticks N] [-tick 10ms] [-summary]
//	           [-trace events.jsonl] [-metrics] [-validate-trace events.jsonl]
//
// Without flags it runs every experiment with the laptop-fast configuration
// and prints full series; -summary prints per-series digests instead.
// -list prints every experiment ID; -run with an ID not on that list exits
// non-zero and runs nothing. -trace streams runtime scheduling events
// as JSONL to a file ("-" for stdout); -metrics prints per-junction counters
// and latency digests after each experiment; -validate-trace checks a JSONL
// trace file and exits (the CI smoke step).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"csaw/internal/bench"
	"csaw/internal/obsv"
)

func main() {
	var (
		full     = flag.Bool("full", false, "paper-scale run (120 ticks of 100ms)")
		run      = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		ticks    = flag.Int("ticks", 0, "override experiment length in ticks")
		tick     = flag.Duration("tick", 0, "override tick duration (one paper-second)")
		summary  = flag.Bool("summary", false, "print per-series digests instead of full series")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		trace    = flag.String("trace", "", "stream runtime trace events as JSONL to this file (\"-\" for stdout)")
		metrics  = flag.Bool("metrics", false, "print per-junction metrics after each experiment")
		validate = flag.String("validate-trace", "", "validate a JSONL trace file and exit")
	)
	flag.Parse()

	if *validate != "" {
		f, err := os.Open(*validate)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		n, err := obsv.ValidateJSONL(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: invalid after %d events: %v\n", *validate, n, err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d valid trace events\n", *validate, n)
		return
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Println(e.ID)
		}
		return
	}

	if *trace != "" {
		out := os.Stdout
		if *trace != "-" {
			f, err := os.Create(*trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		sink := obsv.NewJSONLSink(out)
		defer sink.Flush()
		bench.SetTraceSink(sink)
	}
	if *metrics {
		bench.EnableMetrics(true)
	}

	cfg := bench.Defaults()
	if *full {
		cfg.Tick = 100 * time.Millisecond
		cfg.Ticks = 120
		cfg.Keys = 20000
		cfg.CDFSamples = 10000
	}
	if *ticks > 0 {
		cfg.Ticks = *ticks
	}
	if *tick > 0 {
		cfg.Tick = *tick
	}

	want := map[string]bool{}
	if *run != "" {
		known := map[string]bool{}
		for _, e := range bench.All() {
			known[e.ID] = true
		}
		var unknown []string
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			if !known[id] {
				unknown = append(unknown, id)
			}
			want[id] = true
		}
		if len(unknown) > 0 {
			fmt.Fprintf(os.Stderr, "unknown experiment ID(s): %s; known IDs (-list):\n", strings.Join(unknown, ", "))
			for _, e := range bench.All() {
				fmt.Fprintln(os.Stderr, "  "+e.ID)
			}
			os.Exit(2)
		}
	}

	failed := 0
	for _, e := range bench.All() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		r, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: FAILED: %v\n", e.ID, err)
			failed++
			continue
		}
		if *summary {
			fmt.Print(r.Summary())
		} else {
			fmt.Print(r.Render())
		}
		if *metrics {
			for _, m := range bench.DrainMetrics() {
				m.Render(os.Stdout)
			}
		} else {
			bench.DrainMetrics()
		}
		fmt.Printf("(%s in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
