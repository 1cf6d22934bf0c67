// Package bench regenerates every table and figure of the paper's evaluation
// (§10) against the Go reproduction: the behaviour experiments of Fig. 23
// and Fig. 24 (checkpointing, sharding, caching on mini-Redis and
// mini-Suricata), the overhead experiments of Fig. 25 and Fig. 26 (cURL
// audit, Redis GET/SET latency CDFs, object-size sharding), and the effort
// comparison of Table 2.
//
// Time is scaled: one paper-second maps to one tick of Config.Tick (the
// default keeps the full suite laptop-fast). Absolute numbers therefore
// differ from the paper's testbed; the regenerated artefact is the *shape* —
// who wins, by what factor, where the dips and spikes fall.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Config scales the experiments.
type Config struct {
	// Tick is the duration standing in for one paper-second.
	Tick time.Duration
	// Ticks is the experiment length (the paper's plots span 100–120 s).
	Ticks int
	// Keys is the Redis keyspace size.
	Keys int
	// CheckpointEvery is the checkpoint interval in ticks (paper: 15 s).
	CheckpointEvery int
	// CrashAt is the tick at which the crash is injected (paper: mid-run).
	CrashAt int
	// CDFSamples is the number of latency samples per CDF variant.
	CDFSamples int
	// Timeout is the C-Saw failure deadline used by the architectures.
	Timeout time.Duration
}

const (
	// shards is the number of back-ends (paper: 4).
	shards = 4
	// valueSize is the Redis value size in bytes.
	valueSize = 64
	// seed fixes the workloads.
	seed = 1
)

// Defaults returns the laptop-fast configuration used by tests and the
// default CLI run.
func Defaults() Config {
	return Config{
		Tick:            10 * time.Millisecond,
		Ticks:           120,
		Keys:            5000,
		CheckpointEvery: 15,
		CrashAt:         60,
		CDFSamples:      2000,
		Timeout:         500 * time.Millisecond,
	}
}

func (c *Config) fill() {
	d := Defaults()
	if c.Tick <= 0 {
		c.Tick = d.Tick
	}
	if c.Ticks <= 0 {
		c.Ticks = d.Ticks
	}
	if c.Keys <= 0 {
		c.Keys = d.Keys
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = d.CheckpointEvery
	}
	if c.CrashAt <= 0 {
		c.CrashAt = d.CrashAt
	}
	if c.CDFSamples <= 0 {
		c.CDFSamples = d.CDFSamples
	}
	if c.Timeout <= 0 {
		c.Timeout = d.Timeout
	}
}

// Series is one plotted line.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Table is one printed table.
type Table struct {
	Header []string
	Rows   [][]string
}

// Result is one regenerated figure or table.
type Result struct {
	ID      string // e.g. "Fig23a"
	Caption string
	XLabel  string
	YLabel  string
	Series  []Series
	Tables  []Table
	Notes   []string
}

// Render prints the result as aligned text, one block per series/table.
func (r Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Caption)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "-- series %q (%s vs %s)\n", s.Name, r.YLabel, r.XLabel)
		for i := range s.X {
			fmt.Fprintf(&b, "   %12.3f  %12.3f\n", s.X[i], s.Y[i])
		}
	}
	for _, t := range r.Tables {
		widths := make([]int, len(t.Header))
		for i, h := range t.Header {
			widths[i] = len(h)
		}
		for _, row := range t.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		line := func(cells []string) {
			for i, c := range cells {
				fmt.Fprintf(&b, "  %-*s", widths[i], c)
			}
			b.WriteString("\n")
		}
		line(t.Header)
		for _, row := range t.Rows {
			line(row)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Summary renders a compact per-series digest (min/mean/max) used by the
// default CLI output.
func (r Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Caption)
	for _, s := range r.Series {
		if len(s.Y) == 0 {
			continue
		}
		mn, mx, sum := s.Y[0], s.Y[0], 0.0
		for _, y := range s.Y {
			if y < mn {
				mn = y
			}
			if y > mx {
				mx = y
			}
			sum += y
		}
		fmt.Fprintf(&b, "  %-28s n=%-5d min=%-12.3f mean=%-12.3f max=%-12.3f (%s)\n",
			s.Name, len(s.Y), mn, sum/float64(len(s.Y)), mx, r.YLabel)
	}
	for _, t := range r.Tables {
		sub := Result{Tables: []Table{t}}
		b.WriteString(strings.TrimPrefix(sub.Render(), "==  —  ==\n"))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// cdf converts latency samples into a cumulative-probability series.
func cdf(name string, samples []time.Duration) Series {
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s := Series{Name: name}
	for i, d := range sorted {
		s.X = append(s.X, float64(d.Microseconds())/1000) // ms, like the paper
		s.Y = append(s.Y, float64(i+1)/float64(len(sorted)))
	}
	return s
}

// percentile reads a quantile off a sorted-by-construction CDF series.
func percentile(s Series, q float64) float64 {
	if len(s.X) == 0 {
		return 0
	}
	i := int(q * float64(len(s.X)-1))
	return s.X[i]
}

// mean of a slice.
func mean(ys []float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	sum := 0.0
	for _, y := range ys {
		sum += y
	}
	return sum / float64(len(ys))
}
