// Command benchmark is the request ledger: it prices one application request
// through a C-Saw architecture against a hand-written floor running in the
// same process, on six workloads, and decomposes the cost per layer from
// spans it records around its own calls. See README.md.
//
//	bash benchmark/run.sh --workload shard_small --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --seed 1          every workload, both passes
//	bash benchmark/run.sh --aa              two full sets, compared against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"
)

// spec is BENCHMARK.json: the one place metric names, directions and bounds
// are declared.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// findRoot locates the checkout's root: the directory holding BENCHMARK.json,
// which is the working directory under run.sh and its parent under go test.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..")
}

func readSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// result is the last line of a run.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one pass over one workload.
type outcome struct {
	metrics           metrics // the pass's declared metrics: these go into the result line
	bases             metrics // printed beside them on an end-to-end pass, so no ratio is read without its base
	attempted, failed uint64
	err               error // an oracle assertion that did not hold
}

func (o *outcome) print(w *workload, out *os.File) {
	for _, m := range append(o.bases, o.metrics...) {
		fmt.Fprintf(out, "metric %-14s %-34s %16.6g %s\n", w.name, m.name, m.value, m.unit)
	}
	res := result{Correct: o.err == nil && o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]jsonValue{}}
	for _, m := range o.metrics {
		res.Metrics[m.name] = jsonValue{m.value, m.unit}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(out, "%s\n", line)
}

// Shares of the measured seconds in a traced run: a shortened pair protocol
// for the bases, then the traced pass; the probes take a fixed ~2 s on top.
const (
	tracedPairsShare = 0.45
	tracedPassShare  = 0.25
)

// measure runs one pass of one workload: the end-to-end protocol (trace
// false) or the per-layer one (trace true).
func measure(w *workload, seed int64, seconds float64, trace bool, root string) (*outcome, error) {
	// One P. A request is a chain of goroutine hand-offs; with a spare P the
	// scheduler sometimes wakes the next goroutine on the other core and
	// sometimes not, and on a small machine that coin flip, not the code,
	// decides the latency of both sides (README, "Why one P").
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	kt := newKeyTable(max(w.kv.keys, 1), max(w.kv.shards, 1))
	d, setupS, err := setUp(w, kt, seed)
	if err != nil {
		return nil, err
	}
	f, err := buildFloor(w, kt, seed)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("floor: %w", err)
	}
	goruntime.GC()
	pairSeconds := seconds
	if trace {
		pairSeconds = seconds * tracedPairsShare
	}
	p := runPairs(d, f, w.clients, pairSeconds)
	o := &outcome{}
	o.attempted, o.failed = p.totals()
	o.err = errors.Join(d.check(), f.check())
	preload := d.preload
	d.close()
	f.close()
	if !trace {
		o.metrics, o.bases = p.endToEnd(setupS), p.bases(preload)
		return o, nil
	}
	goruntime.GC()
	pm, err := probes(w)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	untraced := median(each(p.dsl, p50))
	t, err := tracedPass(w, kt, seed, share(seconds, tracedPassShare), untraced, pm, root)
	if err != nil {
		return nil, err
	}
	o.err = errors.Join(o.err, t.err)
	o.attempted += t.attempted
	o.failed += t.failed
	o.metrics = append(append(t.metrics, pm...), p.bases(preload)...)
	return o, nil
}

// fingerprint describes the host, so a number is never read without knowing
// what produced it.
func fingerprint(root string) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d (1 while measuring) go=%s rev=%s", cpu, goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version(), gitRev(root))
}

// gitRev reads the checked-out commit without running git.
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(root, ".git", name))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(b))
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all six, both passes)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same requests")
		seconds = flag.Float64("seconds", 0, "seconds to measure per pass (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced pass and the probes")
		aa      = flag.Bool("aa", false, "run two full end-to-end sets and fail if any metric differs by more than its bound")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace != 0, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace, aa bool) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := readSpec(root)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	fmt.Printf("host %s\n", fingerprint(root))
	fmt.Printf("load closed loop, one client (two on update_fanout), one P; TCP workloads cross the host's loopback interface, one connection per direction, no injected latency\n")
	if aa {
		return selfCheck(sp, seed, seconds, root)
	}
	ws := workloads
	passes := []bool{false, true}
	if name != "" {
		w := workloadByName(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		ws, passes = []workload{*w}, []bool{trace}
	}
	var violations []error
	for i := range ws {
		for _, tr := range passes {
			t0 := time.Now()
			o, err := measure(&ws[i], seed, seconds, tr, root)
			if err != nil {
				return fmt.Errorf("%s: %w", ws[i].name, err)
			}
			fmt.Printf("pass %s trace=%v seed=%d seconds=%g took %.1fs\n", ws[i].name, tr, seed, seconds, time.Since(t0).Seconds())
			o.print(&ws[i], os.Stdout)
			if o.err != nil {
				violations = append(violations, fmt.Errorf("%s: %w", ws[i].name, o.err))
			}
			if o.failed > 0 {
				violations = append(violations, fmt.Errorf("%s: %d of %d requests failed", ws[i].name, o.failed, o.attempted))
			}
		}
	}
	return errors.Join(violations...)
}

// selfCheck is the A/A run: the same commit measured twice must agree with
// itself within the bounds BENCHMARK.json sets.
func selfCheck(sp *spec, seed int64, seconds float64, root string) error {
	var sets [2]map[string]metrics
	for s := range sets {
		sets[s] = map[string]metrics{}
		for i := range workloads {
			o, err := measure(&workloads[i], seed, seconds, false, root)
			if err != nil {
				return fmt.Errorf("%s: %w", workloads[i].name, err)
			}
			if o.err != nil || o.failed > 0 {
				return fmt.Errorf("%s: %d failed requests, %w", workloads[i].name, o.failed, o.err)
			}
			sets[s][workloads[i].name] = o.metrics
		}
	}
	var bad []error
	for _, w := range workloads {
		for _, em := range sp.EndToEnd {
			a, b := sets[0][w.name].get(em.Name), sets[1][w.name].get(em.Name)
			diff := (b - a) / a
			if diff < 0 {
				diff = -diff
			}
			verdict := "ok"
			if diff > em.Bound && em.Name == "setup_s" {
				// An absolute time follows the machine's speed, which shifts
				// by more than this between two single runs; only medians
				// of many runs can be held to the bound.
				verdict = "outside (not gating)"
			} else if diff > em.Bound {
				verdict = "OUTSIDE"
				bad = append(bad, fmt.Errorf("%s %s: %.6g vs %.6g differ by %.1f %%, bound %.0f %%", w.name, em.Name, a, b, 100*diff, 100*em.Bound))
			}
			fmt.Printf("aa %-14s %-16s %14.6g %14.6g %6.1f%% of %3.0f%% %s\n", w.name, em.Name, a, b, 100*diff, 100*em.Bound, verdict)
		}
	}
	return errors.Join(bad...)
}
