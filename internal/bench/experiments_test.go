package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"csaw/internal/loc"
)

// quickCfg shrinks the experiments for test time while keeping the shapes
// measurable.
func quickCfg() Config {
	return Config{
		Tick:            4 * time.Millisecond,
		Ticks:           40,
		Keys:            1500,
		ValueSize:       64,
		CheckpointEvery: 8,
		CrashAt:         20,
		Shards:          4,
		CDFSamples:      300,
		Timeout:         time.Second,
		Seed:            1,
	}
}

func TestFig23aShape(t *testing.T) {
	r, err := Fig23a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rates := r.Series[0]
	if len(rates.Y) != 40 {
		t.Fatalf("ticks = %d", len(rates.Y))
	}
	// The server keeps answering across the whole run, including after the
	// crash+recovery tick.
	post := rates.Y[21:]
	if mean(post) <= 0 {
		t.Fatal("no throughput after crash recovery")
	}
	for i, y := range rates.Y {
		if y < 0 {
			t.Fatalf("negative rate at tick %d", i)
		}
	}
	// Checkpoint markers exist.
	if len(r.Series[1].X) == 0 {
		t.Fatal("no checkpoints recorded")
	}
	if !strings.Contains(r.Render(), "Fig23a") {
		t.Fatal("render missing ID")
	}
}

func TestFig23bShardRatios(t *testing.T) {
	cfg := quickCfg()
	r, err := Fig23b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != cfg.Shards {
		t.Fatalf("series = %d", len(r.Series))
	}
	// Cumulative curves are nondecreasing and ordered by workload weight:
	// shard 1 (weight 4) ends above shard 4 (weight 1).
	finals := make([]float64, cfg.Shards)
	for i, s := range r.Series {
		for k := 1; k < len(s.Y); k++ {
			if s.Y[k] < s.Y[k-1] {
				t.Fatalf("shard %d cumulative decreased", i)
			}
		}
		finals[i] = s.Y[len(s.Y)-1]
	}
	if finals[0] <= finals[3] {
		t.Fatalf("weighted workload not reflected: finals %v", finals)
	}
	// The heaviest class should take roughly 40% of all traffic.
	total := finals[0] + finals[1] + finals[2] + finals[3]
	frac := finals[0] / total
	if frac < 0.30 || frac > 0.50 {
		t.Fatalf("heaviest shard fraction %.2f, want ≈0.4", frac)
	}
}

func TestFig23cCachingWins(t *testing.T) {
	r, err := Fig23c(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	with, without := r.Series[0], r.Series[1]
	mw, mo := mean(with.Y), mean(without.Y)
	if mw <= mo {
		t.Fatalf("caching (%.1f KQ/s) did not beat no-caching (%.1f KQ/s)", mw, mo)
	}
}

func TestFig24aRuns(t *testing.T) {
	r, err := Fig24a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if mean(r.Series[0].Y) <= 0 {
		t.Fatal("no packet throughput")
	}
	if len(r.Series[1].X) == 0 {
		t.Fatal("no checkpoints recorded")
	}
}

func TestFig24bShardBalance(t *testing.T) {
	cfg := quickCfg()
	cfg.Ticks = 20
	r, err := Fig24b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for i, s := range r.Series {
		final := s.Y[len(s.Y)-1]
		if final <= 0 {
			t.Fatalf("shard %d received no packets", i)
		}
		total += final
	}
	// 5-tuple hashing spreads traffic: no shard takes more than 60%.
	for i, s := range r.Series {
		if s.Y[len(s.Y)-1]/total > 0.6 {
			t.Fatalf("shard %d got %.0f%% of traffic", i, 100*s.Y[len(s.Y)-1]/total)
		}
	}
}

func TestFig24cOverheadShape(t *testing.T) {
	cfg := quickCfg()
	r, err := Fig24c(cfg)
	if err != nil {
		t.Fatal(err)
	}
	over := r.Series[0].Y
	med := medianOf(over)
	// Outside checkpoint ticks, overhead stays modest (paper: usually <10%);
	// allow slack for noisy CI boxes.
	if med > 2.0 {
		t.Fatalf("median overhead %.2fx, want near 1x", med)
	}
	// The restart tick must spike well above the median.
	if maxOf(over) < med*1.5 {
		t.Fatalf("no restart spike: median %.2f max %.2f", med, maxOf(over))
	}
}

func TestFig25abOverheadOrdering(t *testing.T) {
	r, err := Fig25ab(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	orig, same, cross := r.Series[0], r.Series[1], r.Series[2]
	for i := range orig.X {
		if same.Y[i] < orig.Y[i] {
			t.Fatalf("size %v: audited faster than original", orig.X[i])
		}
		if cross.Y[i] < same.Y[i] {
			t.Fatalf("size %v: cross-VM (%.4f) cheaper than same-VM (%.4f)", orig.X[i], cross.Y[i], same.Y[i])
		}
	}
	// Download time grows with file size.
	last := len(orig.Y) - 1
	if orig.Y[last] <= orig.Y[0] {
		t.Fatal("download time not increasing with size")
	}
}

func TestFig25cCDFOrdering(t *testing.T) {
	cfg := quickCfg()
	r, err := Fig25c(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 4 {
		t.Fatalf("series = %d", len(r.Series))
	}
	base := r.Series[0]
	// Baseline (unmodified Redis) has the lowest median latency; the DSL
	// variants add noticeable but bounded overhead (the paper's headline).
	// Medians at the µs scale quantize to 0.000/0.001 ms, so only flag
	// differences beyond an absolute floor of 2 µs.
	for _, s := range r.Series[1:] {
		if percentile(base, 0.5)-percentile(s, 0.5) > 0.002 {
			t.Fatalf("%s median (%.4f) implausibly below baseline (%.4f)", s.Name, percentile(s, 0.5), percentile(base, 0.5))
		}
	}
	shardKey := r.Series[2]
	if percentile(shardKey, 0.5) <= percentile(base, 0.5) {
		t.Fatalf("sharded median (%.4f ms) not above baseline (%.4f ms)", percentile(shardKey, 0.5), percentile(base, 0.5))
	}
	// CDFs are proper: X nondecreasing, Y ends at 1.
	for _, s := range r.Series {
		for i := 1; i < len(s.X); i++ {
			if s.X[i] < s.X[i-1] {
				t.Fatalf("%s: CDF not sorted", s.Name)
			}
		}
		if s.Y[len(s.Y)-1] != 1 {
			t.Fatalf("%s: CDF does not reach 1", s.Name)
		}
	}
}

func TestFig26bRuns(t *testing.T) {
	cfg := quickCfg()
	cfg.CDFSamples = 200
	r, err := Fig26b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 4 {
		t.Fatalf("series = %d", len(r.Series))
	}
}

func TestFig26aRuns(t *testing.T) {
	r, err := Fig26a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	orig := r.Series[0]
	if orig.Y[len(orig.Y)-1] <= orig.Y[0] {
		t.Fatal("large-file times not increasing")
	}
}

func TestFig26cSizeSharding(t *testing.T) {
	cfg := quickCfg()
	cfg.Ticks = 30
	r, err := Fig26c(cfg)
	if err != nil {
		t.Fatal(err)
	}
	finals := make([]float64, len(r.Series))
	for i, s := range r.Series {
		finals[i] = s.Y[len(s.Y)-1]
	}
	// The heaviest size class (weight 4) dominates the lightest.
	if finals[0] <= finals[3] {
		t.Fatalf("size-class weighting not reflected: %v", finals)
	}
}

func TestTable2(t *testing.T) {
	r, err := Table2(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 1 || len(r.Tables[0].Rows) != 3 {
		t.Fatalf("table shape wrong: %+v", r.Tables)
	}
	out := r.Render()
	for _, feature := range []string{"Checkpointing", "Sharding", "Caching"} {
		if !strings.Contains(out, feature) {
			t.Errorf("missing feature row %s", feature)
		}
	}
}

// TestExperimentsTable2IsLive: the Table 2 rows in EXPERIMENTS.md are the
// live count, so a change to a counted file must regenerate them (go run
// ./cmd/csaw-bench -run Table2).
func TestExperimentsTable2IsLive(t *testing.T) {
	root, err := loc.ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Table 2 — Effort (LoC)\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no Table 2 section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var got []string
	for _, line := range strings.Split(section, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "|") && !strings.HasPrefix(line, "| Feature ") && !strings.HasPrefix(line, "|---") {
			got = append(got, line)
		}
	}
	rows, err := loc.Table2(root)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, r := range rows {
		total := r.DSL + r.RedisGlue
		want = append(want, fmt.Sprintf("| %s | %d | %d | %d | %d | %.1f× |",
			r.Feature, r.DSL, r.RedisGlue, total, r.DirectGo, float64(r.DirectGo)/float64(total)))
	}
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Errorf("EXPERIMENTS.md Table 2 rows:\n%s\nthe live count:\n%s", g, w)
	}
}

func TestSuricataShardingOverheadRuns(t *testing.T) {
	r, err := SuricataShardingOverhead(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 1 || len(r.Tables[0].Rows) != 2 {
		t.Fatalf("table shape wrong")
	}
}

func TestAllRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		ids[e.ID] = true
	}
	for _, want := range []string{"Fig23a", "Fig23b", "Fig23c", "Fig24a", "Fig24b", "Fig24c", "Fig25ab", "Fig25c", "Fig26a", "Fig26b", "Fig26c", "Table2"} {
		if !ids[want] {
			t.Errorf("experiment %s missing from All()", want)
		}
	}
}

func TestSummaryRendering(t *testing.T) {
	r := Result{
		ID: "X", Caption: "c", YLabel: "u",
		Series: []Series{{Name: "s", X: []float64{0, 1}, Y: []float64{1, 3}}},
		Notes:  []string{"n"},
	}
	out := r.Summary()
	for _, want := range []string{"X", "mean=2", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
