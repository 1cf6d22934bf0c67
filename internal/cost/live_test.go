package cost_test

import (
	"bytes"
	"context"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csaw/internal/cost"
	"csaw/internal/dsl"
	"csaw/internal/obsv"
	"csaw/internal/patterns"
	"csaw/internal/runtime"
)

// The model prices a placement in remote updates per drive of the root
// junction. These tests hold that price to a running system: each drivable
// catalogue entry is deployed on its CostPlacement over loopback TCP
// (startOverTCP), the root is driven a fixed number of times, and the
// receivers' remote.queued trace events are tallied per directed junction
// edge. The host hooks pin the choices the model assumes, so the counts are
// exact rather than statistical.

// drives is the number of root invocations per phase: a multiple of four, so
// the round-robin shard chooser lands on every back-end equally often.
const drives = 40

// edgeTally is a trace sink counting remote.queued deliveries per (sender,
// receiver) junction edge, plus completed and aborted migrations.
type edgeTally struct {
	mu                sync.Mutex
	edges             map[[2]string]int
	migrated, aborted int
}

// Emit implements obsv.Sink.
func (et *edgeTally) Emit(e obsv.Event) {
	et.mu.Lock()
	defer et.mu.Unlock()
	switch e.Kind {
	case obsv.EvRemoteQueued:
		et.edges[[2]string{e.Peer, e.Junction}]++
	case obsv.EvMigrateResume:
		et.migrated++
	case obsv.EvMigrateAbort:
		et.aborted++
	}
}

// settle waits until every edge of want has at least its count and every
// location's transport counters are conserved — a drive's last updates land a
// moment after the root's invocation returns — then takes the edge counts and
// resets them for the next phase. Past the deadline it takes what it has, so
// the caller's exact comparison reports the shortfall.
func (et *edgeTally) settle(t *testing.T, sys *runtime.System, want map[[2]string]int) map[[2]string]int {
	t.Helper()
	dep := sys.Deployment()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		done := true
		et.mu.Lock()
		for k, n := range want {
			done = done && et.edges[k] >= n
		}
		et.mu.Unlock()
		for _, loc := range dep.Locations() {
			done = done && dep.Net(loc).Stats().Conserved()
		}
		if done {
			break
		}
	}
	for _, loc := range dep.Locations() {
		if st := dep.Net(loc).Stats(); !st.Conserved() {
			t.Errorf("location %s: transport counters not conserved: %+v", loc, st)
		}
	}
	et.mu.Lock()
	defer et.mu.Unlock()
	got := et.edges
	et.edges = map[[2]string]int{}
	return got
}

// liveEntry is one drivable catalogue architecture with its host hooks pinned
// to the model's assumptions, and the root junction that drives it.
type liveEntry struct {
	name             string
	prog             *dsl.Program
	rootInst, rootJn string
}

// liveEntries builds the catalogue architectures whose steady state can be
// driven deterministically: the shard chooser walks round-robin (the model's
// uniform idx spread), the cache always misses (the model charges the miss
// arm), and the parallel chooser engages every back-end (the model counts
// every par arm).
func liveEntries() []liveEntry {
	nopSrc := func(dsl.HostCtx) ([]byte, error) { return []byte{}, nil }
	nopSink := func(dsl.HostCtx, []byte) error { return nil }
	nopHandle := func(_ dsl.HostCtx, b []byte) ([]byte, error) { return bytes.Clone(b), nil }
	const timeout = 5 * time.Second // a slow or race-instrumented box must not trip retries
	var rr atomic.Int64
	return []liveEntry{
		{"snapshot", patterns.Snapshot(patterns.SnapshotConfig{Timeout: timeout, Capture: nopSrc, Apply: nopSink}),
			patterns.ActInstance, patterns.SnapshotJunction},
		{"sharding", patterns.Sharding(patterns.ShardingConfig{
			N: 4, Timeout: timeout,
			Choose:         func(dsl.HostCtx) (int, error) { return int(rr.Add(1)-1) % 4, nil },
			CaptureRequest: nopSrc, HandleRequest: nopHandle, DeliverResponse: nopSink,
		}), patterns.FrontInstance, patterns.ShardJunction},
		{"caching", patterns.Caching(patterns.CachingConfig{
			Timeout:        timeout,
			CheckCacheable: func(dsl.HostCtx) (bool, error) { return true, nil },
			LookupCache:    func(dsl.HostCtx) (bool, error) { return false, nil },
			CaptureRequest: nopSrc, DeliverResponse: nopSink,
			UpdateCache: func(dsl.HostCtx) error { return nil },
			ComputeF:    nopHandle,
		}), patterns.CacheInstance, patterns.CacheJunction},
		{"parallel-sharding", patterns.ParallelSharding(patterns.ParallelShardingConfig{
			N: 3, Timeout: timeout,
			ChooseSet:      func(dsl.HostCtx) ([]int, error) { return []int{0, 1, 2}, nil },
			CaptureRequest: nopSrc, HandleRequest: nopHandle,
		}), patterns.FrontInstance, patterns.ShardJunction},
	}
}

// start deploys the entry on its catalogue CostPlacement and returns the
// system, the catalogue entry, the model and the tally tracing the system.
func (e liveEntry) start(t *testing.T) (*runtime.System, patterns.CatalogueEntry, *cost.Model, *edgeTally) {
	t.Helper()
	cat, ok := patterns.CatalogueEntryByName(e.name)
	if !ok {
		t.Fatalf("catalogue entry %s missing", e.name)
	}
	model := cost.Build(mustCompile(t, e.prog))
	tally := &edgeTally{edges: map[[2]string]int{}}
	return startOverTCP(t, e.prog, cat.CostPlacement, nil, tally), cat, model, tally
}

// drive invokes the root junction drives times.
func (e liveEntry) drive(t *testing.T, sys *runtime.System) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < drives; i++ {
		if err := sys.Invoke(ctx, e.rootInst, e.rootJn); err != nil {
			t.Fatalf("drive %d: %v", i, err)
		}
	}
}

// predicted is the model's edge traffic over one phase of drives.
func predicted(m *cost.Model) map[[2]string]int {
	want := map[[2]string]int{}
	for _, edge := range m.Edges {
		want[[2]string{edge.From, edge.To}] = int(edge.PerDrive * drives)
	}
	return want
}

// TestModelPredictsMeasuredTrafficPerEdge: every edge the model prices carries
// exactly PerDrive updates per drive on the wire, and nothing crosses an edge
// the model lacks.
func TestModelPredictsMeasuredTrafficPerEdge(t *testing.T) {
	checked := 0
	for _, e := range liveEntries() {
		t.Run(e.name, func(t *testing.T) {
			sys, _, model, tally := e.start(t)
			e.drive(t, sys)
			got := tally.settle(t, sys, predicted(model))
			for _, edge := range model.Edges {
				k := [2]string{edge.From, edge.To}
				if perDrive := float64(got[k]) / drives; perDrive != edge.PerDrive {
					t.Errorf("%s -> %s: %v updates per drive measured, model predicts %v", edge.From, edge.To, perDrive, edge.PerDrive)
				}
				delete(got, k)
				checked++
			}
			for k, n := range got {
				t.Errorf("%s -> %s: %d updates measured on an edge the model lacks", k[0], k[1], n)
			}
		})
	}
	if checked != 18 {
		t.Errorf("checked %d edges across the catalogue, want 18", checked)
	}
}

// TestOptimizerMovesAppliedLive applies the placement optimizer's moves to a
// running sharding deployment, each an online migration whose state rides the
// same TCP uplinks as the workload, and requires the predicted drop in
// location-crossing traffic on the wire: 4 updates per drive with all four
// back-ends at the core, 2 once Bck3 and Bck4 join the router at the edge. A
// move planned before the reconfiguration is then stale and must be refused.
func TestOptimizerMovesAppliedLive(t *testing.T) {
	e := liveEntries()[1] // sharding
	sys, cat, model, tally := e.start(t)
	dep := sys.Deployment()
	final, moves := cost.Optimize(model, cat.CostPlacement, cat.CostPins, nil)
	if len(moves) == 0 {
		t.Fatal("optimizer suggested no moves")
	}

	// crossPerDrive sums the edges whose endpoints the placement splits.
	crossPerDrive := func(counts map[[2]string]int, placement map[string]string) float64 {
		cross := 0
		for k, n := range counts {
			from, to := model.Junctions[k[0]], model.Junctions[k[1]]
			if from == nil || to == nil {
				t.Fatalf("%s -> %s: %d updates measured on an edge the model lacks", k[0], k[1], n)
			}
			if placement[from.Info.Inst] != placement[to.Info.Inst] {
				cross += n
			}
		}
		return float64(cross) / drives
	}

	e.drive(t, sys)
	if got := crossPerDrive(tally.settle(t, sys, predicted(model)), dep.Placement()); got != 4 {
		t.Fatalf("before the moves: %v cross-location updates per drive, want 4", got)
	}

	for _, mv := range moves {
		if err := cost.ApplyMove(sys, mv); err != nil {
			t.Fatalf("applying %s %s -> %s: %v", mv.Instance, mv.From, mv.To, err)
		}
	}
	if got := dep.Placement(); !maps.Equal(got, final) {
		t.Fatalf("placement after the moves %v, optimizer planned %v", got, final)
	}

	e.drive(t, sys)
	if got := crossPerDrive(tally.settle(t, sys, predicted(model)), dep.Placement()); got != 2 {
		t.Fatalf("after the moves: %v cross-location updates per drive, want 2", got)
	}
	tally.mu.Lock()
	migrated, aborted := tally.migrated, tally.aborted
	tally.mu.Unlock()
	if migrated != len(moves) || aborted != 0 {
		t.Fatalf("traced %d completed and %d aborted migrations, want %d and 0", migrated, aborted, len(moves))
	}

	before := dep.Placement()
	err := cost.ApplyMove(sys, moves[0])
	if err == nil || !strings.Contains(err.Error(), "stale move") {
		t.Fatalf("re-applying %+v: err = %v, want the stale-move refusal", moves[0], err)
	}
	if got := dep.Placement(); !maps.Equal(got, before) {
		t.Fatalf("a refused move changed the placement: %v -> %v", before, got)
	}
}
