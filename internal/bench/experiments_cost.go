package bench

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csaw/internal/analysis"
	"csaw/internal/compart"
	"csaw/internal/cost"
	"csaw/internal/dsl"
	"csaw/internal/obsv"
	"csaw/internal/patterns"
	"csaw/internal/runtime"
)

// CostValidation cross-validates the internal/cost static traffic model
// against the runtime: each drivable catalogue architecture is deployed
// across two real TCP-bridged networks per its recorded CostPlacement,
// driven for a fixed number of invocations, and the obsv remote.queued
// counters are compared per directed junction edge with the model's
// predicted updates-per-drive. The headline statistic is the Spearman rank
// correlation over all edges pooled across architectures — the model is a
// *relative* cost oracle (which edges dominate), so rank agreement is the
// claim being validated, and the experiment fails below 0.8.
//
// A second phase replays the sharding deployment after applying the
// placement optimizer's suggested moves and measures the drop in
// location-crossing updates, validating the optimizer's predicted delta
// against wire truth.
func CostValidation(cfg Config) (Result, error) {
	cfg.fill()
	// Invocations per architecture: multiple of 4 so the round-robin shard
	// chooser lands exactly evenly, clamped for the CI smoke run.
	n := cfg.Ticks
	if n < 24 {
		n = 24
	}
	if n > 96 {
		n = 96
	}
	n -= n % 4

	var table Table
	table.Header = []string{"arch", "edge", "predicted upd/drive", "measured upd/invoke"}
	predicted := Series{Name: "predicted updates/drive"}
	measured := Series{Name: "measured updates/invocation"}
	var notes []string
	var pairs [][2]float64

	for _, e := range costEntries() {
		res, err := costTrial(cfg, e, n)
		if err != nil {
			return Result{}, fmt.Errorf("%s: %w", e.name, err)
		}
		for _, row := range res.edges {
			pairs = append(pairs, [2]float64{row.predicted, row.measured})
			table.Rows = append(table.Rows, []string{
				e.name, row.from + " -> " + row.to,
				fmt.Sprintf("%.3f", row.predicted), fmt.Sprintf("%.3f", row.measured),
			})
		}
	}
	// Sort by predicted weight so the plotted series read as a ranking.
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	for i, p := range pairs {
		predicted.X = append(predicted.X, float64(i))
		predicted.Y = append(predicted.Y, p[0])
		measured.X = append(measured.X, float64(i))
		measured.Y = append(measured.Y, p[1])
	}

	rho := spearman(pairs)
	notes = append(notes, fmt.Sprintf(
		"spearman rank correlation over %d edges across %d architectures: %.3f (threshold 0.8, %d invocations each)",
		len(pairs), len(costEntries()), rho, n))
	if rho < 0.8 {
		return Result{}, fmt.Errorf("predicted/measured rank correlation %.3f below 0.8 over %d edges", rho, len(pairs))
	}

	// Placement-optimizer validation: sharding before vs after the
	// suggested moves, measured in location-crossing updates per invocation.
	entry, _ := patterns.CatalogueEntryByName("sharding")
	before, after, moves, err := costPlacementDemo(cfg, n)
	if err != nil {
		return Result{}, fmt.Errorf("placement demo: %w", err)
	}
	notes = append(notes, fmt.Sprintf(
		"placement optimizer on %s: %d move(s) cut measured cross-location updates/invocation %.3f -> %.3f (model predicted %g -> %g)",
		entry.Name, moves, before.measuredCross, after.measuredCross, before.predictedCross, after.predictedCross))
	if after.measuredCross >= before.measuredCross {
		return Result{}, fmt.Errorf("optimizer moves did not reduce measured cross-location traffic: %.3f -> %.3f",
			before.measuredCross, after.measuredCross)
	}

	return Result{
		ID: "Cost-validation",
		Caption: fmt.Sprintf("Static cost model vs obsv-measured remote updates over TCP (%d invocations per architecture)",
			n),
		XLabel: "edge (ascending predicted weight)",
		YLabel: "updates per drive/invocation",
		Series: []Series{predicted, measured},
		Tables: []Table{table},
		Notes:  notes,
	}, nil
}

// costEntry is one drivable architecture: a program builder whose host hooks
// make the steady-state path deterministic, the root junction to invoke, and
// the placement to deploy under.
type costEntry struct {
	name      string
	build     func() *dsl.Program
	placement map[string]string
	rootInst  string
	rootJn    string
}

// costEntries returns the catalogue architectures whose steady state the
// experiment can drive deterministically. The host hooks pin the runtime
// choices the static model already assumes: the shard chooser walks
// round-robin (matching the model's uniform idx spread), the cache always
// misses (the model charges the miss arm), and the parallel chooser engages
// every backend (the model counts every par arm).
func costEntries() []costEntry {
	nopSrc := func(dsl.HostCtx) ([]byte, error) { return []byte{}, nil }
	nopSink := func(dsl.HostCtx, []byte) error { return nil }
	nopHandle := func(_ dsl.HostCtx, b []byte) ([]byte, error) { return b, nil }
	t := 5 * time.Second // generous: a slow CI box must not trip retries

	var rr atomic.Int64
	snapshot, _ := patterns.CatalogueEntryByName("snapshot")
	sharding, _ := patterns.CatalogueEntryByName("sharding")
	caching, _ := patterns.CatalogueEntryByName("caching")
	parallel, _ := patterns.CatalogueEntryByName("parallel-sharding")

	return []costEntry{
		{
			name: snapshot.Name,
			build: func() *dsl.Program {
				return patterns.Snapshot(patterns.SnapshotConfig{Timeout: t, Capture: nopSrc, Apply: nopSink})
			},
			placement: snapshot.CostPlacement,
			rootInst:  patterns.ActInstance, rootJn: patterns.SnapshotJunction,
		},
		{
			name: sharding.Name,
			build: func() *dsl.Program {
				return patterns.Sharding(patterns.ShardingConfig{
					N: 4, Timeout: t,
					Choose:         func(dsl.HostCtx) (int, error) { return int(rr.Add(1)-1) % 4, nil },
					CaptureRequest: nopSrc, HandleRequest: nopHandle, DeliverResponse: nopSink,
				})
			},
			placement: sharding.CostPlacement,
			rootInst:  patterns.FrontInstance, rootJn: patterns.ShardJunction,
		},
		{
			name: caching.Name,
			build: func() *dsl.Program {
				return patterns.Caching(patterns.CachingConfig{
					Timeout:        t,
					CheckCacheable: func(dsl.HostCtx) (bool, error) { return true, nil },
					LookupCache:    func(dsl.HostCtx) (bool, error) { return false, nil },
					CaptureRequest: nopSrc, DeliverResponse: nopSink,
					UpdateCache: func(dsl.HostCtx) error { return nil },
					ComputeF:    nopHandle,
				})
			},
			placement: caching.CostPlacement,
			rootInst:  patterns.CacheInstance, rootJn: patterns.CacheJunction,
		},
		{
			name: parallel.Name,
			build: func() *dsl.Program {
				return patterns.ParallelSharding(patterns.ParallelShardingConfig{
					N: 3, Timeout: t,
					ChooseSet:      func(dsl.HostCtx) ([]int, error) { return []int{0, 1, 2}, nil },
					CaptureRequest: nopSrc, HandleRequest: nopHandle,
				})
			},
			placement: parallel.CostPlacement,
			rootInst:  patterns.FrontInstance, rootJn: patterns.ShardJunction,
		},
	}
}

// remoteCounter tallies obsv remote.queued events per (sender junction,
// receiver junction) edge. One counter serves both systems of a deployment:
// the event's Junction field is the receiving endpoint, Peer the origin.
type remoteCounter struct {
	mu     sync.Mutex
	counts map[[2]string]float64
}

func newRemoteCounter() *remoteCounter { return &remoteCounter{counts: map[[2]string]float64{}} }

// Emit implements obsv.Sink.
func (c *remoteCounter) Emit(e obsv.Event) {
	if e.Kind != obsv.EvRemoteQueued || e.Peer == "" {
		return
	}
	c.mu.Lock()
	c.counts[[2]string{e.Peer, e.Junction}]++
	c.mu.Unlock()
}

// snapshot copies the current per-edge tallies, so a caller can diff counts
// across experiment phases.
func (c *remoteCounter) snapshot() map[[2]string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[[2]string]float64, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

// costEdgeRow is one validated edge: the model's prediction next to the
// measured per-invocation count.
type costEdgeRow struct {
	from, to  string
	predicted float64
	measured  float64
	cross     bool
}

// costTrialResult is one architecture's deployment outcome.
type costTrialResult struct {
	edges          []costEdgeRow
	predictedCross float64
	measuredCross  float64
}

// costDeployment wires one architecture's two-machine split as a first-class
// runtime.Deployment over real TCP: location A (the root's machines) and
// location B each own a network served over a listener, and the directed
// uplinks are transport clients. The caller must Close the returned system
// and each closer, in order.
func costDeployment(cfg Config, e costEntry, sink obsv.Sink) (*runtime.System, *runtime.Deployment, []func(), error) {
	var closers []func()
	fail := func(err error) (*runtime.System, *runtime.Deployment, []func(), error) {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
		return nil, nil, nil, err
	}

	netA := compart.NewNetwork(cfg.Seed)
	closers = append(closers, netA.Close)
	netB := compart.NewNetwork(cfg.Seed + 1)
	closers = append(closers, netB.Close)

	lA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	srvA := compart.ServeTCP(netA, lA)
	closers = append(closers, func() { srvA.Close() })
	lB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	srvB := compart.ServeTCP(netB, lB)
	closers = append(closers, func() { srvB.Close() })

	ccfg := compart.ReconnectConfig{QueueSize: 4096}
	toB := compart.DialReconnect(srvB.Addr().String(), ccfg)
	closers = append(closers, func() { toB.Close() })
	toA := compart.DialReconnect(srvA.Addr().String(), ccfg)
	closers = append(closers, func() { toA.Close() })

	// Group instances onto the two machines: the root's location is machine
	// A, everything else machine B.
	rootLoc := e.placement[e.rootInst]
	dep := runtime.NewDeployment().
		AddLocation("A", netA).
		AddLocation("B", netB).
		Connect("A", "B", toB.Send).
		Connect("B", "A", toA.Send)
	model := e.build()
	for _, inst := range model.InstanceNames() {
		if e.placement[inst] == rootLoc {
			dep.Place(inst, "A")
		} else {
			dep.Place(inst, "B")
		}
	}

	sys, err := newSystemWith(e.build(), func(o *runtime.Options) {
		o.Deploy = dep
		o.AckTimeout = 10 * time.Second
		o.Trace = sink
	})
	if err != nil {
		return fail(err)
	}
	for _, inst := range model.InstanceNames() {
		if err := sys.StartInstance(inst, nil); err != nil {
			sys.Close()
			return fail(err)
		}
	}
	return sys, dep, closers, nil
}

// costTrial deploys one architecture split across two TCP-bridged locations
// of a single deployment per its placement, drives the root junction n
// times, and pairs the model's per-edge predictions with the measured
// remote.queued counts.
func costTrial(cfg Config, e costEntry, n int) (costTrialResult, error) {
	model := e.build()
	if err := dsl.Validate(model); err != nil {
		return costTrialResult{}, err
	}
	m := cost.Build(analysis.NewContext(model, 0))

	counter := newRemoteCounter()
	sys, dep, closers, err := costDeployment(cfg, e, counter)
	if err != nil {
		return costTrialResult{}, err
	}
	defer func() {
		sys.Close()
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()

	dctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		if err := sys.Invoke(dctx, e.rootInst, e.rootJn); err != nil {
			return costTrialResult{}, fmt.Errorf("invocation %d: %w", i, err)
		}
	}
	// Let trailing deliveries (the final response retraction's ack, queued
	// cross-bridge frames) land before the counters are read.
	time.Sleep(150 * time.Millisecond)
	if stA, stB := dep.Net("A").Stats(), dep.Net("B").Stats(); !stA.Conserved() || !stB.Conserved() {
		return costTrialResult{}, fmt.Errorf("transport counters not conserved: A %+v B %+v", stA, stB)
	}

	counter.mu.Lock()
	defer counter.mu.Unlock()
	var res costTrialResult
	for _, edge := range m.Edges {
		row := costEdgeRow{
			from:      edge.From,
			to:        edge.To,
			predicted: edge.PerDrive,
			measured:  counter.counts[[2]string{edge.From, edge.To}] / float64(n),
		}
		fromJ, toJ := m.Junctions[edge.From], m.Junctions[edge.To]
		row.cross = dep.LocationOf(fromJ.Info.Inst) != dep.LocationOf(toJ.Info.Inst)
		if row.cross {
			res.predictedCross += row.predicted
			res.measuredCross += row.measured
		}
		res.edges = append(res.edges, row)
	}
	return res, nil
}

// costPlacementDemo runs the sharding deployment under its recorded
// placement and again after applying the optimizer's moves, returning the
// two outcomes and the move count.
func costPlacementDemo(cfg Config, n int) (before, after costTrialResult, moves int, err error) {
	entries := costEntries()
	var sharding costEntry
	for _, e := range entries {
		if e.name == "sharding" {
			sharding = e
		}
	}
	cat, _ := patterns.CatalogueEntryByName("sharding")

	model := sharding.build()
	if err = dsl.Validate(model); err != nil {
		return
	}
	m := cost.Build(analysis.NewContext(model, 0))
	final, suggested := cost.Optimize(m, cat.CostPlacement, cat.CostPins, nil)
	moves = len(suggested)

	before, err = costTrial(cfg, sharding, n)
	if err != nil {
		return
	}
	moved := sharding
	moved.placement = final
	after, err = costTrial(cfg, moved, n)
	return
}

// spearman computes the Spearman rank correlation of (predicted, measured)
// pairs with average ranks for ties.
func spearman(pairs [][2]float64) float64 {
	if len(pairs) < 2 {
		return 1
	}
	xs := make([]float64, len(pairs))
	ys := make([]float64, len(pairs))
	for i, p := range pairs {
		xs[i] = p[0]
		ys[i] = p[1]
	}
	rx, ry := avgRanks(xs), avgRanks(ys)
	// Pearson over the ranks (exact under ties, unlike the d² shortcut).
	mx, my := mean(rx), mean(ry)
	var num, dx, dy float64
	for i := range rx {
		a, b := rx[i]-mx, ry[i]-my
		num += a * b
		dx += a * a
		dy += b * b
	}
	if dx == 0 || dy == 0 {
		return 0
	}
	return num / (sqrt(dx) * sqrt(dy))
}

// avgRanks assigns 1-based ranks with ties sharing their average rank.
func avgRanks(vs []float64) []float64 {
	idx := make([]int, len(vs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return vs[idx[i]] < vs[idx[j]] })
	ranks := make([]float64, len(vs))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && vs[idx[j]] == vs[idx[i]] {
			j++
		}
		avg := float64(i+j+1) / 2 // mean of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[idx[k]] = avg
		}
		i = j
	}
	return ranks
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	// Newton's method; plenty for a rank statistic.
	x := v
	for i := 0; i < 40; i++ {
		x = (x + v/x) / 2
	}
	return x
}
