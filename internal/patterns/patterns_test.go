package patterns

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/runtime"
	"csaw/internal/workload"
)

const testTimeout = 300 * time.Millisecond

func startSystem(t *testing.T, p *dsl.Program, opts runtime.Options) *runtime.System {
	t.Helper()
	sys, err := runtime.New(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// --- Snapshot (Fig. 4) ---------------------------------------------------------

type auditLog struct {
	mu      sync.Mutex
	records [][]byte
}

func (l *auditLog) add(b []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.records = append(l.records, append([]byte(nil), b...))
}

func (l *auditLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

func (l *auditLog) last() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.records) == 0 {
		return nil
	}
	return l.records[len(l.records)-1]
}

func TestSnapshotOneTime(t *testing.T) {
	var log auditLog
	var seq atomic.Int32
	prog := Snapshot(SnapshotConfig{
		Timeout: testTimeout,
		Capture: func(dsl.HostCtx) ([]byte, error) {
			return []byte(fmt.Sprintf("state-%d", seq.Add(1))), nil
		},
		Apply: func(_ dsl.HostCtx, b []byte) error { log.add(b); return nil },
	})
	sys := startSystem(t, prog, runtime.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sys.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sys.Invoke(ctx, ActInstance, SnapshotJunction); err != nil {
		t.Fatal(err)
	}
	if log.len() != 1 || string(log.last()) != "state-1" {
		t.Fatalf("audit log = %d records, last %q", log.len(), log.last())
	}
}

func TestSnapshotContinuous(t *testing.T) {
	// Use-case ③: repeated invocation captures a sequence of states.
	var log auditLog
	var seq atomic.Int32
	prog := Snapshot(SnapshotConfig{
		Timeout: testTimeout,
		Capture: func(dsl.HostCtx) ([]byte, error) {
			return []byte(fmt.Sprintf("state-%d", seq.Add(1))), nil
		},
		Apply: func(_ dsl.HostCtx, b []byte) error { log.add(b); return nil },
	})
	sys := startSystem(t, prog, runtime.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	const rounds = 10
	for i := 0; i < rounds; i++ {
		if err := sys.Invoke(ctx, ActInstance, SnapshotJunction); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if log.len() != rounds {
		t.Fatalf("audit log has %d records, want %d", log.len(), rounds)
	}
	if string(log.last()) != fmt.Sprintf("state-%d", rounds) {
		t.Fatalf("last record %q", log.last())
	}
}

func TestSnapshotAuditorDown(t *testing.T) {
	// Failure-awareness (Fig. 4 ➋): with the auditor crashed, Act's exchange
	// times out and complain() runs instead of blocking forever.
	var complained atomic.Int32
	prog := Snapshot(SnapshotConfig{
		Timeout:  100 * time.Millisecond,
		Capture:  func(dsl.HostCtx) ([]byte, error) { return []byte("s"), nil },
		Apply:    func(dsl.HostCtx, []byte) error { return nil },
		Complain: func(dsl.HostCtx) error { complained.Add(1); return nil },
	})
	sys := startSystem(t, prog, runtime.Options{})
	ctx := context.Background()
	if err := sys.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	sys.CrashInstance(AudInstance)
	if err := sys.Invoke(ctx, ActInstance, SnapshotJunction); err != nil {
		t.Fatalf("complain should have absorbed the failure: %v", err)
	}
	if complained.Load() == 0 {
		t.Fatal("complain never ran")
	}
}

// --- Sharding (Fig. 5) -----------------------------------------------------------

// shardApp is the front-end application context: a current request slot and
// per-shard hit counts.
type shardApp struct {
	mu      sync.Mutex
	current string
	resp    []byte
}

func TestShardingRoutesByKeyHash(t *testing.T) {
	const n = 4
	app := &shardApp{}
	var hits [n]atomic.Int64

	prog := Sharding(ShardingConfig{
		N:       n,
		Timeout: testTimeout,
		Choose: KeyHashChooser(n, func(dsl.HostCtx) (string, error) {
			app.mu.Lock()
			defer app.mu.Unlock()
			return app.current, nil
		}),
		CaptureRequest: func(dsl.HostCtx) ([]byte, error) {
			app.mu.Lock()
			defer app.mu.Unlock()
			return []byte(app.current), nil
		},
		HandleRequest: func(ctx dsl.HostCtx, req []byte) ([]byte, error) {
			// Each backend instance records its hits via its app context.
			idx := ctx.App().(int)
			hits[idx].Add(1)
			return []byte("echo:" + string(req)), nil
		},
		DeliverResponse: func(_ dsl.HostCtx, b []byte) error {
			app.mu.Lock()
			defer app.mu.Unlock()
			app.resp = append([]byte(nil), b...)
			return nil
		},
	})
	sys := startSystem(t, prog, runtime.Options{})
	for i := 0; i < n; i++ {
		sys.SetApp(BackInstance(i), i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sys.RunMain(ctx); err != nil {
		t.Fatal(err)
	}

	const reqs = 40
	counts := map[int]int{}
	for i := 0; i < reqs; i++ {
		key := fmt.Sprintf("key:%06d", i)
		app.mu.Lock()
		app.current = key
		app.mu.Unlock()
		if err := sys.Invoke(ctx, FrontInstance, ShardJunction); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		app.mu.Lock()
		got := string(app.resp)
		app.mu.Unlock()
		if got != "echo:"+key {
			t.Fatalf("request %d: response %q", i, got)
		}
		counts[int(workload.Djb2(key))%n]++
	}
	// Each backend's hit count must equal the hash-predicted count.
	total := 0
	for i := 0; i < n; i++ {
		if int(hits[i].Load()) != counts[i] {
			t.Errorf("shard %d: %d hits, hash predicts %d", i, hits[i].Load(), counts[i])
		}
		total += int(hits[i].Load())
	}
	if total != reqs {
		t.Fatalf("total hits %d != %d requests", total, reqs)
	}
}

func TestShardingBadChooser(t *testing.T) {
	prog := Sharding(ShardingConfig{
		N:              2,
		Timeout:        testTimeout,
		Choose:         func(dsl.HostCtx) (int, error) { return 7, nil }, // out of range
		CaptureRequest: func(dsl.HostCtx) ([]byte, error) { return []byte("x"), nil },
		HandleRequest:  func(_ dsl.HostCtx, b []byte) ([]byte, error) { return bytes.Clone(b), nil },
	})
	sys := startSystem(t, prog, runtime.Options{})
	ctx := context.Background()
	if err := sys.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sys.Invoke(ctx, FrontInstance, ShardJunction); err == nil {
		t.Fatal("out-of-range chooser accepted")
	}
}

// --- Caching (Fig. 7) ---------------------------------------------------------------

func TestCachingHitAndMiss(t *testing.T) {
	type cacheApp struct {
		mu      sync.Mutex
		store   map[string][]byte
		current string
		resp    []byte
	}
	app := &cacheApp{store: map[string][]byte{}}
	var funCalls atomic.Int32

	prog := Caching(CachingConfig{
		Timeout: testTimeout,
		CheckCacheable: func(dsl.HostCtx) (bool, error) {
			app.mu.Lock()
			defer app.mu.Unlock()
			// Requests prefixed "nc:" are non-cacheable.
			return len(app.current) < 3 || app.current[:3] != "nc:", nil
		},
		LookupCache: func(dsl.HostCtx) (bool, error) {
			app.mu.Lock()
			defer app.mu.Unlock()
			if v, ok := app.store[app.current]; ok {
				app.resp = v
				return true, nil
			}
			return false, nil
		},
		CaptureRequest: func(dsl.HostCtx) ([]byte, error) {
			app.mu.Lock()
			defer app.mu.Unlock()
			return []byte(app.current), nil
		},
		DeliverResponse: func(_ dsl.HostCtx, b []byte) error {
			app.mu.Lock()
			defer app.mu.Unlock()
			app.resp = append([]byte(nil), b...)
			return nil
		},
		UpdateCache: func(dsl.HostCtx) error {
			app.mu.Lock()
			defer app.mu.Unlock()
			app.store[app.current] = app.resp
			return nil
		},
		ComputeF: func(_ dsl.HostCtx, req []byte) ([]byte, error) {
			funCalls.Add(1)
			return []byte("F(" + string(req) + ")"), nil
		},
	})
	sys := startSystem(t, prog, runtime.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sys.RunMain(ctx); err != nil {
		t.Fatal(err)
	}

	do := func(req string) string {
		app.mu.Lock()
		app.current = req
		app.mu.Unlock()
		if err := sys.Invoke(ctx, CacheInstance, CacheJunction); err != nil {
			t.Fatalf("request %q: %v", req, err)
		}
		app.mu.Lock()
		defer app.mu.Unlock()
		return string(app.resp)
	}

	// Miss: computes and caches.
	if got := do("a"); got != "F(a)" {
		t.Fatalf("first a = %q", got)
	}
	if funCalls.Load() != 1 {
		t.Fatalf("fun calls = %d", funCalls.Load())
	}
	// Hit: served from cache, no new Fun call.
	if got := do("a"); got != "F(a)" {
		t.Fatalf("second a = %q", got)
	}
	if funCalls.Load() != 1 {
		t.Fatalf("cache hit still called Fun (%d calls)", funCalls.Load())
	}
	// Different key: miss again.
	if got := do("b"); got != "F(b)" {
		t.Fatalf("b = %q", got)
	}
	if funCalls.Load() != 2 {
		t.Fatalf("fun calls = %d", funCalls.Load())
	}
	// Non-cacheable: always computes, never cached.
	if got := do("nc:x"); got != "F(nc:x)" {
		t.Fatalf("nc:x = %q", got)
	}
	if got := do("nc:x"); got != "F(nc:x)" {
		t.Fatalf("nc:x repeat = %q", got)
	}
	if funCalls.Load() != 4 {
		t.Fatalf("non-cacheable should always call Fun: %d calls", funCalls.Load())
	}
}

// --- Parallel sharding (Fig. 6) -----------------------------------------------------

func TestParallelShardingFanOut(t *testing.T) {
	const n = 3
	var hits [n]atomic.Int64
	prog := ParallelSharding(ParallelShardingConfig{
		N:       n,
		Timeout: testTimeout,
		ChooseSet: func(dsl.HostCtx) ([]int, error) {
			return []int{0, 1, 2}, nil
		},
		CaptureRequest: func(dsl.HostCtx) ([]byte, error) { return []byte("req"), nil },
		HandleRequest: func(ctx dsl.HostCtx, req []byte) ([]byte, error) {
			hits[ctx.App().(int)].Add(1)
			return bytes.Clone(req), nil
		},
	})
	sys := startSystem(t, prog, runtime.Options{})
	for i := 0; i < n; i++ {
		sys.SetApp(BackInstance(i), i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sys.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sys.Invoke(ctx, FrontInstance, ShardJunction); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if hits[i].Load() != 1 {
			t.Errorf("backend %d hits = %d, want 1", i, hits[i].Load())
		}
	}
	// HaveAtLeastOne must be set after a successful round.
	j, err := sys.Junction(FrontInstance, ShardJunction)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := j.Table().Prop("HaveAtLeastOne"); !v {
		t.Fatal("HaveAtLeastOne not asserted")
	}
}

func TestParallelShardingSurvivesBackendFailure(t *testing.T) {
	const n = 3
	var hits [n]atomic.Int64
	var complained atomic.Int32
	prog := ParallelSharding(ParallelShardingConfig{
		N:       n,
		Timeout: 150 * time.Millisecond,
		ChooseSet: func(dsl.HostCtx) ([]int, error) {
			return []int{0, 1, 2}, nil
		},
		CaptureRequest: func(dsl.HostCtx) ([]byte, error) { return []byte("req"), nil },
		HandleRequest: func(ctx dsl.HostCtx, req []byte) ([]byte, error) {
			hits[ctx.App().(int)].Add(1)
			return bytes.Clone(req), nil
		},
		Complain: func(dsl.HostCtx) error { complained.Add(1); return nil },
	})
	sys := startSystem(t, prog, runtime.Options{})
	for i := 0; i < n; i++ {
		sys.SetApp(BackInstance(i), i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sys.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	// Kill one backend: the round must still succeed via the others.
	sys.CrashInstance(BackInstance(1))
	if err := sys.Invoke(ctx, FrontInstance, ShardJunction); err != nil {
		t.Fatal(err)
	}
	if hits[0].Load() != 1 || hits[2].Load() != 1 {
		t.Fatalf("surviving backends hits = %d, %d", hits[0].Load(), hits[2].Load())
	}
	j, _ := sys.Junction(FrontInstance, ShardJunction)
	if v, _ := j.Table().Prop("HaveAtLeastOne"); !v {
		t.Fatal("HaveAtLeastOne should hold with 2/3 backends")
	}
	// The dead backend is marked inactive.
	dead := dsl.IndexedName("ActiveBackend", BackInstance(1)+"::"+ShardJunction)
	if v, _ := j.Table().Prop(dead); v {
		t.Fatal("crashed backend still marked active")
	}
	if complained.Load() != 0 {
		t.Fatal("complain ran despite a viable backend")
	}

	// Kill the rest: now the round completes with a complaint.
	sys.CrashInstance(BackInstance(0))
	sys.CrashInstance(BackInstance(2))
	if err := sys.Invoke(ctx, FrontInstance, ShardJunction); err != nil {
		t.Fatal(err)
	}
	if complained.Load() == 0 {
		t.Fatal("complain should run when no backend is viable")
	}
}

// --- Fail-over (§7.3) -----------------------------------------------------------------

// kvApp is a tiny replicated state machine used to exercise fail-over: the
// canonical state is a counter; each request increments it.
type kvApp struct {
	mu      sync.Mutex
	pending string // client request
	state   int64  // front-side view of canonical state
	resp    string
}

type kvBackend struct {
	mu    sync.Mutex
	state int64
	serve atomic.Int64
}

func failoverProgram(t *testing.T, app *kvApp, backs []*kvBackend, timeout time.Duration) *dsl.Program {
	t.Helper()
	return Failover(FailoverConfig{
		N:       len(backs),
		Timeout: timeout,
		InitialState: func(dsl.HostCtx) ([]byte, error) {
			return []byte("0"), nil
		},
		PrepareRequest: func(dsl.HostCtx) ([]byte, error) {
			app.mu.Lock()
			defer app.mu.Unlock()
			return []byte(app.pending), nil
		},
		ApplyStateAtFront: func(_ dsl.HostCtx, b []byte) error {
			app.mu.Lock()
			defer app.mu.Unlock()
			fmt.Sscanf(string(b), "%d", &app.state)
			return nil
		},
		ApplyStateAtBack: func(ctx dsl.HostCtx, b []byte) error {
			be := ctx.App().(*kvBackend)
			be.mu.Lock()
			defer be.mu.Unlock()
			fmt.Sscanf(string(b), "%d", &be.state)
			return nil
		},
		HandleRequest: func(ctx dsl.HostCtx, req []byte) ([]byte, error) {
			be := ctx.App().(*kvBackend)
			be.mu.Lock()
			defer be.mu.Unlock()
			be.state++
			be.serve.Add(1)
			return []byte(fmt.Sprintf("%d", be.state)), nil
		},
		DeliverResponse: func(_ dsl.HostCtx, b []byte) error {
			app.mu.Lock()
			defer app.mu.Unlock()
			app.resp = string(b)
			fmt.Sscanf(string(b), "%d", &app.state)
			return nil
		},
		CaptureState: func(dsl.HostCtx) ([]byte, error) {
			app.mu.Lock()
			defer app.mu.Unlock()
			return []byte(fmt.Sprintf("%d", app.state)), nil
		},
	})
}

// waitRegistered blocks until the front-end's client junction sees n
// registered backends (Backend[b] props applied).
func waitRegistered(t *testing.T, sys *runtime.System, n int, deadline time.Duration) {
	t.Helper()
	jc, err := sys.Junction(FrontEnd, FrontClientJunction)
	if err != nil {
		t.Fatal(err)
	}
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		jc.Table().ApplyPending()
		got := 0
		for i := 0; i < n; i++ {
			b := dsl.IndexedName("Backend", FailoverBackend(i)+"::"+ServeJunction)
			if v, _ := jc.Table().Prop(b); v {
				got++
			}
		}
		if got == n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("backends never registered")
}

// failoverClient submits one request through τf::c, retrying a few times: a
// request may legitimately fail while the whole back-end set is mid
// re-registration (the front complains; the client tries again — the paper's
// availability story is about the *system* recovering, not every individual
// request succeeding).
func failoverClient(ctx context.Context, sys *runtime.System, app *kvApp, req string) (string, error) {
	jc, err := sys.Junction(FrontEnd, FrontClientJunction)
	if err != nil {
		return "", err
	}
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		app.mu.Lock()
		app.pending = req
		app.mu.Unlock()
		jc.InjectProp("Req", true)
		if lastErr = sys.InvokeWhenReady(ctx, FrontEnd, FrontClientJunction); lastErr == nil {
			app.mu.Lock()
			defer app.mu.Unlock()
			return app.resp, nil
		}
		select {
		case <-ctx.Done():
			return "", lastErr
		case <-time.After(100 * time.Millisecond):
		}
	}
	return "", lastErr
}

func TestFailoverServesAndFailsOver(t *testing.T) {
	app := &kvApp{}
	backs := []*kvBackend{{}, {}}
	prog := failoverProgram(t, app, backs, 250*time.Millisecond)
	sys := startSystem(t, prog, runtime.Options{})
	sys.SetApp(FailoverBackend(0), backs[0])
	sys.SetApp(FailoverBackend(1), backs[1])
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.RunMain(ctx); err != nil {
		t.Fatal(err)
	}

	// Wait for both backends to register, then issue the first request:
	// both backends serve it (warm replication), counter = 1.
	waitRegistered(t, sys, 2, 10*time.Second)
	resp, err := failoverClient(ctx, sys, app, "inc")
	if err != nil {
		t.Fatalf("request 1: %v", err)
	}
	if resp != "1" {
		t.Fatalf("response = %q, want 1", resp)
	}
	if backs[0].serve.Load() < 1 || backs[1].serve.Load() < 1 {
		t.Fatalf("warm replication: served %d + %d, want both", backs[0].serve.Load(), backs[1].serve.Load())
	}

	// Second request still works.
	if resp, err = failoverClient(ctx, sys, app, "inc"); err != nil || resp != "2" {
		t.Fatalf("request 2: %q, %v", resp, err)
	}

	// Crash one backend: the system continues on the survivor.
	sys.CrashInstance(FailoverBackend(1))
	if resp, err = failoverClient(ctx, sys, app, "inc"); err != nil || resp != "3" {
		t.Fatalf("request after crash: %q, %v", resp, err)
	}
	if backs[0].serve.Load() < 3 {
		t.Fatalf("survivor served %d requests, want ≥ 3", backs[0].serve.Load())
	}
}

func TestFailoverBackendRejoins(t *testing.T) {
	app := &kvApp{}
	backs := []*kvBackend{{}, {}}
	prog := failoverProgram(t, app, backs, 200*time.Millisecond)
	sys := startSystem(t, prog, runtime.Options{})
	sys.SetApp(FailoverBackend(0), backs[0])
	sys.SetApp(FailoverBackend(1), backs[1])
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	waitRegistered(t, sys, 2, 10*time.Second)
	if _, err := failoverClient(ctx, sys, app, "inc"); err != nil {
		t.Fatal(err)
	}
	// Crash and restart backend 1; it must re-register via startup (Fig. 8
	// ⑤: "the back-end attempts to register itself anew") and get the
	// canonical state resynchronized.
	sys.CrashInstance(FailoverBackend(1))
	if _, err := failoverClient(ctx, sys, app, "inc"); err != nil {
		t.Fatal(err)
	}
	// The host object outlives the crash, so its counters still hold the
	// first request: only requests served past this count are the rejoined
	// incarnation's.
	servedBefore := backs[1].serve.Load()
	if err := sys.StartInstance(FailoverBackend(1), backs[1]); err != nil {
		t.Fatal(err)
	}
	state := func() int64 {
		backs[1].mu.Lock()
		defer backs[1].mu.Unlock()
		return backs[1].state
	}
	// Give the registration cycle time to complete, then check the rejoined
	// backend serves again.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := failoverClient(ctx, sys, app, "inc"); err != nil {
			t.Fatal(err)
		}
		if backs[1].serve.Load() > servedBefore {
			// The rejoined backend processed a request after its resync. Warm
			// replicas may transiently lag by an in-flight round (the paper
			// notes the design's conservatism, §7.3); the guarantee is that
			// the replica's state never runs AHEAD of the canonical counter
			// and keeps advancing with subsequent requests.
			st := state()
			app.mu.Lock()
			canon := app.state
			app.mu.Unlock()
			if st > canon {
				t.Fatalf("rejoined backend state %d ahead of canonical %d", st, canon)
			}
			if st == 0 {
				t.Fatal("rejoined backend never resynced state")
			}
			if _, err := failoverClient(ctx, sys, app, "inc"); err != nil {
				t.Fatal(err)
			}
			if after := state(); after <= st {
				t.Fatalf("rejoined backend stopped advancing: %d → %d", st, after)
			}
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("backend never rejoined")
}

// --- Watched fail-over (§7.4) ------------------------------------------------------------

func TestWatchedFailover(t *testing.T) {
	var oServed, sServed atomic.Int64
	var mu sync.Mutex
	pending := ""
	resp := ""

	prog := WatchedFailover(WatchedFailoverConfig{
		Timeout:      250 * time.Millisecond,
		WatchBackoff: 50 * time.Millisecond,
		PrepareRequest: func(dsl.HostCtx) ([]byte, error) {
			mu.Lock()
			defer mu.Unlock()
			return []byte(pending), nil
		},
		HandleRequest: func(ctx dsl.HostCtx, req []byte) ([]byte, error) {
			if ctx.Instance() == PrimaryBackend {
				oServed.Add(1)
			} else {
				sServed.Add(1)
			}
			return []byte(ctx.Instance() + ":" + string(req)), nil
		},
		DeliverResponse: func(_ dsl.HostCtx, b []byte) error {
			mu.Lock()
			defer mu.Unlock()
			resp = string(b)
			return nil
		},
	})
	sys := startSystem(t, prog, runtime.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.RunMain(ctx); err != nil {
		t.Fatal(err)
	}

	do := func(req string) (string, error) {
		mu.Lock()
		pending = req
		mu.Unlock()
		if err := sys.InvokeWhenReady(ctx, WatchedFront, WatchedJunction); err != nil {
			return "", err
		}
		mu.Lock()
		defer mu.Unlock()
		return resp, nil
	}

	// Normal operation: o replies (preferred backend).
	got, err := do("r1")
	if err != nil {
		t.Fatal(err)
	}
	if got != "o:r1" {
		t.Fatalf("response = %q, want o:r1", got)
	}
	if oServed.Load() == 0 {
		t.Fatal("primary never served")
	}

	// Crash o: the watchdog must flip failover; s then serves.
	sys.CrashInstance(PrimaryBackend)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		got, err = do("r2")
		if err == nil && got == "s:r2" {
			return // fail-over complete
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("fail-over to s never happened (last response %q, err %v)", got, err)
}

// TestSequentialFailover exercises the paper's §7.3 suggested design
// variant: back-ends tried in order, first response wins, automatic
// fall-through to the next replica when the preferred one is down.
func TestSequentialFailover(t *testing.T) {
	app := &kvApp{}
	backs := []*kvBackend{{}, {}}
	prog := Failover(FailoverConfig{
		N:            2,
		Mode:         Sequential,
		Timeout:      250 * time.Millisecond,
		InitialState: func(dsl.HostCtx) ([]byte, error) { return []byte("0"), nil },
		PrepareRequest: func(dsl.HostCtx) ([]byte, error) {
			app.mu.Lock()
			defer app.mu.Unlock()
			return []byte(app.pending), nil
		},
		ApplyStateAtFront: func(_ dsl.HostCtx, b []byte) error {
			app.mu.Lock()
			defer app.mu.Unlock()
			fmt.Sscanf(string(b), "%d", &app.state)
			return nil
		},
		ApplyStateAtBack: func(ctx dsl.HostCtx, b []byte) error {
			be := ctx.App().(*kvBackend)
			be.mu.Lock()
			defer be.mu.Unlock()
			fmt.Sscanf(string(b), "%d", &be.state)
			return nil
		},
		HandleRequest: func(ctx dsl.HostCtx, req []byte) ([]byte, error) {
			be := ctx.App().(*kvBackend)
			be.mu.Lock()
			defer be.mu.Unlock()
			be.state++
			be.serve.Add(1)
			return []byte(fmt.Sprintf("%d", be.state)), nil
		},
		DeliverResponse: func(_ dsl.HostCtx, b []byte) error {
			app.mu.Lock()
			defer app.mu.Unlock()
			app.resp = string(b)
			fmt.Sscanf(string(b), "%d", &app.state)
			return nil
		},
		CaptureState: func(dsl.HostCtx) ([]byte, error) {
			app.mu.Lock()
			defer app.mu.Unlock()
			return []byte(fmt.Sprintf("%d", app.state)), nil
		},
	})
	sys := startSystem(t, prog, runtime.Options{})
	sys.SetApp(FailoverBackend(0), backs[0])
	sys.SetApp(FailoverBackend(1), backs[1])
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	waitRegistered(t, sys, 2, 10*time.Second)

	// Sequential mode: exactly ONE backend serves each request (the paper's
	// lower-network-overhead variant), unlike WarmAll.
	resp, err := failoverClient(ctx, sys, app, "inc")
	if err != nil {
		t.Fatal(err)
	}
	if resp != "1" {
		t.Fatalf("response = %q", resp)
	}
	if backs[0].serve.Load()+backs[1].serve.Load() != 1 {
		t.Fatalf("sequential mode engaged %d+%d backends, want exactly 1",
			backs[0].serve.Load(), backs[1].serve.Load())
	}

	// Crash the first backend: requests fall through to the second.
	sys.CrashInstance(FailoverBackend(0))
	resp, err = failoverClient(ctx, sys, app, "inc")
	if err != nil {
		t.Fatal(err)
	}
	if backs[1].serve.Load() == 0 {
		t.Fatal("sequential fall-through to the second backend never happened")
	}
}
