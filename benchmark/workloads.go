package main

import (
	"context"
	"fmt"
	"time"

	"csaw/internal/direct"
	"csaw/internal/dsl"
	"csaw/internal/patterns"
	"csaw/internal/runtime"
)

type archKind int

const (
	archShard archKind = iota
	archCache
	archFanout
)

// workload is one row of the ledger: an architecture, where it is deployed,
// and the traffic it receives. Why each is here is in BENCHMARK.json.
type workload struct {
	name    string
	arch    archKind
	tcp     bool // two locations over loopback TCP instead of one in-process
	migrate bool // Bck1 moves between the locations every migratePeriod
	clients int  // closed-loop client goroutines
	kv      kvParams
}

const (
	shards        = 4
	preloadKeys   = 5000
	migratePeriod = 25 * time.Millisecond
)

var workloads = []workload{
	{
		name: "shard_small", arch: archShard, clients: 1,
		kv: kvParams{keys: preloadKeys, valueSize: 64, readFrac: 0.9, shards: shards},
	},
	{
		name: "shard_large", arch: archShard, clients: 1,
		kv: kvParams{keys: preloadKeys, valueSize: 16 << 10, readFrac: 0.5, shards: shards},
	},
	{
		name: "cache_hit", arch: archCache, clients: 1,
		kv: kvParams{keys: preloadKeys, valueSize: 64, readFrac: 0.95, hotFrac: 0.1, hotProb: 0.9, shards: 1, cached: true},
	},
	{
		name: "shard_tcp", arch: archShard, tcp: true, clients: 1,
		kv: kvParams{keys: preloadKeys, valueSize: 64, readFrac: 0.9, shards: shards},
	},
	{
		name: "update_fanout", arch: archFanout, tcp: true, clients: 2,
	},
	{
		name: "reconfig", arch: archShard, tcp: true, migrate: true, clients: 1,
		kv: kvParams{keys: preloadKeys, valueSize: 64, readFrac: 0.9, shards: shards},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// side is one system under load. prepare draws the client's next request and
// verify checks its answer against the model; only execute is timed.
type side interface {
	prepare(client int)
	execute(client int) error
	verify(client int) bool
}

// rig is a side with its lifecycle: the end-of-run oracle, teardown, and for
// the DSL side the system whose counters the ledger reads.
type rig struct {
	side    side
	kv      *kvSide         // the side, on key-value workloads
	ops     func() []uint64 // operations served per back-end, on sharded stores
	sys     *system         // nil for floors
	mig     *migrator       // reconfig only
	between func()          // untimed, after every slice
	check   func() error
	close   func()
	preload time.Duration
}

// kvStore is what both the DSL stores and the internal/direct floors offer.
type kvStore interface {
	Get(key string) ([]byte, bool, error)
	Set(key string, value []byte) error
}

// kvSide drives a store from a generator and checks every answer.
type kvSide struct {
	gen   *kvGen
	store kvStore

	idx      int
	get, hit bool
	val      []byte
	found    bool
}

func (k *kvSide) prepare(int) {
	k.idx, k.get = k.gen.next()
	if !k.get {
		k.val = k.gen.stamp(k.idx)
	}
	k.hit = k.gen.predict(k.idx, k.get)
}

func (k *kvSide) execute(int) (err error) {
	key := k.gen.kt.names[k.idx]
	if k.get {
		k.val, k.found, err = k.store.Get(key)
		return err
	}
	return k.store.Set(key, k.val)
}

func (k *kvSide) verify(int) bool {
	return !k.get || k.gen.checkGet(k.idx, k.val, k.found)
}

// preload writes every key once, warms the cache with one full read pass on
// cache workloads, and ends with one verified read.
func (k *kvSide) preload() error {
	one := func(idx int, get bool) error {
		k.idx, k.get = idx, get
		if !get {
			k.val = k.gen.stamp(idx)
		}
		k.gen.predict(idx, get)
		if err := k.execute(0); err != nil {
			return err
		}
		if !k.verify(0) {
			return fmt.Errorf("preload: wrong answer for %s", k.gen.kt.names[idx])
		}
		return nil
	}
	for i := 0; i < k.gen.p.keys; i++ {
		if err := one(i, false); err != nil {
			return err
		}
	}
	if k.gen.p.cached {
		for i := 0; i < k.gen.p.keys; i++ {
			if err := one(i, true); err != nil {
				return err
			}
		}
	}
	return one(0, true)
}

func sameCounts(what string, got, want []uint64) error {
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: back-end operations %v, model predicts %v", what, got, want)
		}
	}
	return nil
}

// fanoutDSL invokes one source junction per client.
type fanoutDSL struct {
	sys   *runtime.System
	tr    *tracer
	calls [maxClients]uint64
}

func (f *fanoutDSL) prepare(int)     {}
func (f *fanoutDSL) verify(int) bool { return true }

func (f *fanoutDSL) execute(c int) error {
	s := f.tr.beginInvoke(c)
	err := f.sys.Invoke(context.Background(), sourceInst(c), pushJn)
	f.tr.end(s)
	f.calls[c]++
	return err
}

// buildDSL builds, starts and preloads the workload's architecture. tr and
// sink are nil except in the traced pass.
func buildDSL(w *workload, kt *keyTable, seed int64, tr *tracer, sink *eventSink) (*rig, error) {
	start := func(prog *dsl.Program, atB []string) (*system, error) {
		if w.tcp {
			return startTCP(prog, atB, sink, tr)
		}
		return startLocal(prog, sink)
	}
	switch w.arch {
	case archShard:
		store, prog := newShardStore(shards, tr)
		s, err := start(prog, backNames(shards))
		if err != nil {
			store.closeApp()
			return nil, err
		}
		store.sys = s.sys
		side := &kvSide{gen: newKVGen(w.kv, kt, seed), store: store}
		r := &rig{side: side, kv: side, ops: store.backendOps, sys: s, close: func() { s.close(); store.closeApp() }}
		if w.migrate {
			r.mig = &migrator{sys: s.sys, tr: tr, inst: patterns.BackInstance(0), period: migratePeriod, at: "B"}
		}
		r.check = func() error {
			if err := s.conservedErr(); err != nil {
				return err
			}
			if r.mig != nil {
				if err := r.mig.err(); err != nil {
					return err
				}
			}
			return sameCounts("dsl", store.backendOps(), side.gen.shardOps[:shards])
		}
		return r, preloadRig(r, side)
	case archCache:
		store, prog := newCacheStore(tr)
		s, err := start(prog, nil)
		if err != nil {
			store.server.Close()
			return nil, err
		}
		store.sys = s.sys
		side := &kvSide{gen: newKVGen(w.kv, kt, seed), store: store}
		r := &rig{side: side, kv: side, sys: s, close: func() { s.close(); store.server.Close() }}
		r.check = func() error {
			if err := s.conservedErr(); err != nil {
				return err
			}
			if h, m := store.stats(); h != side.gen.hits || m != side.gen.misses {
				return fmt.Errorf("dsl cache: %d hits %d misses, model predicts %d and %d", h, m, side.gen.hits, side.gen.misses)
			}
			return sameCounts("dsl cache", []uint64{store.server.Ops()}, side.gen.shardOps[:1])
		}
		return r, preloadRig(r, side)
	default:
		s, err := start(fanoutProgram(w.clients), []string{sinkInst})
		if err != nil {
			return nil, err
		}
		if tr != nil {
			for c := 0; c < w.clients; c++ {
				tr.names[c] = sourceInst(c) + "::" + pushJn
			}
		}
		side := &fanoutDSL{sys: s.sys, tr: tr}
		r := &rig{side: side, sys: s, close: s.close}
		// The sink never runs, so its queue would grow with throughput;
		// scheduling it (the guard then refuses) applies the queue instead.
		r.between = func() { _ = s.sys.Invoke(context.Background(), sinkInst, sinkJn) }
		r.check = func() error {
			if err := s.conservedErr(); err != nil {
				return err
			}
			var calls, acked, queued uint64
			for _, n := range side.calls {
				calls += n
			}
			for _, j := range s.sys.Metrics().Junctions {
				acked += j.RemoteAcked
				queued += j.RemoteQueued
			}
			if want := calls * fanoutWidth; acked != want || queued != want {
				return fmt.Errorf("fan-out: %d updates acknowledged and %d queued at the sink, %d invocations sent %d", acked, queued, calls, want)
			}
			return nil
		}
		t0 := time.Now()
		err = side.execute(0) // the first acknowledged invocation
		r.preload = time.Since(t0)
		return r, closeOnErr(r, err)
	}
}

func preloadRig(r *rig, side *kvSide) error {
	t0 := time.Now()
	err := side.preload()
	r.preload = time.Since(t0)
	return closeOnErr(r, err)
}

func closeOnErr(r *rig, err error) error {
	if err != nil {
		r.close()
	}
	return err
}

// buildFloor builds the hand-written counterpart of the workload.
func buildFloor(w *workload, kt *keyTable, seed int64) (*rig, error) {
	switch w.arch {
	case archShard:
		store := direct.NewShardedRedis(shards, hookTimeout)
		side := &kvSide{gen: newKVGen(w.kv, kt, seed), store: store}
		r := &rig{side: side, close: store.Close}
		r.check = func() error { return sameCounts("floor", store.Hits(), side.gen.shardOps[:shards]) }
		return r, preloadRig(r, side)
	case archCache:
		store := direct.NewCachedRedis(hookTimeout)
		side := &kvSide{gen: newKVGen(w.kv, kt, seed), store: store}
		r := &rig{side: side, close: store.Close}
		r.check = func() error {
			if h, m := store.Stats(); h != side.gen.hits || m != side.gen.misses {
				return fmt.Errorf("floor cache: %d hits %d misses, model predicts %d and %d", h, m, side.gen.hits, side.gen.misses)
			}
			return nil
		}
		return r, preloadRig(r, side)
	default:
		f, err := newFanoutFloor(w.clients)
		if err != nil {
			return nil, err
		}
		return &rig{side: f, close: f.close, check: f.check}, nil
	}
}
