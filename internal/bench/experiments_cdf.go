package bench

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"csaw/internal/miniredis"
	"csaw/internal/workload"
)

// redisCDF collects per-operation latency CDFs for the four Redis variants
// of Fig. 25c / Fig. 26b: unmodified baseline, replication (continuous
// checkpointing), key-hash sharding and object-size sharding.
func redisCDF(cfg Config, get bool) (Result, error) {
	cfg.fill()
	ctx := context.Background()
	val := make([]byte, valueSize)
	stream := workload.NewKVStream(workload.KVConfig{Keys: cfg.Keys, ValueSize: valueSize, Seed: seed})
	keys := make([]string, cfg.CDFSamples)
	for i := range keys {
		keys[i] = stream.Next().Key
	}

	measure := func(op func(key string) error) ([]time.Duration, error) {
		out := make([]time.Duration, 0, cfg.CDFSamples)
		for _, k := range keys {
			start := time.Now()
			if err := op(k); err != nil {
				return nil, err
			}
			out = append(out, time.Since(start))
		}
		return out, nil
	}

	// Baseline: unmodified server.
	base := miniredis.NewServer()
	defer base.Close()
	if err := prepopulate(base, cfg.Keys, valueSize); err != nil {
		return Result{}, err
	}
	baseLat, err := measure(func(k string) error {
		if get {
			_, _, err := base.Get(k)
			return err
		}
		return base.Set(k, val)
	})
	if err != nil {
		return Result{}, err
	}

	// Replication: continuous checkpointing through the snapshot
	// architecture runs in the background while the client measures.
	repl := miniredis.NewServer()
	defer repl.Close()
	if err := prepopulate(repl, cfg.Keys, valueSize); err != nil {
		return Result{}, err
	}
	ck, err := NewCheckpointedApp(repl, cfg.Timeout)
	if err != nil {
		return Result{}, err
	}
	defer ck.Close()
	var stopCk atomic.Bool
	ckDone := make(chan struct{})
	go func() {
		defer close(ckDone)
		for !stopCk.Load() {
			_ = ck.Checkpoint(ctx)
			time.Sleep(5 * time.Millisecond)
		}
	}()
	replLat, err := measure(func(k string) error {
		if get {
			_, _, err := repl.Get(k)
			return err
		}
		return repl.Set(k, val)
	})
	stopCk.Store(true)
	<-ckDone
	if err != nil {
		return Result{}, err
	}

	// Sharded variants.
	shardLat := map[ShardMode][]time.Duration{}
	for _, mode := range []ShardMode{ShardByKey, ShardBySize} {
		sr, err := NewShardedRedis(shards, mode, cfg.Timeout)
		if err != nil {
			return Result{}, err
		}
		// Pre-populate through the front so the size table fills.
		rng := newRng(seed)
		classes := workload.PaperSizeClasses()
		for i := 0; i < cfg.Keys/10; i++ {
			k := fmt.Sprintf("key:%06d", i)
			v := val
			if mode == ShardBySize {
				v = workload.SizedValue(rng, classes[i%len(classes)])
			}
			if err := sr.Set(ctx, k, v); err != nil {
				sr.Close()
				return Result{}, err
			}
		}
		lat, err := measure(func(k string) error {
			if get {
				_, _, err := sr.Get(ctx, k)
				return err
			}
			return sr.Set(ctx, k, val)
		})
		sr.Close()
		if err != nil {
			return Result{}, err
		}
		shardLat[mode] = lat
	}

	op := "GET"
	id := "Fig25c"
	if !get {
		op = "SET"
		id = "Fig26b"
	}
	series := []Series{
		cdf("Baseline", baseLat),
		cdf("Replication", replLat),
		cdf("Shard by Key Hash", shardLat[ShardByKey]),
		cdf("Shard by Object Size", shardLat[ShardBySize]),
	}
	return Result{
		ID:      id,
		Caption: fmt.Sprintf("Redis %s latency CDF: baseline vs replication vs sharding variants", op),
		XLabel:  "latency (ms)",
		YLabel:  "cumulative probability",
		Series:  series,
		Notes: []string{
			fmt.Sprintf("medians (ms): baseline %.4f, replication %.4f, shard-key %.4f, shard-size %.4f",
				percentile(series[0], 0.5), percentile(series[1], 0.5),
				percentile(series[2], 0.5), percentile(series[3], 0.5)),
			fmt.Sprintf("p99.9 (ms): baseline %.3f, replication %.3f, shard-key %.3f, shard-size %.3f (the paper reports replication with the longest tail at a very small percentile)",
				percentile(series[0], 0.999), percentile(series[1], 0.999),
				percentile(series[2], 0.999), percentile(series[3], 0.999)),
		},
	}, nil
}

// Fig25c regenerates the GET latency CDF.
func Fig25c(cfg Config) (Result, error) { return redisCDF(cfg, true) }

// Fig26b regenerates the SET latency CDF (the complement of Fig. 25c).
func Fig26b(cfg Config) (Result, error) { return redisCDF(cfg, false) }

// Fig26c regenerates "Redis sharding based on object size": cumulative
// requests per shard when the workload's object sizes follow the same class
// distribution used for key-based sharding in Fig. 23b.
func Fig26c(cfg Config) (Result, error) {
	cfg.fill()
	ctx := context.Background()

	// Four disjoint size classes so the experiment exercises all four shards
	// ("we sharded data into four classes", §10.1); the §5.2 three-way
	// quantization is the first three.
	classes := []workload.SizeClass{
		{Name: "0-4KB", MinBytes: 1, MaxBytes: 4 << 10},
		{Name: "4-64KB", MinBytes: 4<<10 + 1, MaxBytes: 64 << 10},
		{Name: "64-256KB", MinBytes: 64<<10 + 1, MaxBytes: 256 << 10},
		{Name: ">256KB", MinBytes: 256<<10 + 1, MaxBytes: 512 << 10},
	}
	weights := []float64{4, 3, 2, 1}
	rng := newRng(seed)

	sr, err := NewShardedRedisClasses(shards, ShardBySize, classes, cfg.Timeout)
	if err != nil {
		return Result{}, err
	}
	defer sr.Close()

	series := make([]Series, shards)
	for i := range series {
		series[i] = Series{Name: fmt.Sprintf("Shard %d", i+1)}
	}
	cum := make([]float64, shards)
	reqPerTick := 20
	keyID := 0
	for tick := 0; tick < cfg.Ticks; tick++ {
		for r := 0; r < reqPerTick; r++ {
			class := weightedPick(rng, weights)
			if class < 0 {
				return Result{}, fmt.Errorf("bench: no positive class weight in %v", weights)
			}
			v := workload.SizedValue(rng, classes[class])
			key := fmt.Sprintf("size:%06d", keyID)
			keyID++
			if err := sr.Set(ctx, key, v); err != nil {
				return Result{}, err
			}
			cum[class%shards]++
		}
		for i := range series {
			series[i].X = append(series[i].X, float64(tick))
			series[i].Y = append(series[i].Y, cum[i]/1000)
		}
	}
	return Result{
		ID:      "Fig26c",
		Caption: "Redis sharding by object size (four disjoint size classes, one shard each)",
		XLabel:  "time (ticks ≙ s)",
		YLabel:  "cumulative KReq",
		Series:  series,
		Notes:   []string{fmt.Sprintf("per-shard server op counts: %v", sr.ShardOps())},
	}, nil
}
