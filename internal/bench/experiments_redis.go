package bench

import (
	"context"
	"fmt"
	"time"

	"csaw/internal/miniredis"
	"csaw/internal/workload"
)

// prepopulate fills a server with the keyspace.
func prepopulate(srv *miniredis.Server, keys, valueSize int) error {
	v := make([]byte, valueSize)
	for i := 0; i < keys; i++ {
		if err := srv.Set(fmt.Sprintf("key:%06d", i), v); err != nil {
			return err
		}
	}
	return nil
}

// Fig23a regenerates "Response of Query Rate to Checkpoints" (Redis): query
// rate over time with checkpoints at fixed intervals and a mid-run crash
// followed by recovery from the latest audited checkpoint.
func Fig23a(cfg Config) (Result, error) {
	cfg.fill()
	ctx := context.Background()

	srv := miniredis.NewServer()
	if err := prepopulate(srv, cfg.Keys, valueSize); err != nil {
		return Result{}, err
	}
	ck, err := NewCheckpointedApp(srv, cfg.Timeout)
	if err != nil {
		return Result{}, err
	}
	defer ck.Close()
	defer func() { srv.Close() }()

	stream := workload.NewKVStream(workload.KVConfig{
		Keys: cfg.Keys, ReadFraction: 0.9, ValueSize: valueSize, Seed: seed,
	})

	rates := Series{Name: "Query Rate"}
	var checkpoints Series
	checkpoints.Name = "Checkpointing"
	crashTick := -1

	for tick := 0; tick < cfg.Ticks; tick++ {
		// The tick clock starts before any checkpoint/recovery work: the
		// service is paused while its state is captured, which is exactly
		// the dip the paper's figure shows.
		deadline := time.Now().Add(cfg.Tick)
		if tick > 0 && tick%cfg.CheckpointEvery == 0 {
			if err := ck.Checkpoint(ctx); err != nil {
				return Result{}, fmt.Errorf("checkpoint at tick %d: %w", tick, err)
			}
			checkpoints.X = append(checkpoints.X, float64(tick))
			checkpoints.Y = append(checkpoints.Y, 0)
		}
		if tick == cfg.CrashAt {
			// Crash: the process dies; a replacement resumes from the last
			// audited checkpoint (the architecture-level availability story,
			// §2 "Redis ... (ii) Availability").
			srv.Close()
			srv = miniredis.NewServer()
			ck.SwapTarget(srv)
			if err := ck.Recover(); err != nil {
				return Result{}, fmt.Errorf("recovery at tick %d: %w", tick, err)
			}
			crashTick = tick
		}
		ops := 0
		for time.Now().Before(deadline) {
			op := stream.Next()
			if op.Get {
				if _, _, err := srv.Get(op.Key); err != nil {
					return Result{}, err
				}
			} else {
				if err := srv.Set(op.Key, op.Value); err != nil {
					return Result{}, err
				}
			}
			ops++
		}
		rates.X = append(rates.X, float64(tick))
		rates.Y = append(rates.Y, float64(ops)/cfg.Tick.Seconds()/1000) // KQuery/s
	}

	return Result{
		ID:      "Fig23a",
		Caption: "Response of Redis query rate to checkpoints (crash + recovery mid-run)",
		XLabel:  "time (ticks ≙ s)",
		YLabel:  "KQuery/s",
		Series:  []Series{rates, checkpoints},
		Notes: []string{
			fmt.Sprintf("checkpoints every %d ticks; crash injected at tick %d; %d snapshots audited", cfg.CheckpointEvery, crashTick, ck.Snapshots()),
		},
	}, nil
}

// Fig23b regenerates "Cumulative requests sharded by key": four mini-Redis
// shards behind the DSL front-end under an uneven workload; the cumulative
// curves separate according to the workload's class weights.
func Fig23b(cfg Config) (Result, error) {
	cfg.fill()
	ctx := context.Background()

	sr, err := NewShardedRedis(shards, ShardByKey, cfg.Timeout)
	if err != nil {
		return Result{}, err
	}
	defer sr.Close()

	// Build per-shard key pools so the uneven class weights land on distinct
	// shards (the paper "confirmed that the ratio between shards matches
	// that of the workload").
	pools := make([][]string, shards)
	for i := 0; len(pools[0]) < 64 || len(pools[1]) < 64 || len(pools[2]) < 64 || len(pools[3]) < 64; i++ {
		key := fmt.Sprintf("key:%06d", i)
		s := int(workload.Djb2(key)) % shards
		pools[s] = append(pools[s], key)
		if i > cfg.Keys*100 {
			break
		}
	}
	weights := []float64{4, 3, 2, 1}
	stream := workload.NewKVStream(workload.KVConfig{Keys: cfg.Keys, Seed: seed})
	_ = stream

	series := make([]Series, shards)
	for i := range series {
		series[i] = Series{Name: fmt.Sprintf("Shard %d", i+1)}
	}
	val := make([]byte, valueSize)
	rng := newRng(seed)
	reqPerTick := 40
	cum := make([]float64, shards)
	for tick := 0; tick < cfg.Ticks; tick++ {
		for r := 0; r < reqPerTick; r++ {
			shard := weightedPick(rng, weights)
			if shard < 0 {
				return Result{}, fmt.Errorf("bench: no positive shard weight in %v", weights)
			}
			pool := pools[shard%shards]
			key := pool[rng.Intn(len(pool))]
			if err := sr.Set(ctx, key, val); err != nil {
				return Result{}, err
			}
			cum[shard%shards]++
		}
		for i := range series {
			series[i].X = append(series[i].X, float64(tick))
			series[i].Y = append(series[i].Y, cum[i]/1000) // cumulative KReq
		}
	}

	ops := sr.ShardOps()
	notes := []string{fmt.Sprintf("per-shard server op counts: %v (weights 4:3:2:1)", ops)}
	return Result{
		ID:      "Fig23b",
		Caption: "Cumulative Redis requests sharded by key (uneven workload)",
		XLabel:  "time (ticks ≙ s)",
		YLabel:  "cumulative KReq",
		Series:  series,
		Notes:   notes,
	}, nil
}

// Fig23c regenerates "Effect of Caching on Query Rate": a 90/10-skewed
// read-heavy workload against the caching architecture, with and without the
// cache enabled.
func Fig23c(cfg Config) (Result, error) {
	cfg.fill()
	ctx := context.Background()

	run := func(enabled bool, name string) (Series, uint64, uint64, error) {
		cr, err := NewCachedRedis(enabled, cfg.Timeout)
		if err != nil {
			return Series{}, 0, 0, err
		}
		defer cr.Close()
		if err := prepopulate(cr.Server(), cfg.Keys, valueSize); err != nil {
			return Series{}, 0, 0, err
		}
		stream := workload.NewKVStream(workload.KVConfig{
			Keys: cfg.Keys, ReadFraction: 1,
			HotFraction: 0.1, HotProbability: 0.9,
			ValueSize: valueSize, Seed: seed,
		})
		s := Series{Name: name}
		for tick := 0; tick < cfg.Ticks; tick++ {
			ops := 0
			deadline := time.Now().Add(cfg.Tick)
			for time.Now().Before(deadline) {
				if _, err := cr.Do(ctx, stream.Next()); err != nil {
					return Series{}, 0, 0, err
				}
				ops++
			}
			s.X = append(s.X, float64(tick))
			s.Y = append(s.Y, float64(ops)/cfg.Tick.Seconds()/1000)
		}
		h, m := cr.Stats()
		return s, h, m, nil
	}

	with, hits, misses, err := run(true, "With Caching")
	if err != nil {
		return Result{}, err
	}
	without, _, _, err := run(false, "No Caching")
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:      "Fig23c",
		Caption: "Effect of caching on Redis query rate (90% of reads on 10% of keys)",
		XLabel:  "time (ticks ≙ s)",
		YLabel:  "KQuery/s",
		Series:  []Series{with, without},
		Notes: []string{
			fmt.Sprintf("cache hits=%d misses=%d; gain = %.1f%% mean query rate", hits, misses,
				100*(mean(with.Y)-mean(without.Y))/mean(without.Y)),
		},
	}, nil
}
