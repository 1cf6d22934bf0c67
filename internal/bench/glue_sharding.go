package bench

// "Redis(DSL)" wiring for the sharding feature: the junction host hooks that
// connect the reusable N-ary sharding architecture (patterns/sharding.go) to
// mini-Redis back-ends. Both sharding types of §5.2 are supported through
// the chooser: key-based (djb2) and feature-based by object size.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/miniredis"
	"csaw/internal/patterns"
	"csaw/internal/runtime"
	"csaw/internal/serial"
	"csaw/internal/workload"
)

// ShardMode selects the chooser.
type ShardMode int

// Sharding modes of §5.2.
const (
	// ShardByKey hashes the key with djb2.
	ShardByKey ShardMode = iota
	// ShardBySize quantizes object sizes into the paper's classes.
	ShardBySize
)

// ShardedRedis runs N mini-Redis instances behind the C-Saw sharding
// front-end.
type ShardedRedis struct {
	sys     *runtime.System
	servers []*miniredis.Server

	mu      sync.Mutex
	pending workload.Op
	resp    wireOp
	sizes   map[string]int // front-side key→size table (§5.2)
	reqBuf  []byte         // request scratch, reusable only after a successful round
}

// NewShardedRedis builds the system with the paper's §5.2 size classes.
func NewShardedRedis(n int, mode ShardMode, timeout time.Duration) (*ShardedRedis, error) {
	return NewShardedRedisClasses(n, mode, workload.PaperSizeClasses(), timeout)
}

// NewShardedRedisClasses builds the system with explicit size classes for
// the ShardBySize chooser.
func NewShardedRedisClasses(n int, mode ShardMode, classes []workload.SizeClass, timeout time.Duration) (*ShardedRedis, error) {
	sr := &ShardedRedis{sizes: map[string]int{}}
	for i := 0; i < n; i++ {
		sr.servers = append(sr.servers, miniredis.NewServer())
	}

	var choose func(ctx dsl.HostCtx) (int, error)
	switch mode {
	case ShardByKey:
		choose = patterns.KeyHashChooser(n, func(dsl.HostCtx) (string, error) {
			sr.mu.Lock()
			defer sr.mu.Unlock()
			return sr.pending.Key, nil
		})
	case ShardBySize:
		choose = patterns.SizeClassChooser(n, classes,
			func(dsl.HostCtx) (string, int, bool, error) {
				sr.mu.Lock()
				defer sr.mu.Unlock()
				op := sr.pending
				if !op.Get {
					// Writes are classified by the value being written; the
					// front records the size for later reads.
					sr.sizes[op.Key] = len(op.Value)
					return op.Key, len(op.Value), true, nil
				}
				size, known := sr.sizes[op.Key]
				return op.Key, size, known, nil
			})
	default:
		return nil, fmt.Errorf("bench: unknown shard mode %d", mode)
	}

	prog := patterns.Sharding(patterns.ShardingConfig{
		N:       n,
		Timeout: timeout,
		Choose:  choose,
		CaptureRequest: func(dsl.HostCtx) ([]byte, error) {
			sr.mu.Lock()
			defer sr.mu.Unlock()
			// Requests are serialized through Do, and a completed round means
			// the chosen back finished reading the previous request before
			// its response came back — so the scratch is dead and reusable
			// (see appendWireOp). Failed rounds drop it below.
			b, err := appendWireOp(sr.reqBuf[:0], wireOp{Get: sr.pending.Get, Key: sr.pending.Key, Value: sr.pending.Value})
			if err != nil {
				return nil, err
			}
			sr.reqBuf = b
			return b, nil
		},
		HandleRequest: func(ctx dsl.HostCtx, req []byte) ([]byte, error) {
			op, err := decodeWireOp(req)
			if err != nil {
				return nil, err
			}
			srv := ctx.App().(*miniredis.Server)
			if op.Get {
				v, ok, err := srv.Get(op.Key)
				if err != nil {
					return nil, err
				}
				return serial.Marshal(wireOp{Get: true, Key: op.Key, Value: v, Found: ok})
			}
			if err := srv.Set(op.Key, op.Value); err != nil {
				return nil, err
			}
			return serial.Marshal(wireOp{Key: op.Key, Found: true})
		},
		DeliverResponse: func(_ dsl.HostCtx, b []byte) error {
			op, err := decodeWireOp(b)
			if err != nil {
				return err
			}
			sr.mu.Lock()
			sr.resp = op
			sr.mu.Unlock()
			return nil
		},
		Complain: func(dsl.HostCtx) error {
			// A timed-out round may leave a straggling back still reading the
			// request bytes: abandon the scratch rather than reuse it.
			sr.mu.Lock()
			sr.reqBuf = nil
			sr.mu.Unlock()
			return nil
		},
	})

	sys, err := newSystem(prog)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		sys.SetApp(patterns.BackInstance(i), sr.servers[i])
	}
	if err := sys.RunMain(context.Background()); err != nil {
		sys.Close()
		return nil, err
	}
	sr.sys = sys
	return sr, nil
}

// Do routes one operation through the front-end junction.
func (sr *ShardedRedis) Do(ctx context.Context, op workload.Op) (wireOp, error) {
	sr.mu.Lock()
	sr.pending = op
	sr.mu.Unlock()
	if err := sr.sys.Invoke(ctx, patterns.FrontInstance, patterns.ShardJunction); err != nil {
		// The round died mid-flight (cancellation, down endpoint): the
		// request buffer may still be aliased somewhere, so abandon it.
		sr.mu.Lock()
		sr.reqBuf = nil
		sr.mu.Unlock()
		return wireOp{}, err
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return sr.resp, nil
}

// Get routes a read.
func (sr *ShardedRedis) Get(ctx context.Context, key string) ([]byte, bool, error) {
	r, err := sr.Do(ctx, workload.Op{Get: true, Key: key})
	return r.Value, r.Found, err
}

// Set routes a write.
func (sr *ShardedRedis) Set(ctx context.Context, key string, value []byte) error {
	_, err := sr.Do(ctx, workload.Op{Key: key, Value: value})
	return err
}

// ShardOps returns the per-shard operation counters.
func (sr *ShardedRedis) ShardOps() []uint64 {
	out := make([]uint64, len(sr.servers))
	for i, s := range sr.servers {
		out[i] = s.Ops()
	}
	return out
}

// Close stops the system and the back-ends.
func (sr *ShardedRedis) Close() {
	sr.sys.Close()
	for _, s := range sr.servers {
		s.Close()
	}
}
