package bench

// "Redis(DSL)" wiring for the caching feature: host hooks connecting the
// Fig. 7 inline-cache architecture to a mini-Redis Fun instance. The cache
// store itself (a map with no eviction, matching the experiment's working
// set) lives in the host language, outside the DSL's scope (§7.2).

import (
	"context"
	"sync"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/miniredis"
	"csaw/internal/patterns"
	"csaw/internal/runtime"
	"csaw/internal/serial"
	"csaw/internal/workload"
)

// CachedRedis runs one mini-Redis behind the C-Saw caching architecture.
type CachedRedis struct {
	sys    *runtime.System
	server *miniredis.Server

	mu      sync.Mutex
	pending workload.Op
	resp    wireOp
	cache   map[string]wireOp
	hits    uint64
	misses  uint64
	reqBuf  []byte // request scratch, reusable only after a successful round

	// CachingEnabled toggles the CheckCacheable classification, giving the
	// "No Caching" baseline of Fig. 23c with the identical architecture.
	cachingEnabled bool
}

// NewCachedRedis builds the system. With enabled=false every request is
// classified non-cacheable (the Fig. 23c baseline).
func NewCachedRedis(enabled bool, timeout time.Duration) (*CachedRedis, error) {
	cr := &CachedRedis{
		server:         miniredis.NewServer(),
		cache:          map[string]wireOp{},
		cachingEnabled: enabled,
	}
	prog := patterns.Caching(patterns.CachingConfig{
		Timeout: timeout,
		CheckCacheable: func(dsl.HostCtx) (bool, error) {
			cr.mu.Lock()
			defer cr.mu.Unlock()
			// Only reads are memoizable (the function must be pure, §7.2).
			return cr.cachingEnabled && cr.pending.Get, nil
		},
		LookupCache: func(dsl.HostCtx) (bool, error) {
			cr.mu.Lock()
			defer cr.mu.Unlock()
			if r, ok := cr.cache[cr.pending.Key]; ok {
				cr.resp = r
				cr.hits++
				return true, nil
			}
			cr.misses++
			return false, nil
		},
		CaptureRequest: func(dsl.HostCtx) ([]byte, error) {
			cr.mu.Lock()
			defer cr.mu.Unlock()
			// Safe to reuse across rounds for the same reason as the sharding
			// adapter: requests are serialized through Do, and failed rounds
			// abandon the scratch (see appendWireOp).
			b, err := appendWireOp(cr.reqBuf[:0], wireOp{Get: cr.pending.Get, Key: cr.pending.Key, Value: cr.pending.Value})
			if err != nil {
				return nil, err
			}
			cr.reqBuf = b
			return b, nil
		},
		DeliverResponse: func(_ dsl.HostCtx, b []byte) error {
			op, err := decodeWireOp(b)
			if err != nil {
				return err
			}
			cr.mu.Lock()
			cr.resp = op
			// Writes invalidate any memoized read.
			if !op.Get {
				delete(cr.cache, op.Key)
			}
			cr.mu.Unlock()
			return nil
		},
		UpdateCache: func(dsl.HostCtx) error {
			cr.mu.Lock()
			defer cr.mu.Unlock()
			if cr.pending.Get {
				cr.cache[cr.pending.Key] = cr.resp
			}
			return nil
		},
		ComputeF: func(_ dsl.HostCtx, req []byte) ([]byte, error) {
			op, err := decodeWireOp(req)
			if err != nil {
				return nil, err
			}
			if op.Get {
				v, ok, err := cr.server.Get(op.Key)
				if err != nil {
					return nil, err
				}
				return serial.Marshal(wireOp{Get: true, Key: op.Key, Value: v, Found: ok})
			}
			if err := cr.server.Set(op.Key, op.Value); err != nil {
				return nil, err
			}
			return serial.Marshal(wireOp{Key: op.Key, Found: true})
		},
		Complain: func(dsl.HostCtx) error {
			cr.mu.Lock()
			cr.reqBuf = nil
			cr.mu.Unlock()
			return nil
		},
	})
	sys, err := newSystem(prog)
	if err != nil {
		return nil, err
	}
	if err := sys.RunMain(context.Background()); err != nil {
		sys.Close()
		return nil, err
	}
	cr.sys = sys
	return cr, nil
}

// Do routes one operation through the cache junction.
func (cr *CachedRedis) Do(ctx context.Context, op workload.Op) (wireOp, error) {
	cr.mu.Lock()
	cr.pending = op
	cr.mu.Unlock()
	if err := cr.sys.Invoke(ctx, patterns.CacheInstance, patterns.CacheJunction); err != nil {
		cr.mu.Lock()
		cr.reqBuf = nil // round died mid-flight: buffer may still be aliased
		cr.mu.Unlock()
		return wireOp{}, err
	}
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return cr.resp, nil
}

// Stats returns cache hit/miss counters.
func (cr *CachedRedis) Stats() (hits, misses uint64) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return cr.hits, cr.misses
}

// Server exposes the Fun-side store (for pre-population).
func (cr *CachedRedis) Server() *miniredis.Server { return cr.server }

// Close stops the system.
func (cr *CachedRedis) Close() {
	cr.sys.Close()
	cr.server.Close()
}
