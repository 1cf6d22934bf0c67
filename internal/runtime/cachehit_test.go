package runtime_test

// The cache-hit scheduling of Fig. 7: one Invoke of the caching front when
// the look-up hits — three retracts, two host hooks that each set one
// proposition, four case-arm formulas, no remote update. It is the ledger's
// cache_hit workload without the host side, so it sits beside
// BenchmarkSchedulingCompiled as the fixed cost of a scheduling. The file is
// an external test because patterns imports runtime.

import (
	"context"
	"errors"
	"testing"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/patterns"
	"csaw/internal/runtime"
)

// cacheHitSystem starts patterns.Caching with hooks that always hit. Any hook
// of the miss path failing the test would hide in an error string, so they
// fail the invocation instead.
func cacheHitSystem(tb testing.TB) *runtime.System {
	tb.Helper()
	missed := errors.New("miss path ran on a hit")
	prog := patterns.Caching(patterns.CachingConfig{
		Timeout:         time.Second,
		CheckCacheable:  func(dsl.HostCtx) (bool, error) { return true, nil },
		LookupCache:     func(dsl.HostCtx) (bool, error) { return true, nil },
		CaptureRequest:  func(dsl.HostCtx) ([]byte, error) { return nil, missed },
		DeliverResponse: func(dsl.HostCtx, []byte) error { return missed },
		UpdateCache:     func(dsl.HostCtx) error { return missed },
		ComputeF:        func(dsl.HostCtx, []byte) ([]byte, error) { return nil, missed },
	})
	s, err := runtime.New(prog, runtime.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	if err := s.RunMain(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestCacheHitSchedulingAllocatesNothing pins what binding names once buys:
// a hit resolves no name, builds no host context and formats nothing.
func TestCacheHitSchedulingAllocatesNothing(t *testing.T) {
	s := cacheHitSystem(t)
	ctx := context.Background()
	hit := func() {
		if err := s.Invoke(ctx, patterns.CacheInstance, patterns.CacheJunction); err != nil {
			t.Fatal(err)
		}
	}
	hit()
	j, err := s.Junction(patterns.CacheInstance, patterns.CacheJunction)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]bool{"Cacheable": true, "Cached": true, "NewValue": false} {
		if got, err := j.Table().Prop(name); err != nil || got != want {
			t.Fatalf("after a hit %s = %v, %v; want %v", name, got, err, want)
		}
	}
	if allocs := testing.AllocsPerRun(200, hit); allocs != 0 {
		t.Fatalf("a cache-hit scheduling allocates %v objects, want 0", allocs)
	}
}

func BenchmarkSchedulingCacheHit(b *testing.B) {
	s := cacheHitSystem(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Invoke(ctx, patterns.CacheInstance, patterns.CacheJunction); err != nil {
			b.Fatal(err)
		}
	}
}
