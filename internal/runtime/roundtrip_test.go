package runtime_test

import (
	"context"
	"testing"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/patterns"
	"csaw/internal/runtime"
)

// TestShardingRoundTripAllocations pins what one request costs the C-Saw
// plane in process: patterns.Sharding with one back-end, whose hooks reuse
// their buffers and so allocate nothing. The request crosses two hops — n to
// the back-end, m back to the front — and each receiving table keeps its own
// copy of the data it is sent: two allocations. Everything else is lent for
// the length of a call or owned by a compiled step: the group encodings, the
// acks, the range waiters, the wait's subscription and the bytes restore
// hands its sink.
func TestShardingRoundTripAllocations(t *testing.T) {
	req, resp := make([]byte, 64), make([]byte, 64)
	prog := patterns.Sharding(patterns.ShardingConfig{
		N:               1,
		Timeout:         10 * time.Second,
		Choose:          func(dsl.HostCtx) (int, error) { return 0, nil },
		CaptureRequest:  func(dsl.HostCtx) ([]byte, error) { return req, nil },
		HandleRequest:   func(dsl.HostCtx, []byte) ([]byte, error) { return resp, nil },
		DeliverResponse: func(dsl.HostCtx, []byte) error { return nil },
	})
	s, err := runtime.New(prog, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	request := func() {
		if err := s.Invoke(ctx, patterns.FrontInstance, patterns.ShardJunction); err != nil {
			t.Fatal(err)
		}
	}
	request()
	if n := testing.AllocsPerRun(200, request); n != 2 {
		t.Fatalf("a request allocates %v objects, want 2 (the data copy each table keeps)", n)
	}
}
