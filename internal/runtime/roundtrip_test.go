package runtime_test

import (
	"context"
	"testing"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/patterns"
	"csaw/internal/runtime"
)

// shardingRequest starts patterns.Sharding with one back-end in process and
// returns one request. The k-th request sends reqs[k%len(reqs)] and is
// answered with resps[k%len(resps)]; the hooks hand out those slices and
// keep nothing, so they allocate nothing.
func shardingRequest(t *testing.T, reqs, resps [][]byte) func() {
	t.Helper()
	k := 0
	prog := patterns.Sharding(patterns.ShardingConfig{
		N:              1,
		Timeout:        10 * time.Second,
		Choose:         func(dsl.HostCtx) (int, error) { return 0, nil },
		CaptureRequest: func(dsl.HostCtx) ([]byte, error) { return reqs[k%len(reqs)], nil },
		HandleRequest: func(_ dsl.HostCtx, req []byte) ([]byte, error) {
			if want := reqs[k%len(reqs)]; len(req) != len(want) {
				t.Errorf("request %d: the back-end restored %d bytes, want %d", k, len(req), len(want))
			}
			return resps[k%len(resps)], nil
		},
		DeliverResponse: func(_ dsl.HostCtx, resp []byte) error {
			if want := resps[k%len(resps)]; len(resp) != len(want) {
				t.Errorf("request %d: the front restored %d bytes, want %d", k, len(resp), len(want))
			}
			return nil
		},
	})
	s, err := runtime.New(prog, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ctx := context.Background()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := s.Invoke(ctx, patterns.FrontInstance, patterns.ShardJunction); err != nil {
			t.Fatal(err)
		}
		k++
	}
}

// TestShardingRoundTripAllocations pins what one request costs the C-Saw
// plane in process: nothing. The request crosses two hops — n to the
// back-end, m back to the front — and each receiving table copies the data
// it is sent into buffers it owns and reuses: the back-end's queued copy
// takes the cell's spare and hands the replaced value's buffer back as the
// next spare, and the front's wait rewrites its cell's buffer in place.
// Everything else is lent for the length of a call or owned by a compiled
// step: the group encodings, the acks, the range waiters, the wait's
// subscription and the bytes restore hands its sink.
func TestShardingRoundTripAllocations(t *testing.T) {
	request := shardingRequest(t, [][]byte{make([]byte, 64)}, [][]byte{make([]byte, 64)})
	request()
	if n := testing.AllocsPerRun(200, request); n != 0 {
		t.Fatalf("a request allocates %v objects, want 0", n)
	}
}

// TestShardingRoundTripKeepsBuffersAcrossSizes is the round trip with
// values alternating between 16 KiB and 20 B: a table keeps a buffer whose
// value shrinks, so once each cell has grown its buffers to the larger size,
// requests of either size allocate nothing.
func TestShardingRoundTripKeepsBuffersAcrossSizes(t *testing.T) {
	sizes := [][]byte{make([]byte, 16<<10), make([]byte, 20)}
	request := shardingRequest(t, sizes, sizes)
	for range 4 {
		request()
	}
	if n := testing.AllocsPerRun(200, request); n != 0 {
		t.Fatalf("a request of 16 KiB or 20 B values allocates %v objects, want 0", n)
	}
}
