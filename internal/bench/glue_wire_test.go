package bench

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"
)

// TestDecodeWireOpKeepsRecordOnStack: the glue's decode helper costs only
// what the record keeps — a GET its Key, a SET its Key and its Value — so
// the record it decodes into stays on the stack.
func TestDecodeWireOpKeepsRecordOnStack(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops scratch values at random under -race")
	}
	for _, c := range []struct {
		name string
		op   wireOp
		want float64
	}{
		{"GET", wireOp{Get: true, Key: "key:000042"}, 1},
		{"SET", wireOp{Key: "key:000042", Value: bytes.Repeat([]byte{7}, 64)}, 2},
	} {
		enc, err := appendWireOp(nil, c.op)
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		allocs := testing.AllocsPerRun(100, func() {
			op, err := decodeWireOp(enc)
			ok = ok && err == nil && op.Get == c.op.Get && op.Key == c.op.Key && bytes.Equal(op.Value, c.op.Value)
		})
		if !ok {
			t.Fatalf("%s: decoded record differs from %+v", c.name, c.op)
		}
		if allocs != c.want {
			t.Fatalf("%s: decodeWireOp allocates %.1f times, want %.0f", c.name, allocs, c.want)
		}
	}
}

// TestShardedRedisRequestAllocations rolls the server's share up to a whole
// request: through the key-sharded front on four back-ends, a GET and an
// overwriting SET of a 64-byte value each allocate exactly what the glue's
// codec does (decode the request, encode the reply, decode the reply), and
// the back-end server nothing.
func TestShardedRedisRequestAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops recycled values at random under -race")
	}
	sr, err := NewShardedRedis(4, ShardByKey, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	ctx := context.Background()
	value := bytes.Repeat([]byte{7}, 64)
	if err := sr.Set(ctx, "key:000042", value); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		op   func() error
	}{
		{"GET", func() error {
			v, ok, err := sr.Get(ctx, "key:000042")
			if err == nil && (!ok || !bytes.Equal(v, value)) {
				err = fmt.Errorf("GET = %q %v", v, ok)
			}
			return err
		}},
		{"SET", func() error { return sr.Set(ctx, "key:000042", value) }},
	} {
		var failed error
		allocs := testing.AllocsPerRun(200, func() {
			if err := c.op(); err != nil && failed == nil {
				failed = err
			}
		})
		if failed != nil {
			t.Fatalf("%s: %v", c.name, failed)
		}
		if allocs != 4 {
			t.Errorf("%s allocates %.2f times per request, want 4", c.name, allocs)
		}
	}
}
