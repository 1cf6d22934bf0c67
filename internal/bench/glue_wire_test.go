package bench

import (
	"bytes"
	"testing"
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
		enc, err := encodeWireOp(c.op)
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
