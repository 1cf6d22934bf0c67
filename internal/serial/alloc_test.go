package serial

// The codec's allocation contract, and its plan cache under concurrent first
// use. The encoder never stores the value it is handed, so the argument of
// Marshal and AppendMarshal stays on its caller's stack: boxing a struct into
// the `any` parameter costs nothing, and Marshal allocates only its result.
// The typed Unmarshal allocates only what the decoded value keeps: its
// destination never reaches reflect (the walker decodes into a pooled
// scratch value of the type), so a local destination stays on its caller's
// stack. Config.Unmarshal's `any` destination still escapes, as a decoded
// slice, map or pointer is stored with reflect.Value.Set.

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// allocOp has the shape of the wire record the request glue marshals.
type allocOp struct {
	Get   bool
	Key   string
	Value []byte
	Found bool
}

type allocWithMap struct {
	Get   bool
	Key   string
	Value []byte
	Found bool
	M     map[string]int64
}

// allocHolder keeps the values on the heap, as the request glue's state does.
type allocHolder struct {
	op  allocOp
	wm  allocWithMap
	out allocOp
}

func newAllocHolder() *allocHolder {
	op := allocOp{Key: "key:000042", Value: bytes.Repeat([]byte{7}, 64), Found: true}
	return &allocHolder{
		op: op,
		wm: allocWithMap{Key: op.Key, Value: op.Value, Found: true, M: map[string]int64{"a": 1, "b": 2, "c": 3}},
	}
}

func TestAppendMarshalAllocatesNothing(t *testing.T) {
	h := newAllocHolder()
	buf := make([]byte, 0, 256)
	if allocs := testing.AllocsPerRun(100, func() {
		buf, _ = AppendMarshal(buf[:0], h.op)
	}); allocs != 0 {
		t.Fatalf("AppendMarshal of a heap-held record allocates %.1f times, want 0", allocs)
	}
}

func TestMarshalAllocatesOnlyItsResult(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops scratch buffers at random under -race")
	}
	h := newAllocHolder()
	if allocs := testing.AllocsPerRun(100, func() {
		_, _ = Marshal(h.op)
	}); allocs != 1 {
		t.Fatalf("Marshal of a heap-held record allocates %.1f times, want 1", allocs)
	}
}

func TestUnmarshalAllocatesWhatTheValueKeeps(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops scratch values at random under -race")
	}
	h := newAllocHolder()
	enc, err := Marshal(h.op)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = Unmarshal(enc, &h.out)
	}); allocs != 2 {
		t.Fatalf("Unmarshal of a record allocates %.1f times, want 2 (its Key and its Value)", allocs)
	}
	if h.out.Key != h.op.Key || !bytes.Equal(h.out.Value, h.op.Value) || !h.out.Found {
		t.Fatalf("decoded %+v, want %+v", h.out, h.op)
	}
}

// TestUnmarshalKeepsDestinationOnStack: a record decoded into a local
// variable costs only what it keeps — a GET its Key, a SET its Key and its
// Value — and not the record itself.
func TestUnmarshalKeepsDestinationOnStack(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops scratch values at random under -race")
	}
	h := newAllocHolder()
	for _, c := range []struct {
		name string
		op   allocOp
		want float64
	}{
		{"GET", allocOp{Get: true, Key: h.op.Key}, 1},
		{"SET", allocOp{Key: h.op.Key, Value: h.op.Value}, 2},
	} {
		enc, err := Marshal(c.op)
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		allocs := testing.AllocsPerRun(100, func() {
			var op allocOp
			err := Unmarshal(enc, &op)
			ok = ok && err == nil && op.Get == c.op.Get && op.Key == c.op.Key && bytes.Equal(op.Value, c.op.Value)
		})
		if !ok {
			t.Fatalf("%s: the local record did not decode to %+v", c.name, c.op)
		}
		if allocs != c.want {
			t.Fatalf("%s: decoding into a local record allocates %.1f times, want %.0f", c.name, allocs, c.want)
		}
	}
}

// TestMapFieldCostsOnlyItsMapPath: a map field makes its keys and values
// allocate, not the record around it.
func TestMapFieldCostsOnlyItsMapPath(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops scratch buffers at random under -race")
	}
	h := newAllocHolder()
	buf := make([]byte, 0, 256)
	record := testing.AllocsPerRun(100, func() {
		buf, _ = AppendMarshal(buf[:0], h.wm)
	})
	mapOnly := testing.AllocsPerRun(100, func() {
		buf, _ = AppendMarshal(buf[:0], h.wm.M)
	})
	if record != mapOnly {
		t.Fatalf("AppendMarshal of a record with a map field allocates %.1f times, its map alone %.1f", record, mapOnly)
	}
}

type concNode struct {
	Name string
	Next *concNode
}

var concTypes atomic.Int64

// TestPlansBuiltConcurrently: goroutines that meet new types at once — a
// struct type made at run time around a recursive list — each build or find
// complete plans, so every value round-trips. Run it under -race.
func TestPlansBuiltConcurrently(t *testing.T) {
	typ := reflect.StructOf([]reflect.StructField{
		{Name: "List", Type: reflect.TypeOf((*concNode)(nil))},
		{Name: fmt.Sprintf("M%d", concTypes.Add(1)), Type: reflect.TypeOf(map[string][]int(nil))},
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := reflect.New(typ).Elem()
			in.Field(0).Set(reflect.ValueOf(&concNode{Name: "a", Next: &concNode{Name: "b"}}))
			in.Field(1).Set(reflect.ValueOf(map[string][]int{"k": {1, 2}, "l": nil}))
			enc, err := Marshal(in.Interface())
			if err != nil {
				t.Error(err)
				return
			}
			out := reflect.New(typ)
			if err := Default.Unmarshal(enc, out.Interface()); err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(in.Interface(), out.Elem().Interface()) {
				t.Errorf("round trip drift: in %+v, out %+v", in.Interface(), out.Elem().Interface())
			}
		}()
	}
	wg.Wait()
}
