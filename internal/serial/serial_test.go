package serial

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

type flat struct {
	B   bool
	I   int64
	U   uint32
	F   float64
	S   string
	Raw []byte
}

func roundTrip[T any](t *testing.T, in T) T {
	t.Helper()
	data, err := Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out T
	if err := Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return out
}

func TestFlatStructRoundTrip(t *testing.T) {
	in := flat{B: true, I: -42, U: 7, F: 3.5, S: "héllo", Raw: []byte{0, 1, 255}}
	out := roundTrip(t, in)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %+v", out)
	}
}

func TestScalars(t *testing.T) {
	if got := roundTrip(t, int(-5)); got != -5 {
		t.Errorf("int: %d", got)
	}
	if got := roundTrip(t, uint(9)); got != 9 {
		t.Errorf("uint: %d", got)
	}
	if got := roundTrip(t, "x"); got != "x" {
		t.Errorf("string: %q", got)
	}
	if got := roundTrip(t, true); !got {
		t.Error("bool")
	}
	if got := roundTrip(t, math.Inf(1)); !math.IsInf(got, 1) {
		t.Error("inf")
	}
	if got := roundTrip(t, math.NaN()); !math.IsNaN(got) {
		t.Error("nan")
	}
}

func TestSlicesMapsArrays(t *testing.T) {
	s := roundTrip(t, []string{"a", "b", "c"})
	if len(s) != 3 || s[2] != "c" {
		t.Errorf("slice: %v", s)
	}
	m := roundTrip(t, map[string]int{"x": 1, "y": 2})
	if len(m) != 2 || m["y"] != 2 {
		t.Errorf("map: %v", m)
	}
	a := roundTrip(t, [3]int{7, 8, 9})
	if a[1] != 8 {
		t.Errorf("array: %v", a)
	}
	var nilSlice []int
	if got := roundTrip(t, nilSlice); got != nil {
		t.Errorf("nil slice: %v", got)
	}
	var nilMap map[string]int
	if got := roundTrip(t, nilMap); got != nil {
		t.Errorf("nil map: %v", got)
	}
}

type node struct {
	Val  int
	Next *node
}

func list(vals ...int) *node {
	var head *node
	for i := len(vals) - 1; i >= 0; i-- {
		head = &node{Val: vals[i], Next: head}
	}
	return head
}

func listLen(n *node) int {
	c := 0
	for ; n != nil; n = n.Next {
		c++
	}
	return c
}

func TestLinkedListRoundTrip(t *testing.T) {
	in := list(1, 2, 3, 4)
	out := roundTrip(t, in)
	if listLen(out) != 4 {
		t.Fatalf("len = %d", listLen(out))
	}
	for i, n := 1, out; n != nil; i, n = i+1, n.Next {
		if n.Val != i {
			t.Fatalf("node %d = %d", i, n.Val)
		}
	}
}

// TestDepthTruncation encodes the paper's bounded-recursion contract: a
// linked list longer than MaxDepth is serialized only up to that depth, and
// the remainder decodes as nil — protecting the serialization buffer.
func TestDepthTruncation(t *testing.T) {
	vals := make([]int, 100)
	for i := range vals {
		vals[i] = i
	}
	in := list(vals...)
	cfg := Config{MaxDepth: 21} // each list node costs ptr+struct+fields
	data, err := cfg.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out *node
	if err := cfg.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	got := listLen(out)
	if got >= 100 || got == 0 {
		t.Fatalf("truncated list has %d nodes; want 0 < n < 100", got)
	}
}

// TestCycleDoesNotHang: a cyclic list must terminate thanks to the depth
// bound rather than looping forever.
func TestCycleDoesNotHang(t *testing.T) {
	a := &node{Val: 1}
	b := &node{Val: 2, Next: a}
	a.Next = b // cycle
	cfg := Config{MaxDepth: 10}
	data, err := cfg.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var out *node
	if err := cfg.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out == nil || out.Val != 1 {
		t.Fatalf("cycle head lost: %+v", out)
	}
}

func TestMaxBytes(t *testing.T) {
	cfg := Config{MaxBytes: 16}
	if _, err := cfg.Marshal(make([]byte, 1000)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnsupportedType(t *testing.T) {
	if _, err := Marshal(make(chan int)); !errors.Is(err, ErrType) {
		t.Fatalf("chan: %v", err)
	}
	if _, err := Marshal(func() {}); !errors.Is(err, ErrType) {
		t.Fatalf("func: %v", err)
	}
}

func TestUnmarshalNeedsPointer(t *testing.T) {
	data, _ := Marshal(1)
	var x int
	if err := Default.Unmarshal(data, x); !errors.Is(err, ErrType) {
		t.Fatalf("non-pointer dst: %v", err)
	}
	if err := Unmarshal(data, (*int)(nil)); !errors.Is(err, ErrType) {
		t.Fatalf("nil pointer dst: %v", err)
	}
}

func TestCorruptInputs(t *testing.T) {
	good, _ := Marshal(flat{S: "hello", Raw: []byte("world")})
	// Every truncation must error, never panic.
	for cut := 0; cut < len(good); cut++ {
		var out flat
		if err := Unmarshal(good[:cut], &out); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage rejected.
	var out flat
	if err := Unmarshal(append(append([]byte(nil), good...), 0xFF), &out); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Type confusion rejected.
	intEnc, _ := Marshal(7)
	var s string
	if err := Unmarshal(intEnc, &s); err == nil {
		t.Fatal("int decoded into string")
	}
}

func TestDeterministicMaps(t *testing.T) {
	m := map[string]int{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}
	first, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatal("map encoding not deterministic")
		}
	}
}

func TestUnexportedFieldsSkipped(t *testing.T) {
	type mixed struct {
		Pub  int
		priv int
	}
	in := mixed{Pub: 5, priv: 9}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out mixed
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Pub != 5 || out.priv != 0 {
		t.Fatalf("got %+v", out)
	}
}

type deep struct {
	Name     string
	Children []deep
	Attrs    map[string]string
	Link     *deep
}

func TestNestedComposite(t *testing.T) {
	in := deep{
		Name: "root",
		Children: []deep{
			{Name: "a", Attrs: map[string]string{"k": "v"}},
			{Name: "b", Link: &deep{Name: "leaf"}},
		},
	}
	out := roundTrip(t, in)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %+v", out)
	}
}

// TestQuickRoundTripProperty uses testing/quick to round-trip randomly
// generated composite values.
func TestQuickRoundTripProperty(t *testing.T) {
	type rec struct {
		A int32
		B string
		C []uint16
		D map[int8]string
		E *string
		F [2]bool
	}
	f := func(in rec) bool {
		data, err := Marshal(in)
		if err != nil {
			return false
		}
		var out rec
		if err := Unmarshal(data, &out); err != nil {
			return false
		}
		// Normalise nil vs empty for DeepEqual.
		if len(in.C) == 0 && len(out.C) == 0 {
			in.C, out.C = nil, nil
		}
		if len(in.D) == 0 && len(out.D) == 0 {
			in.D, out.D = nil, nil
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRedisEntryShape round-trips the kind of key/value record the Redis
// integration serializes (paper §10.2 mentions the generated serializer for
// Redis' key and value structure).
func TestRedisEntryShape(t *testing.T) {
	type entry struct {
		Key    string
		Value  []byte
		TTL    int64
		Access uint64
	}
	type snapshot struct {
		Entries []entry
		Seq     uint64
	}
	in := snapshot{
		Entries: []entry{
			{Key: "user:1", Value: []byte("alice"), TTL: -1, Access: 3},
			{Key: "user:2", Value: []byte("bob"), TTL: 60, Access: 9},
		},
		Seq: 42,
	}
	out := roundTrip(t, in)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %+v", out)
	}
}
