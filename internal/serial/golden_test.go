package serial

// Golden-encoding tests: the compiled codec plans must emit byte-for-byte
// the encoding of the reflect-walk reference codec they replaced, and decode
// it to what the reference decoded. The reference's output is frozen in
// testdata/reference.golden — generated once, at the commit before the
// reference was deleted, and changed since only by hand with a stated
// reason. A handful of hex constants additionally pin the wire format in
// this file.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// refBytes is one frozen line of testdata/reference.golden: the reference
// encoder's bytes for a value, and the reference encoder's bytes for what
// the reference decoder made of them (nil where nothing was decoded).
type refBytes struct{ enc, dec []byte }

// loadReference reads testdata/reference.golden: one "name enc dec" line per
// value, in hex, "-" for an absent decode, "#" starting a comment.
func loadReference(tb testing.TB) map[string]refBytes {
	tb.Helper()
	f, err := os.Open("testdata/reference.golden")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	hexOf := func(s string) []byte {
		if s == "-" {
			return nil
		}
		b, err := hex.DecodeString(s)
		if err != nil {
			tb.Fatalf("reference.golden: %v", err)
		}
		return b
	}
	ref := map[string]refBytes{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			tb.Fatalf("reference.golden: malformed line %q", line)
		}
		ref[fields[0]] = refBytes{enc: hexOf(fields[1]), dec: hexOf(fields[2])}
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return ref
}

// frozen returns one frozen line, failing when it is missing.
func frozen(tb testing.TB, ref map[string]refBytes, name string) refBytes {
	tb.Helper()
	r, ok := ref[name]
	if !ok {
		tb.Fatalf("reference.golden has no line %q", name)
	}
	return r
}

// decodesLikeReference decodes enc into a fresh value of v's type with cfg
// and requires its re-encoding to be the frozen one: the plan decoder must
// rebuild the value the reference decoder did (compared through the
// encoding, which holds float bits exactly where DeepEqual would reject NaN).
func decodesLikeReference(tb testing.TB, cfg Config, v any, enc, want []byte) {
	tb.Helper()
	dst := reflect.New(reflect.TypeOf(v))
	if err := cfg.Unmarshal(enc, dst.Interface()); err != nil {
		tb.Fatalf("plan unmarshal: %v", err)
	}
	got, err := cfg.Marshal(dst.Elem().Interface())
	if err != nil {
		tb.Fatalf("re-marshal of the decoded value: %v", err)
	}
	if !bytes.Equal(got, want) {
		tb.Fatalf("decode drift:\nplan %x\nref  %x\ndecoded %+v", got, want, dst.Elem())
	}
}

type goldenWireOp struct {
	Get   bool
	Key   string
	Value []byte
	Found bool
}

type goldenNode struct {
	Val  int
	Next *goldenNode
}

func goldenList(vals ...int) *goldenNode {
	var head *goldenNode
	for i := len(vals) - 1; i >= 0; i-- {
		head = &goldenNode{Val: vals[i], Next: head}
	}
	return head
}

type namedBytes []byte

type goldenEmbed struct {
	X int
}

type goldenComposite struct {
	Flat  flat
	Nodes []*goldenNode
	Attrs map[string]map[int8]string
	Raw   namedBytes
	Arr   [3]uint16
	Iface any
	goldenEmbed
	priv int
}

// goldenFixture is one value of the frozen file, and a check that decodes
// an encoding into the value's type through both Unmarshal entry points.
type goldenFixture struct {
	name  string
	cfg   Config
	v     any
	agree func(testing.TB, []byte)
}

func fixture[T any](name string, cfg Config, v T) goldenFixture {
	return goldenFixture{name, cfg, v, func(tb testing.TB, data []byte) {
		tb.Helper()
		var zero T
		entriesAgree(tb, data, zero)
	}}
}

func goldenFixtures() []goldenFixture {
	return []goldenFixture{
		fixture[any]("nilRoot", Config{}, nil),
		fixture("bool", Config{}, true),
		fixture("int", Config{}, int32(-77)),
		fixture("uint", Config{}, uint64(math.MaxUint64)),
		fixture("float", Config{}, -math.Pi),
		fixture("negZero", Config{}, math.Copysign(0, -1)),
		fixture("inf", Config{}, math.Inf(1)),
		fixture("string", Config{}, "héllo\x00world"),
		fixture("emptyString", Config{}, ""),
		fixture("bytes", Config{}, []byte{0, 1, 2, 255}),
		fixture("namedBytes", Config{}, namedBytes("nb")),
		fixture("emptyBytes", Config{}, []byte{}),
		fixture("nilBytes", Config{}, []byte(nil)),
		fixture("slice", Config{}, []string{"a", "", "c"}),
		fixture("emptySlice", Config{}, []int{}),
		fixture("array", Config{}, [4]int8{-1, 0, 1, 2}),
		fixture("map", Config{}, map[string]int{"b": 2, "a": 1, "c": -3}),
		fixture("emptyMap", Config{}, map[uint8]bool{}),
		fixture("nilMap", Config{}, map[string]int(nil)),
		fixture("intKeyMap", Config{}, map[int16][]byte{-2: {9}, 4: nil, 1: {}}),
		fixture("wireOp", Config{}, goldenWireOp{Get: true, Key: "k1", Value: []byte{0xde, 0xad}, Found: true}),
		fixture("flat", Config{}, flat{B: true, I: -42, U: 7, F: 3.5, S: "héllo", Raw: []byte{0, 1, 255}}),
		fixture("list3", Config{}, goldenList(1, 2, 3)),
		fixture("list3depth5", Config{MaxDepth: 5}, goldenList(1, 2, 3)),
		fixture("list100depth21", Config{MaxDepth: 21}, goldenList(make([]int, 100)...)),
		fixture("composite", Config{}, goldenComposite{
			Flat:        flat{S: "s", Raw: []byte("r")},
			Nodes:       []*goldenNode{nil, goldenList(5)},
			Attrs:       map[string]map[int8]string{"m": {1: "x", -1: "y"}, "": nil},
			Raw:         namedBytes{1, 2},
			Arr:         [3]uint16{7, 8, 9},
			goldenEmbed: goldenEmbed{X: 11},
			priv:        3,
		}),
		fixture("deepMapDepth4", Config{MaxDepth: 4}, map[string][]*goldenNode{"k": {goldenList(1, 2, 3)}}),
		fixture("snapshotCfg", Config{MaxDepth: 64}, map[string][]byte{"user:1": []byte("alice")}),
	}
}

// TestGoldenPlanMatchesReference proves the codec's core contract: for every
// fixture (including depth-truncated ones) the plan-compiled encoder emits
// exactly the frozen reference encoding, and the plan decoder rebuilds from
// it the value the reference decoder did.
func TestGoldenPlanMatchesReference(t *testing.T) {
	ref := loadReference(t)
	for _, fx := range goldenFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			want := frozen(t, ref, fx.name)
			plan, err := fx.cfg.Marshal(fx.v)
			if err != nil {
				t.Fatalf("plan marshal: %v", err)
			}
			if !bytes.Equal(plan, want.enc) {
				t.Fatalf("encoding drift:\nplan %x\nref  %x", plan, want.enc)
			}
			if fx.v == nil {
				return
			}
			decodesLikeReference(t, fx.cfg, fx.v, plan, want.dec)
		})
	}
}

// TestGoldenWireBytes pins the wire format with hard-coded encodings beside
// the frozen file.
func TestGoldenWireBytes(t *testing.T) {
	lst := goldenList(1, 2, 3)
	cases := []struct {
		name string
		cfg  Config
		v    any
		hex  string
	}{
		{"wireOp", Config{}, goldenWireOp{Get: true, Key: "k1", Value: []byte{0xde, 0xad}, Found: true}, "0a04010105026b310602dead0101"},
		{"list3", Config{}, lst, "0b0a0202020b0a0202040b0a02020600"},
		{"list3trunc5", Config{MaxDepth: 5}, lst, "0b0a0202020b0a0202040b0c"},
		{"map", Config{}, map[string]int{"b": 2, "a": 1, "c": -3}, "0903050161020205016202040501630205"},
		{"floats", Config{}, [2]float64{1.5, -2.25}, "0802043ff800000000000004c002000000000000"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := hex.DecodeString(c.hex)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.cfg.Marshal(c.v)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("wire drift:\ngot  %x\nwant %x", got, want)
			}
		})
	}
}

// TestStrictBoundaryDepth walks the exact depth boundary: a 3-node list
// consumes one depth level per pointer and per struct plus one for the leaf
// field, so it round-trips whole at MaxDepth 7, and at 6 the last node's
// leaf field is the truncated tail and decodes to its zero value
// (list3depth5 in the frozen file pins a truncated encoding's bytes).
func TestStrictBoundaryDepth(t *testing.T) {
	lst := goldenList(1, 2, 3)
	decode := func(depth int) *goldenNode {
		t.Helper()
		cfg := Config{MaxDepth: depth}
		data, err := cfg.Marshal(lst)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		var out *goldenNode
		if err := cfg.Unmarshal(data, &out); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		return out
	}
	if got := decode(7); !reflect.DeepEqual(got, lst) {
		t.Fatalf("exact fit: decoded %+v, want the whole list", got)
	}
	if got := decode(6); !reflect.DeepEqual(got, goldenList(1, 2, 0)) {
		t.Fatalf("one short: decoded %+v, want 1 -> 2 -> 0 with the last leaf truncated", got)
	}
}

// truncName names the frozen encoding of a 40-node list at a depth bound.
func truncName(depth int) string { return "list40depth" + strconv.Itoa(depth) }

// TestTruncRoundTripThroughPlan covers the tagTrunc path end to end through
// the plan codec: a truncated encoding decodes to the prefix that fit, and
// the bytes match the frozen reference encoding for the same bound.
func TestTruncRoundTripThroughPlan(t *testing.T) {
	ref := loadReference(t)
	for depth := 3; depth <= 15; depth += 2 {
		cfg := Config{MaxDepth: depth}
		lst := goldenList(make([]int, 40)...)
		plan, err := cfg.Marshal(lst)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if want := frozen(t, ref, truncName(depth)).enc; !bytes.Equal(plan, want) {
			t.Fatalf("depth %d: truncated encoding drift\nplan %x\nref  %x", depth, plan, want)
		}
		var out *goldenNode
		if err := cfg.Unmarshal(plan, &out); err != nil {
			t.Fatalf("depth %d unmarshal: %v", depth, err)
		}
		n := 0
		for p := out; p != nil; p = p.Next {
			n++
		}
		// (depth-1)/2 nodes carry their value; the pointer that runs out of
		// depth encodes tagPtr+tagTrunc, which decodes to one extra zero node.
		if want := (depth-1)/2 + 1; n != want {
			t.Fatalf("depth %d: decoded %d nodes, want %d", depth, n, want)
		}
	}
}

// allocDelta measures bytes allocated by fn on a quiesced heap.
func allocDelta(fn func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCorruptLengthNoAllocationBomb feeds short frames that declare huge
// container/byte lengths. Every one must fail with ErrCorrupt without
// allocating for the declared length (bounded here at 1 MiB, orders of
// magnitude below the gigabytes the declared lengths demand).
func TestCorruptLengthNoAllocationBomb(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	overflow := binary.AppendUvarint(nil, math.MaxUint64) // > MaxInt: previously a negative-length slice panic
	cases := []struct {
		name  string
		frame []byte
		dst   func() any
	}{
		{"slice", append([]byte{tagSlice}, huge...), func() any { return new([]int64) }},
		{"sliceOfStructs", append([]byte{tagSlice}, huge...), func() any { return new([]flat) }},
		{"map", append([]byte{tagMap}, huge...), func() any { return new(map[string][]byte) }},
		{"string", append([]byte{tagString}, huge...), func() any { return new(string) }},
		{"bytes", append([]byte{tagBytes}, huge...), func() any { return new([]byte) }},
		{"stringOverflow", append([]byte{tagString}, overflow...), func() any { return new(string) }},
		{"bytesOverflow", append([]byte{tagBytes}, overflow...), func() any { return new([]byte) }},
		{"sliceOverflow", append([]byte{tagSlice}, overflow...), func() any { return new([]int) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dst := c.dst()
			var err error
			alloc := allocDelta(func() { err = Default.Unmarshal(c.frame, dst) })
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			if alloc > 1<<20 {
				t.Fatalf("allocated %d bytes decoding a %d-byte corrupt frame", alloc, len(c.frame))
			}
		})
	}
}

// TestDecodeDepthBounded: a hostile input nesting pointers beyond the
// decoder's MaxDepth is rejected instead of recursing without bound, while
// an input at exactly the configured bound still decodes.
func TestDecodeDepthBounded(t *testing.T) {
	// 100 nested tagPtr frames around a tagNil, against default MaxDepth 32,
	// into a type admitting arbitrarily deep pointer chains.
	type ptrChain *ptrChain
	frame := make([]byte, 0, 101)
	for i := 0; i < 100; i++ {
		frame = append(frame, tagPtr)
	}
	frame = append(frame, tagNil)
	var chain ptrChain
	if err := Unmarshal(frame, &chain); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("deep ptr chain: err = %v, want ErrCorrupt", err)
	}
	// Valid encodings at the bound still round-trip.
	cfg := Config{MaxDepth: 64}
	lst := goldenList(make([]int, 31)...)
	data, err := cfg.Marshal(lst)
	if err != nil {
		t.Fatal(err)
	}
	var out *goldenNode
	if err := cfg.Unmarshal(data, &out); err != nil {
		t.Fatalf("at-bound decode: %v", err)
	}
}
