package serial

// Fuzz targets keeping the decoder hardening honest. Both start from a corpus
// whose bytes are frozen in testdata/reference.golden (the reference codec's
// output, see golden_test.go), and each corpus entry must still encode and
// decode as the reference did. FuzzUnmarshal drives arbitrary bytes through
// every ErrCorrupt path (seeded with golden encodings and corrupt length-bomb
// stubs), requires the typed entry and Default.Unmarshal to agree on the
// value and the error of every input, and requires every accepted input to
// round-trip: the decoded value's encoding decodes to a value with the same
// encoding. FuzzMarshalUnmarshal fuzzes values instead of bytes and asserts
// the full round-trip contract: the decoder reproduces the original value.

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strconv"
	"testing"
)

// fuzzRec exercises every supported kind, including recursion (P), named
// byte slices, maps and arrays.
type fuzzRec struct {
	B   bool
	I   int64
	U   uint64
	F   float64
	S   string
	Raw []byte
	L   []int32
	M   map[string]int16
	P   *fuzzRec
	A   [2]uint8
	N   namedBytes
}

// unmarshalSeeds are FuzzUnmarshal's golden seeds: valid encodings of
// progressively richer values, the last one truncated at MaxDepth 5.
func unmarshalSeeds() []struct {
	cfg Config
	v   fuzzRec
} {
	return []struct {
		cfg Config
		v   fuzzRec
	}{
		{Default, fuzzRec{}},
		{Default, fuzzRec{B: true, I: -9, U: 300, F: 1.25, S: "seed", Raw: []byte{1, 2}}},
		{Default, fuzzRec{L: []int32{1, -2, 3}, M: map[string]int16{"a": 1, "b": -2}, A: [2]uint8{7, 9}, N: namedBytes("n")}},
		{Default, fuzzRec{P: &fuzzRec{S: "inner", P: &fuzzRec{I: 5}}}},
		{Config{MaxDepth: 5}, fuzzRec{P: &fuzzRec{P: &fuzzRec{P: &fuzzRec{}}}}}, // contains tagTrunc
	}
}

func FuzzUnmarshal(f *testing.F) {
	ref := loadReference(f)
	for i, seed := range unmarshalSeeds() {
		want := frozen(f, ref, "unmarshal-seed-"+strconv.Itoa(i))
		data, err := seed.cfg.Marshal(seed.v)
		if err != nil || !bytes.Equal(data, want.enc) {
			f.Fatalf("seed %d: plan encoding %x (%v), reference %x", i, data, err, want.enc)
		}
		decodesLikeReference(f, Default, seed.v, data, want.dec)
		f.Add(data)
	}
	// Corrupt seeds: truncations, huge lengths, unknown tags, deep nesting.
	f.Add([]byte{})
	f.Add([]byte{tagStruct})
	f.Add([]byte{0xFF, 0x01})
	f.Add(append([]byte{tagSlice}, binary.AppendUvarint(nil, 1<<40)...))
	f.Add(append([]byte{tagMap}, binary.AppendUvarint(nil, math.MaxUint64)...))
	f.Add(append([]byte{tagString}, binary.AppendUvarint(nil, 1<<62)...))
	f.Add([]byte{tagPtr, tagPtr, tagPtr, tagPtr, tagNil})

	f.Fuzz(func(t *testing.T, data []byte) {
		entriesAgree(t, data, fuzzRec{})
		var out fuzzRec
		if err := Unmarshal(data, &out); err != nil {
			return // rejected input: the absence of panics/bombs is the property
		}
		// The input was well formed, so the decoded value encodes, and that
		// encoding decodes to a value that encodes the same: a canonical
		// encoding is a fixed point of decode-then-encode. Values compare
		// through their encodings: DeepEqual would reject NaN == NaN, while
		// encodings compare float bits exactly.
		enc, err := Marshal(out)
		if err != nil {
			t.Fatalf("re-marshal of decoded value failed: %v", err)
		}
		var again fuzzRec
		if err := Unmarshal(enc, &again); err != nil {
			t.Fatalf("the decoded value's encoding does not decode: %v\nencoding %x", err, enc)
		}
		againEnc, err := Marshal(again)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(enc, againEnc) {
			t.Fatalf("round-trip drift:\nfirst  %x\nsecond %x\ninput %x", enc, againEnc, data)
		}
	})
}

// roundTripValue is the value FuzzMarshalUnmarshal builds from its inputs.
func roundTripValue(b bool, i int64, s string, raw []byte, nest uint8) fuzzRec {
	// Empty byte slices decode as nil in this wire format (tagBytes 0 is
	// reconstructed with a nil-append); normalize inputs so the exact
	// DeepEqual of a round trip holds.
	if len(raw) == 0 {
		raw = nil
	}
	var named namedBytes
	if s != "" {
		named = namedBytes(s)
	}
	in := fuzzRec{
		B:   b,
		I:   i,
		U:   uint64(i) ^ 0xDEAD,
		F:   float64(i) / 3,
		S:   s,
		Raw: raw,
		L:   []int32{int32(i), int32(len(s))},
		M:   map[string]int16{s: int16(i), "k": int16(nest)},
		A:   [2]uint8{nest, ^nest},
		N:   named,
	}
	// A pointer chain of fuzzed length, kept below MaxDepth.
	chain := &in
	for j := 0; j < int(nest%8); j++ {
		chain = &fuzzRec{I: int64(j), P: chain}
	}
	return *chain
}

func FuzzMarshalUnmarshal(f *testing.F) {
	ref := loadReference(f)
	seeds := []struct {
		b    bool
		i    int64
		s    string
		raw  []byte
		nest uint8
	}{
		{false, 0, "", nil, 0},
		{true, -42, "héllo", []byte{0, 255}, 3},
		{true, math.MaxInt64, "k1", []byte("value"), 9},
	}
	for n, seed := range seeds {
		want := frozen(f, ref, "roundtrip-seed-"+strconv.Itoa(n))
		if enc, err := Marshal(roundTripValue(seed.b, seed.i, seed.s, seed.raw, seed.nest)); err != nil || !bytes.Equal(enc, want.enc) {
			f.Fatalf("seed %d: plan encoding %x (%v), reference %x", n, enc, err, want.enc)
		}
		f.Add(seed.b, seed.i, seed.s, seed.raw, seed.nest)
	}

	f.Fuzz(func(t *testing.T, b bool, i int64, s string, raw []byte, nest uint8) {
		in := roundTripValue(b, i, s, raw, nest)
		enc, err := Marshal(in)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var out fuzzRec
		if err := Unmarshal(enc, &out); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip drift:\nin  %+v\nout %+v", in, out)
		}
	})
}
