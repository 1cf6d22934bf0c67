package serial

// The typed entry point against Config.Unmarshal. Unmarshal[T] decodes into a
// pooled scratch value that starts as a copy of *dst and is assigned back
// whole, Config.Unmarshal writes *dst field by field; both run the one
// walker, so for every input they must leave the same value and return the
// same error — fields past the encoded count, unexported fields and a
// partial decode included. The scratch goes back to its pool zeroed.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// entriesAgree decodes data through the typed entry and through
// Default.Unmarshal into equal starting values of T and requires the same
// value and the same error from both. Values compare with DeepEqual, or
// through their encodings where DeepEqual rejects NaN == NaN.
func entriesAgree[T any](tb testing.TB, data []byte, start T) {
	tb.Helper()
	typed, viaAny := start, start
	errTyped := Unmarshal(data, &typed)
	errAny := Default.Unmarshal(data, &viaAny)
	if fmt.Sprint(errTyped) != fmt.Sprint(errAny) {
		tb.Fatalf("input %x: typed entry returned %v, Default.Unmarshal %v", data, errTyped, errAny)
	}
	if reflect.DeepEqual(typed, viaAny) {
		return
	}
	a, errA := Marshal(typed)
	b, errB := Marshal(viaAny)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		tb.Fatalf("input %x: typed entry decoded %+v, Default.Unmarshal %+v", data, typed, viaAny)
	}
}

// parityShort is parityLong's first two fields: its encoding carries fewer
// fields than parityLong declares.
type parityShort struct {
	A int
	B string
}

type parityLong struct {
	A    int
	B    string
	C    []int
	M    map[string]int
	priv *int
}

func TestTypedUnmarshalMatchesConfigUnmarshal(t *testing.T) {
	seven := 7
	start := parityLong{A: -1, B: "old", C: []int{9}, M: map[string]int{"k": 1}, priv: &seven}
	short, err := Marshal(parityShort{A: 3, B: "new"})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Marshal(parityLong{A: 4, B: "full", C: []int{1, 2, 3}, M: map[string]int{"a": 1, "b": 2}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		ok   bool
	}{
		{"fewerFields", short, true},
		{"full", full, true},
		{"trailing", append(append([]byte(nil), full...), tagNil), false},
		{"cutInSlice", full[:len(full)-15], false},
		{"cutInMap", full[:len(full)-3], false},
		{"badTag", []byte{tagString, 0}, false},
		{"empty", nil, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			entriesAgree(t, c.data, start)
			got := start
			if err := Unmarshal(c.data, &got); (err == nil) != c.ok {
				t.Fatalf("err = %v, want success %v", err, c.ok)
			}
			if got.priv != &seven {
				t.Fatal("an unexported field lost its value")
			}
		})
	}
	// Fields past the encoded count keep their values.
	got := start
	if err := Unmarshal(short, &got); err != nil || got.A != 3 || got.B != "new" || !reflect.DeepEqual(got.C, start.C) || !reflect.DeepEqual(got.M, start.M) {
		t.Fatalf("decoding two fields gave %+v (%v), want A and B replaced and the rest kept", got, err)
	}
	// A cut frame leaves what was decoded before the cut, as a field-wise
	// decode does.
	got = start
	if err := Unmarshal(full[:len(full)-3], &got); err == nil || got.A != 4 || got.B != "full" || len(got.C) != 3 || !reflect.DeepEqual(got.M, start.M) {
		t.Fatalf("a cut frame left %+v (%v), want A, B and C decoded and M kept", got, err)
	}
	// A nil destination is the same type error through both entries.
	errTyped := Unmarshal(full, (*parityLong)(nil))
	errAny := Default.Unmarshal(full, (*parityLong)(nil))
	if errTyped == nil || fmt.Sprint(errTyped) != fmt.Sprint(errAny) {
		t.Fatalf("nil destination: typed entry %v, Default.Unmarshal %v", errTyped, errAny)
	}
}

// TestUnmarshalScratchKeepsNothing: after a decode, successful or not, the
// scratch value the typed entry used is zero in its pool, so it keeps
// nothing of the decoded value reachable.
func TestUnmarshalScratchKeepsNothing(t *testing.T) {
	full, err := Marshal(parityLong{A: 4, B: "full", C: []int{1, 2, 3}, M: map[string]int{"a": 1}})
	if err != nil {
		t.Fatal(err)
	}
	seven := 7
	p := planFor(reflect.TypeFor[parityLong]())
	for _, data := range [][]byte{full, full[:len(full)-3]} {
		dst := parityLong{C: []int{5}, priv: &seven}
		_ = Unmarshal(data, &dst)
		s := p.scratch.Get().(*parityLong)
		if !reflect.DeepEqual(*s, parityLong{}) {
			t.Fatalf("the pooled scratch holds %+v after decoding %x, want the zero value", *s, data)
		}
		p.scratch.Put(s)
	}
}

// TestGoldenEntriesAgree: every frozen golden encoding decodes to the same
// value and error through the typed entry and through Default.Unmarshal.
func TestGoldenEntriesAgree(t *testing.T) {
	ref := loadReference(t)
	for _, fx := range goldenFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			fx.agree(t, frozen(t, ref, fx.name).enc)
		})
	}
}
