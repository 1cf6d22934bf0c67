package serial

// BenchmarkSerial* is the serializer micro-suite over the plan-cached codec.
// The figures recorded against the seed reflect-walk codec, before it was
// deleted, are in EXPERIMENTS.md ("historical figures"); per request the
// ledger prices the codec as its serial.* metrics.

import (
	"fmt"
	"testing"
)

// benchWireOp mirrors internal/bench's wireOp — the per-operation record the
// glue adapters marshal for every Redis/Suricata/cURL request (Figs. 23–26).
type benchWireOp struct {
	Get   bool
	Key   string
	Value []byte
	Found bool
}

type benchNested struct {
	Name string
	Next *benchNested
	Tags []string
}

type benchMapHeavy struct {
	Counters map[string]int64
	Labels   map[string]string
}

type benchBytes struct {
	ID      uint64
	Payload []byte
}

func benchFixtures() map[string]any {
	wire := benchWireOp{Get: true, Key: "key:000042", Value: make([]byte, 64), Found: true}
	for i := range wire.Value {
		wire.Value[i] = byte(i)
	}

	var nested *benchNested
	for i := 9; i >= 0; i-- {
		nested = &benchNested{Name: fmt.Sprintf("node-%02d", i), Next: nested, Tags: []string{"a", "b"}}
	}

	mh := benchMapHeavy{Counters: map[string]int64{}, Labels: map[string]string{}}
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("metric.%02d", i)
		mh.Counters[k] = int64(i * 17)
		mh.Labels[k] = "shard-a"
	}

	bb := benchBytes{ID: 7, Payload: make([]byte, 4096)}
	for i := range bb.Payload {
		bb.Payload[i] = byte(i * 31)
	}

	return map[string]any{
		"wireOp":   wire,
		"nested":   nested,
		"mapHeavy": mh,
		"bytes4k":  bb,
	}
}

// benchDeepList builds a list longer than MaxDepth so the depth-truncation
// path (tagTrunc) is part of the measured encode.
func benchDeepList(n int) *benchNested {
	var head *benchNested
	for i := 0; i < n; i++ {
		head = &benchNested{Name: "d", Next: head}
	}
	return head
}

var benchOrder = []string{"wireOp", "nested", "mapHeavy", "bytes4k"}

func BenchmarkSerialMarshal(b *testing.B) {
	fixtures := benchFixtures()
	for _, name := range benchOrder {
		v := fixtures[name]
		b.Run(name, func(b *testing.B) {
			data, err := Marshal(v)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Marshal(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("deepListMaxDepth", func(b *testing.B) {
		cfg := Config{MaxDepth: 64}
		v := benchDeepList(200) // > MaxDepth: exercises truncation
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cfg.Marshal(v); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSerialUnmarshal(b *testing.B) {
	fixtures := benchFixtures()
	dsts := map[string]func() any{
		"wireOp":   func() any { return new(benchWireOp) },
		"nested":   func() any { return new(*benchNested) },
		"mapHeavy": func() any { return new(benchMapHeavy) },
		"bytes4k":  func() any { return new(benchBytes) },
	}
	for _, name := range benchOrder {
		data, err := Marshal(fixtures[name])
		if err != nil {
			b.Fatal(err)
		}
		newDst := dsts[name]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Default.Unmarshal(data, newDst()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The typed entry into a local record, as the request glue decodes: the
	// record stays on the stack, so only its Key and Value allocate.
	b.Run("wireOpLocal", func(b *testing.B) {
		data, err := Marshal(fixtures["wireOp"])
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var out benchWireOp
			if err := Unmarshal(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSerialRoundTrip(b *testing.B) {
	op := benchFixtures()["wireOp"].(benchWireOp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := Marshal(op)
		if err != nil {
			b.Fatal(err)
		}
		var out benchWireOp
		if err := Unmarshal(data, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerialAppendMarshal measures the zero-copy entry point hot callers
// use: one buffer reused across calls, so steady state allocates nothing.
func BenchmarkSerialAppendMarshal(b *testing.B) {
	fixtures := benchFixtures()
	for _, name := range benchOrder {
		v := fixtures[name]
		b.Run(name, func(b *testing.B) {
			buf, err := AppendMarshal(nil, v)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, err = AppendMarshal(buf[:0], v)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
