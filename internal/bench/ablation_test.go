package bench

// Ablation benchmarks for the design decisions DESIGN.md calls out: the
// cost of the DSL runtime relative to a hand-written equivalent,
// transactional rollback, and the serialization framework versus hand-rolled
// wire encoding.

import (
	"context"
	"testing"
	"time"

	"csaw/internal/direct"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/runtime"
	"csaw/internal/serial"
	"csaw/internal/workload"
)

// BenchmarkAblationDSLShardedGet measures a GET through the C-Saw sharding
// architecture (junction scheduling + KV updates + acks + serialization).
func BenchmarkAblationDSLShardedGet(b *testing.B) {
	sr, err := NewShardedRedis(4, ShardByKey, time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer sr.Close()
	ctx := context.Background()
	if err := sr.Set(ctx, "key:000001", make([]byte, 64)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sr.Get(ctx, "key:000001"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDirectShardedGet is the hand-written socket-based control
// for the same operation.
func BenchmarkAblationDirectShardedGet(b *testing.B) {
	s := direct.NewShardedRedis(4, time.Second)
	defer s.Close()
	if err := s.Set("key:000001", make([]byte, 64)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Get("key:000001"); err != nil {
			b.Fatal(err)
		}
	}
}

// buildPingPong constructs a minimal two-junction exchange used by the
// runtime-cost ablations.
func buildPingPong(opts runtime.Options) (*runtime.System, error) {
	p := dsl.NewProgram()
	p.Type("a").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}),
		dsl.Assert{Target: dsl.J("peer", "j"), Prop: dsl.PR("Work")},
		dsl.Wait{Cond: formula.Not(formula.P("Work"))},
	))
	p.Type("b").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}),
		dsl.Retract{Target: dsl.J("ping", "j"), Prop: dsl.PR("Work")},
	).Guarded(formula.P("Work")))
	p.Instance("ping", "a").Instance("peer", "b")
	p.SetMain(dsl.Par{dsl.Start{Instance: "ping"}, dsl.Start{Instance: "peer"}})
	sys, err := runtime.New(p, opts)
	if err != nil {
		return nil, err
	}
	if err := sys.RunMain(context.Background()); err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

// BenchmarkAblationJunctionRoundTrip measures one full assert/wait/retract
// coordination round between two junctions (the Fig. 3 core).
func BenchmarkAblationJunctionRoundTrip(b *testing.B) {
	sys, err := buildPingPong(runtime.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Invoke(ctx, "ping", "j"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTransactionRollback measures the cost of a failing
// transaction block (snapshot + rollback) versus a failing fate scope.
func BenchmarkAblationTransactionRollback(b *testing.B) {
	build := func(body dsl.Expr) *runtime.System {
		p := dsl.NewProgram()
		decls := dsl.Decls(dsl.InitData{Name: "n"})
		for i := 0; i < 16; i++ {
			decls = append(decls, dsl.InitProp{Name: dsl.IndexedName("P", string(rune('a'+i))), Init: false})
		}
		p.Type("t").Junction("j", dsl.Def(decls,
			dsl.OtherwiseT(body, 0, dsl.Skip{}),
		))
		p.Instance("i", "t")
		p.SetMain(dsl.Start{Instance: "i"})
		sys, err := runtime.New(p, runtime.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.RunMain(context.Background()); err != nil {
			b.Fatal(err)
		}
		return sys
	}
	fail := dsl.Verify{Cond: formula.FalseF{}}

	b.Run("txn", func(b *testing.B) {
		sys := build(dsl.Txn{Body: []dsl.Expr{dsl.Assert{Prop: dsl.PRAt("P", "a")}, fail}})
		defer sys.Close()
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sys.Invoke(ctx, "i", "j"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scope", func(b *testing.B) {
		sys := build(dsl.Scope{Body: []dsl.Expr{dsl.Assert{Prop: dsl.PRAt("P", "a")}, fail}})
		defer sys.Close()
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sys.Invoke(ctx, "i", "j"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSerialization compares the reflection-driven serializer
// (§9) against hand-rolled encoding of the same record.
func BenchmarkAblationSerialization(b *testing.B) {
	op := wireOp{Get: true, Key: "key:000042", Value: make([]byte, 64), Found: true}
	b.Run("serial-reflect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			data, err := serial.Marshal(op)
			if err != nil {
				b.Fatal(err)
			}
			var out wireOp
			if err := serial.Unmarshal(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hand-rolled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Equivalent layout via the workload Op encoder used by direct.
			_ = workload.Djb2(op.Key) // routing cost parity
			data := encodeAblationOp(op)
			out, err := decodeAblationOp(data)
			if err != nil || out.Key != op.Key {
				b.Fatal(err)
			}
		}
	})
}

func encodeAblationOp(op wireOp) []byte {
	buf := make([]byte, 0, 2+len(op.Key)+4+len(op.Value)+2)
	if op.Get {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	if op.Found {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = append(buf, byte(len(op.Key)))
	buf = append(buf, op.Key...)
	buf = append(buf, byte(len(op.Value)>>8), byte(len(op.Value)))
	buf = append(buf, op.Value...)
	return buf
}

func decodeAblationOp(b []byte) (wireOp, error) {
	var op wireOp
	op.Get = b[0] == 1
	op.Found = b[1] == 1
	kl := int(b[2])
	op.Key = string(b[3 : 3+kl])
	rest := b[3+kl:]
	vl := int(rest[0])<<8 | int(rest[1])
	op.Value = append([]byte(nil), rest[2:2+vl]...)
	return op, nil
}
