package workload

import (
	"math/rand"
	"strings"
	"testing"
)

func TestDjb2KnownValues(t *testing.T) {
	// Reference values computed with the canonical djb2 (hash*33 + c).
	if got := Djb2(""); got != 5381 {
		t.Errorf("djb2(\"\") = %d", got)
	}
	if got := Djb2("a"); got != 5381*33+97 {
		t.Errorf("djb2(\"a\") = %d", got)
	}
	if Djb2("key:000001") == Djb2("key:000002") {
		t.Error("trivially colliding hash")
	}
}

func TestKVStreamDeterminism(t *testing.T) {
	cfg := KVConfig{Keys: 100, ReadFraction: 0.5, Seed: 9}
	a, b := NewKVStream(cfg), NewKVStream(cfg)
	for i := 0; i < 100; i++ {
		x, y := a.Next(), b.Next()
		if x.Get != y.Get || x.Key != y.Key {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestKVStreamReadFraction(t *testing.T) {
	s := NewKVStream(KVConfig{Keys: 100, ReadFraction: 0.9, Seed: 1})
	reads := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if s.Next().Get {
			reads++
		}
	}
	if reads < n*80/100 || reads > n*97/100 {
		t.Fatalf("reads = %d/%d, want ≈90%%", reads, n)
	}
}

// TestKVStreamSkew verifies the 90/10 skew of the caching experiment: with
// HotProbability 0.9 and HotFraction 0.1, ~90% of requests hit the hot 10%.
func TestKVStreamSkew(t *testing.T) {
	s := NewKVStream(KVConfig{Keys: 1000, ReadFraction: 1, HotFraction: 0.1, HotProbability: 0.9, Seed: 2})
	hot := 0
	const n = 10000
	for i := 0; i < n; i++ {
		op := s.Next()
		var idx int
		if _, err := parseKey(op.Key, &idx); err != nil {
			t.Fatal(err)
		}
		if idx < 100 {
			hot++
		}
	}
	frac := float64(hot) / n
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("hot fraction = %.3f, want ≈0.9", frac)
	}
}

func parseKey(k string, idx *int) (int, error) {
	var n int
	_, err := sscanf(k, idx)
	n = *idx
	return n, err
}

func sscanf(k string, idx *int) (int, error) {
	s := strings.TrimPrefix(k, "key:")
	v := 0
	for _, c := range s {
		v = v*10 + int(c-'0')
	}
	*idx = v
	return 1, nil
}

func TestSizeClasses(t *testing.T) {
	classes := PaperSizeClasses()
	if len(classes) != 3 {
		t.Fatalf("classes = %d", len(classes))
	}
	rng := rand.New(rand.NewSource(4))
	for _, c := range classes {
		for i := 0; i < 50; i++ {
			v := SizedValue(rng, c)
			if len(v) < c.MinBytes || len(v) > c.MaxBytes {
				t.Fatalf("class %s produced %d bytes", c.Name, len(v))
			}
		}
	}
}

func TestFlowTrace(t *testing.T) {
	tr := NewFlowTrace(FlowTraceConfig{Flows: 50, MeanPackets: 20, Seed: 5, SuspiciousFraction: 0.1})
	total := tr.TotalPackets()
	if total <= 0 {
		t.Fatal("empty trace")
	}
	seen := 0
	flows := map[string]bool{}
	sus := 0
	for {
		p, ok := tr.Next()
		if !ok {
			break
		}
		seen++
		flows[p.Flow.FiveTupleKey()] = true
		if strings.Contains(string(p.Payload), "EVIL") {
			sus++
		}
		if p.Len < 64 || p.Len > 1464 {
			t.Fatalf("packet len %d", p.Len)
		}
		if seen > total {
			t.Fatal("trace emitted more packets than TotalPackets")
		}
	}
	if seen != total {
		t.Fatalf("emitted %d, TotalPackets said %d", seen, total)
	}
	if len(flows) == 0 || len(flows) > 50 {
		t.Fatalf("flows = %d", len(flows))
	}
	if sus == 0 {
		t.Fatal("no suspicious packets generated")
	}
}

func TestFlowTraceDeterminism(t *testing.T) {
	cfg := FlowTraceConfig{Flows: 10, MeanPackets: 5, Seed: 6}
	a, b := NewFlowTrace(cfg), NewFlowTrace(cfg)
	for {
		pa, oka := a.Next()
		pb, okb := b.Next()
		if oka != okb {
			t.Fatal("traces diverged in length")
		}
		if !oka {
			break
		}
		if pa.Flow != pb.Flow || pa.Len != pb.Len {
			t.Fatal("traces diverged in content")
		}
	}
}

func TestFileSizeSweeps(t *testing.T) {
	small := SmallFileSizes()
	large := LargeFileSizes()
	if len(small) == 0 || len(large) == 0 {
		t.Fatal("empty sweeps")
	}
	for i := 1; i < len(small); i++ {
		if small[i] <= small[i-1] {
			t.Fatal("small sizes not increasing")
		}
	}
	if large[0] <= small[len(small)-1]/8 {
		t.Fatal("large sweep should start above the small sweep")
	}
}
