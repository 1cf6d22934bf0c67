package obsv

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestObserverDisabledEmitsNothing(t *testing.T) {
	o := NewObserver()
	if o.Tracing() || o.Timing() {
		t.Fatal("fresh observer must have tracing and timing off")
	}
	o.Emit(Event{Kind: EvSchedFire, Junction: "i::j"}) // must be a no-op
	r := NewRingSink(8)
	o.SetSink(r)
	if !o.Tracing() || !o.Timing() {
		t.Fatal("SetSink must enable tracing and timing")
	}
	o.Emit(Event{Kind: EvSchedFire, Junction: "i::j"})
	o.SetSink(nil)
	o.Emit(Event{Kind: EvSchedFire, Junction: "i::j"})
	evs := r.Events()
	if len(evs) != 1 {
		t.Fatalf("want exactly 1 event (enabled window only), got %d", len(evs))
	}
	if evs[0].Seq == 0 || evs[0].At.IsZero() {
		t.Fatalf("emitted event must be stamped: %+v", evs[0])
	}
}

func TestTimingIndependentOfSink(t *testing.T) {
	o := NewObserver()
	o.EnableTiming(true)
	if !o.Timing() || o.Tracing() {
		t.Fatal("EnableTiming must not enable tracing")
	}
	o.EnableTiming(false)
	if o.Timing() {
		t.Fatal("timing must clear")
	}
}

func TestRingSinkWrapsInOrder(t *testing.T) {
	r := NewRingSink(4)
	for i := 1; i <= 6; i++ {
		r.Emit(Event{Seq: uint64(i), Kind: EvSchedFire})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("want 4 retained events, got %d", len(evs))
	}
	for i, e := range evs {
		if want := uint64(i + 3); e.Seq != want {
			t.Fatalf("event %d: want seq %d, got %d", i, want, e.Seq)
		}
	}
	if r.Dropped() != 2 {
		t.Fatalf("want 2 dropped, got %d", r.Dropped())
	}
}

// TestRingSinkKeepsSeqOrder: emitters racing through one Observer stamp Seq
// before the sink's lock, so they can reach the sink out of order; the ring
// must still hold its events in Seq order, wrapped or not.
func TestRingSinkKeepsSeqOrder(t *testing.T) {
	const emitters, each = 4, 50
	for round := 0; round < 200; round++ {
		o := NewObserver()
		r := NewRingSink(emitters * each * (1 + round%2) / 2)
		o.SetSink(r)
		var wg sync.WaitGroup
		for g := 0; g < emitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					o.Emit(Event{Kind: EvSchedFire, Junction: "i::j"})
				}
			}()
		}
		wg.Wait()
		evs := r.Events()
		if len(evs) != len(r.events) {
			t.Fatalf("round %d: %d events retained, want %d", round, len(evs), len(r.events))
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].Seq <= evs[i-1].Seq {
				t.Fatalf("round %d: seq %d after %d", round, evs[i].Seq, evs[i-1].Seq)
			}
		}
	}
}

func TestRingSinkFind(t *testing.T) {
	r := NewRingSink(16)
	r.Emit(Event{Seq: 1, Kind: EvSchedFire, Junction: "a::x"})
	r.Emit(Event{Seq: 2, Kind: EvSchedError, Junction: "a::x"})
	r.Emit(Event{Seq: 3, Kind: EvSchedFire, Junction: "b::y"})
	if got := len(r.Find(EvSchedFire, "")); got != 2 {
		t.Fatalf("Find(fire, *): want 2, got %d", got)
	}
	if got := len(r.Find(KindUnknown, "a::x")); got != 2 {
		t.Fatalf("Find(*, a::x): want 2, got %d", got)
	}
	if got := len(r.Find(EvSchedFire, "b::y")); got != 1 {
		t.Fatalf("Find(fire, b::y): want 1, got %d", got)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	o := NewObserver()
	o.SetSink(s)
	o.Emit(Event{Kind: EvGuardEval, Junction: "i::j", Truth: "unknown"})
	o.Emit(Event{Kind: EvSchedFire, Junction: "i::j", Dur: 42 * time.Microsecond})
	o.Emit(Event{Kind: EvSchedError, Junction: "i::j", Err: "boom"})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("emitted JSONL does not validate: %v", err)
	}
	if n != 3 {
		t.Fatalf("want 3 validated events, got %d", n)
	}
	if !strings.Contains(buf.String(), `"kind":"guard.eval"`) ||
		!strings.Contains(buf.String(), `"truth":"unknown"`) ||
		!strings.Contains(buf.String(), `"dur_ns":42000`) {
		t.Fatalf("unexpected JSONL output:\n%s", buf.String())
	}
}

func TestValidateJSONLRejectsGarbage(t *testing.T) {
	cases := []string{
		"not json\n",
		`{"seq":1,"at":"2026-01-01T00:00:00Z"}` + "\n",            // missing kind
		`{"seq":0,"at":"2026-01-01T00:00:00Z","kind":"x"}` + "\n", // missing seq
		`{"seq":1,"at":"yesterday","kind":"x"}` + "\n",            // bad timestamp
	}
	for i, c := range cases {
		if _, err := ValidateJSONL(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: want validation error for %q", i, c)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations: 90 at ~1us, 9 at ~1ms, 1 at ~100ms.
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 9; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(100 * time.Millisecond)
	q := h.digest()
	if q.Count != 100 {
		t.Fatalf("count: want 100, got %d", q.Count)
	}
	if q.P50 < time.Microsecond || q.P50 > 4*time.Microsecond {
		t.Errorf("p50: want ~1-4us bucket bound, got %v", q.P50)
	}
	if q.P95 < time.Millisecond || q.P95 > 4*time.Millisecond {
		t.Errorf("p95: want ~1-4ms bucket bound, got %v", q.P95)
	}
	// Rank 99 of 100 is the last ~1ms sample: p99 lands in the same bucket
	// as p95; only Max sees the 100ms outlier.
	if q.P99 < q.P95 {
		t.Errorf("p99 (%v) must be >= p95 (%v)", q.P99, q.P95)
	}
	if q.Max != 100*time.Millisecond {
		t.Errorf("max: want 100ms, got %v", q.Max)
	}
	if q.Mean <= 0 {
		t.Errorf("mean must be positive, got %v", q.Mean)
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	var h Histogram
	if q := h.digest(); q.Count != 0 || q.P99 != 0 {
		t.Fatalf("empty digest must be zero: %+v", q)
	}
	h.Observe(-time.Second) // clamped to zero, must not panic
	if q := h.digest(); q.Count != 1 {
		t.Fatalf("negative observation must still count: %+v", q)
	}
}

func TestJunctionMetricsEpochReset(t *testing.T) {
	o := NewObserver()
	m := o.Junction("i::j")
	m.Schedulings.Add(5)
	m.Sched.Observe(time.Millisecond)
	o.ResetJunction("i::j")
	snap := o.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("want 1 junction, got %d", len(snap))
	}
	s := snap[0]
	if s.Epoch != 1 {
		t.Errorf("epoch: want 1, got %d", s.Epoch)
	}
	if s.Schedulings != 0 || s.SchedLatency.Count != 0 {
		t.Errorf("counters must reset: %+v", s)
	}
	if o.Junction("i::j") != m {
		t.Error("registry must return the same metrics pointer")
	}
}

func TestSnapshotSorted(t *testing.T) {
	o := NewObserver()
	for _, fq := range []string{"z::z", "a::a", "m::m"} {
		o.Junction(fq).Fires.Add(1)
	}
	snap := o.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Junction > snap[i].Junction {
			t.Fatalf("snapshot not sorted: %v before %v", snap[i-1].Junction, snap[i].Junction)
		}
	}
}

func TestObserverConcurrent(t *testing.T) {
	o := NewObserver()
	r := NewRingSink(1024)
	o.SetSink(r)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fq := fmt.Sprintf("i::%d", g%4)
			m := o.Junction(fq)
			for i := 0; i < 200; i++ {
				m.Fires.Add(1)
				m.Sched.Observe(time.Duration(i) * time.Microsecond)
				if o.Tracing() {
					o.Emit(Event{Kind: EvSchedFire, Junction: fq})
				}
				if i == 100 && g == 0 {
					o.ResetJunction(fq)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(o.Snapshot()); got != 4 {
		t.Fatalf("want 4 junctions, got %d", got)
	}
}
