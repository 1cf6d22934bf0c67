package main

import (
	"math"
	"regexp"
	"sort"
	"testing"
	"time"
)

// TestLedgerSmoke runs every workload through both passes for a fraction of
// a second with the oracle on, and pins the printed metric names to the ones
// BENCHMARK.json declares.
func TestLedgerSmoke(t *testing.T) {
	minSetups, probeBatch = 1, 200*time.Microsecond
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	declared := func(ms []specMetric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	printed := func(ms metrics) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.name)
		}
		sort.Strings(out)
		return out
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the ledger has %d", len(sp.Workloads), len(workloads))
	}
	for i := range workloads {
		w := workloads[i]
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the ledger", i, sp.Workloads[i].Name, w.name)
		}
		w.kv.keys = min(w.kv.keys, 400) // a short preload; the traffic mix is unchanged
		t.Run(w.name, func(t *testing.T) {
			for _, pass := range []struct {
				trace bool
				want  []string
			}{{false, declared(sp.EndToEnd)}, {true, declared(sp.PerLayer)}} {
				o, err := measure(&w, 1, 0.2, pass.trace, root)
				if err != nil {
					t.Fatal(err)
				}
				if o.err != nil || o.failed != 0 {
					t.Errorf("trace=%v: %d of %d requests failed, oracle: %v", pass.trace, o.failed, o.attempted, o.err)
				}
				got := printed(o.metrics)
				if len(got) != len(pass.want) {
					t.Fatalf("trace=%v: %d metrics printed, %d declared\nprinted  %v\ndeclared %v", pass.trace, len(got), len(pass.want), got, pass.want)
				}
				for k := range got {
					if got[k] != pass.want[k] {
						t.Errorf("trace=%v: printed %q where BENCHMARK.json declares %q", pass.trace, got[k], pass.want[k])
					}
					if !valid.MatchString(got[k]) {
						t.Errorf("metric name %q is not a valid name", got[k])
					}
				}
				for _, m := range o.metrics {
					if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
						t.Errorf("trace=%v: %s is %v", pass.trace, m.name, m.value)
					}
				}
				if pass.trace {
					if e := o.metrics.get("trace.cover_err_frac"); e > 0.05 {
						t.Errorf("self times miss an Invoke span by %.1f %%", 100*e)
					}
				}
			}
		})
	}
}

// TestSelfTimesSumToInvoke builds a request's span tree by hand.
func TestSelfTimesSumToInvoke(t *testing.T) {
	spans := []span{
		{kind: spInvoke, parent: -1, req: 1, start: 100, end: 1100},
		{kind: spChoose, parent: 0, req: 1, start: 110, end: 150},
		{kind: spCapture, parent: 0, req: 1, start: 160, end: 260},
		{kind: spEncode, parent: 2, req: 1, start: 170, end: 250, aux: 90},
		{kind: spUplink, parent: -1, req: 1, start: 270, end: 280, aux: 120},
		{kind: spHandle, parent: 0, req: 1, start: 500, end: 800},
		{kind: spApp, parent: 5, req: 1, start: 600, end: 700},
		{kind: spDeliver, parent: 0, req: 1, start: 1000, end: 1050},
	}
	d := digestSpans(spans)
	if d.requests != 1 || d.maxCoverErr != 0 {
		t.Fatalf("requests %d, cover error %v", d.requests, d.maxCoverErr)
	}
	for _, c := range []struct {
		what string
		h    *hist
		want float64
	}{
		{"invoke self", &d.invokeSelf, 1000 - 40 - 100 - 300 - 50},
		{"dispatch", &d.dispatch, 10},
		{"complete", &d.complete, 50},
		{"request hop", &d.hopRequest, 240},
		{"response hop", &d.hopResponse, 200},
	} {
		if got := c.h.quantile(0.5); math.Abs(got-c.want) > 0.02*c.want+1 {
			t.Errorf("%s: %v, want %v", c.what, got, c.want)
		}
	}
	// A hook that outlives its Invoke must show as a coverage error.
	spans[7].end = 1300
	if e := digestSpans(spans).maxCoverErr; e < 0.15 {
		t.Errorf("a hook reaching 200 ns past a 1000 ns Invoke gives cover error %v", e)
	}
	if d.encodeNs != 80 || d.appNs != 100 || d.hookNs != 490 || d.wireBytes != 120 || d.serialBytes != 90 {
		t.Errorf("digest %+v", d)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100000
		if got := h.quantile(q); math.Abs(got-want) > 0.01*want {
			t.Errorf("q%.2f = %v, want %v within 1 %%", q, got, want)
		}
	}
	if got, want := h.meanBetween(0.75, 0.95), 85000.0; math.Abs(got-want) > 0.01*want {
		t.Errorf("mean of the ranks between q0.75 and q0.95 = %v, want %v within 1 %%", got, want)
	}
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<40 + 12345} {
		lo, hi := histBounds(histIndex(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d lands in bucket [%v,%v)", v, lo, hi)
		}
	}
}
