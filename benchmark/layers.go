package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"csaw/internal/obsv"
)

const (
	// spanCapacity bounds the traced pass: it ends early when the span
	// buffer is nearly full.
	spanCapacity = 1_500_000
	// The trace file keeps the first traceFileRequests requests of each
	// client, and at most traceFileLines spans.
	traceFileRequests = 5000
	traceFileLines    = 100_000
)

// tracedRun is the raw outcome of a traced pass.
type tracedRun struct {
	reqs, failed  uint64
	lat, hit, mis hist
	hitWithRemote uint64 // cache hits that carried a remote.queued event
	wall          time.Duration
}

// tracedPass builds a second system with the tracer in the glue and an obsv
// sink in Options.Trace, loads it for dur, and turns spans, events and public
// counters into the per-layer metrics. untracedP50 (ns) is the base of the
// tracing overhead; pm are the probe figures the unattributed time needs.
//
// The returned outcome's err is an assertion of the pass that did not hold;
// the error is a failure to run it at all.
func tracedPass(w *workload, kt *keyTable, seed int64, dur time.Duration, untracedP50 float64, pm metrics, root string) (*outcome, error) {
	tr := newTracer(spanCapacity)
	sink := &eventSink{}
	r, err := buildDSL(w, kt, seed, tr, sink)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	// Preload is not part of the pass: forget its events, take the counters'
	// starting values, and only now start recording spans.
	r.sys.quiesce()
	sink.reset()
	tr.on.Store(true)
	sends0 := r.sys.netSends()
	msgs0, batches0, batched0, _ := r.sys.wire()
	var ops0 []uint64
	if r.ops != nil {
		ops0 = r.ops()
	}
	var hits0, misses0 uint64
	if r.kv != nil {
		hits0, misses0 = r.kv.gen.hits, r.kv.gen.misses
	}

	run := &tracedRun{}
	if r.mig != nil {
		r.mig.start()
	}
	t0 := time.Now()
	deadline := t0.Add(dur)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local tracedRun
			for time.Now().Before(deadline) && !tr.full() {
				r.side.prepare(c)
				s := time.Now()
				err := r.side.execute(c)
				d := int64(time.Since(s))
				local.lat.add(d)
				local.reqs++
				if err != nil || !r.side.verify(c) {
					local.failed++
				}
				if r.kv != nil { // one client: the events since the last request are this request's
					queued := sink.curQueued.Swap(0)
					switch {
					case r.kv.hit:
						local.hit.add(d)
						if queued > 0 {
							local.hitWithRemote++
						}
					case r.kv.get:
						local.mis.add(d)
					}
				}
			}
			mu.Lock()
			run.reqs += local.reqs
			run.failed += local.failed
			run.hitWithRemote += local.hitWithRemote
			run.lat.merge(&local.lat)
			run.hit.merge(&local.hit)
			run.mis.merge(&local.mis)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	run.wall = time.Since(t0)
	if r.mig != nil {
		r.mig.halt()
	}
	conserved := r.sys.quiesce()
	checkErr := r.check()
	msgs, batches, batched, dropped := r.sys.wire()
	sends := r.sys.netSends() - sends0
	var ops []uint64
	if r.ops != nil {
		ops = r.ops()
	}
	// The spans are read only after every goroutine that wrote one is gone.
	tr.on.Store(false)
	r.close()

	spans := tr.spans()
	if err := writeTrace(filepath.Join(root, "benchmark", "out", "trace-"+w.name+".jsonl"), spans, traceFileRequests, traceFileLines); err != nil {
		return nil, err
	}
	d := digestSpans(spans)
	n := float64(run.reqs)
	msgs, batches, batched = msgs-msgs0, batches-batches0, batched-batched0
	us := func(h *hist, q float64) float64 { return h.quantile(q) / 1e3 }

	var m metrics
	invokeSelf := us(&d.invokeSelf, 0.5)
	updates := float64(sink.count(obsv.EvRemoteQueued)) / n
	// What the probes say kv and compart should cost this request: every
	// update applied once, every frame handed to a network once, and half a
	// TCP echo for every frame that crossed the wire.
	estimate := updates*pm.get("kv.apply_ns_per_update")/1e3 +
		float64(sends)/n*pm.get("compart.inproc_send_us") +
		float64(msgs)/n*pm.get("compart.tcp_rtt_us")/2
	m.add("runtime.invoke_self_us", invokeSelf, "us")
	m.add("runtime.dispatch_us", us(&d.dispatch, 0.5), "us")
	m.add("runtime.complete_us", us(&d.complete, 0.5), "us")
	m.add("runtime.unattributed_us", invokeSelf-estimate, "us")
	m.add("runtime.schedulings_per_req", float64(sink.count(obsv.EvSchedStart))/n, "count")
	m.add("runtime.guard_evals_per_req", float64(sink.count(obsv.EvGuardEval))/n, "count")
	m.add("runtime.sched_p50_us", us(&sink.sched, 0.5), "us")
	m.add("runtime.ack_wait_p50_us", us(&sink.ack, 0.5), "us")
	m.add("runtime.ack_wait_p99_us", us(&sink.ack, 0.99), "us")
	var migDone, migErrs float64
	if r.mig != nil {
		migDone, migErrs = float64(r.mig.done.Load()), float64(r.mig.errs.Load())
	}
	m.add("runtime.migrate_call_ms_p50", d.migrate.quantile(0.5)/1e6, "ms")
	m.add("runtime.migrate_call_ms_max", float64(d.migrateMaxNs)/1e6, "ms")
	m.add("runtime.migrations", migDone, "count")
	m.add("runtime.migrations_per_s", migDone/run.wall.Seconds(), "1/s")
	m.add("runtime.migrate_errors", migErrs, "count")
	m.add("client.overlap_lat_p50_us", us(&d.overlapLat, 0.5), "us")
	m.add("client.overlap_lat_p99_us", us(&d.overlapLat, 0.99), "us")
	m.add("hop.request_us", us(&d.hopRequest, 0.5), "us")
	m.add("hop.response_us", us(&d.hopResponse, 0.5), "us")
	m.add("kv.updates_per_req", updates, "count")
	m.add("serial.encode_ns_per_req", float64(d.encodeNs)/n, "ns")
	m.add("serial.decode_ns_per_req", float64(d.decodeNs)/n, "ns")
	m.add("serial.bytes_per_req", float64(d.serialBytes)/n, "bytes")
	m.add("compart.msgs_per_req", float64(msgs)/n, "count")
	m.add("compart.wire_bytes_per_req", float64(d.wireBytes)/n, "bytes")
	m.add("compart.uplink_send_ns", d.uplink.quantile(0.5), "ns")
	m.add("compart.batches_per_req", float64(batches)/n, "count")
	perBatch := 0.0
	if batches > 0 {
		perBatch = float64(batched) / float64(batches)
	}
	m.add("compart.msgs_per_batch", perBatch, "count")
	m.add("compart.dropped", float64(dropped), "count")
	m.add("compart.conserved", b2f(conserved), "count")
	m.add("compart.net_sends_per_req", float64(sends)/n, "count")
	hitFrac, skew := 0.0, 0.0
	if r.kv != nil && w.kv.cached {
		h, ms := r.kv.gen.hits-hits0, r.kv.gen.misses-misses0
		hitFrac = float64(h) / float64(h+ms)
	}
	if r.ops != nil {
		lo, hi := ^uint64(0), uint64(0)
		for i, o := range ops {
			o -= ops0[i]
			lo, hi = min(lo, o), max(hi, o)
		}
		skew = float64(hi) / float64(max(lo, 1))
	}
	m.add("patterns.cache_hit_frac", hitFrac, "fraction")
	m.add("client.hit_lat_p50_us", us(&run.hit, 0.5), "us")
	m.add("client.miss_lat_p50_us", us(&run.mis, 0.5), "us")
	m.add("patterns.shard_skew", skew, "ratio")
	appNs := 0.0
	if d.appCalls > 0 {
		appNs = float64(d.appNs) / float64(d.appCalls)
	}
	m.add("miniredis.op_ns", appNs, "ns")
	m.add("hook.glue_us", float64(d.hookNs-d.encodeNs-d.decodeNs-d.appNs)/n/1e3, "us")
	m.add("obsv.trace_overhead_x", run.lat.quantile(0.5)/untracedP50, "ratio")
	m.add("obsv.events_per_req", float64(sink.total())/n, "count")
	m.add("trace.cover_err_frac", d.maxCoverErr, "fraction")
	m.add("trace.hit_with_remote", float64(run.hitWithRemote), "count")

	violations := []error{checkErr}
	if d.maxCoverErr > 0.05 {
		violations = append(violations, fmt.Errorf("self times miss an Invoke span by %.1f %%", 100*d.maxCoverErr))
	}
	if run.hitWithRemote > 0 {
		violations = append(violations, fmt.Errorf("%d cache hits carried a remote update", run.hitWithRemote))
	}
	if !w.tcp && (msgs != 0 || d.wireBytes != 0) {
		violations = append(violations, fmt.Errorf("%d frames on the wire of a one-location workload", msgs))
	}
	o := &outcome{metrics: m, attempted: run.reqs, failed: run.failed}
	if err := errors.Join(violations...); err != nil {
		o.err = fmt.Errorf("traced pass: %w", err)
	}
	return o, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
