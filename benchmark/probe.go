package main

import (
	goruntime "runtime"
	"time"
)

// Probes time a layer's exported functions standalone, on inputs shaped like
// the workload's. Each figure is the median of probeBatches batches.
const probeBatches = 5

var probeBatch = 8 * time.Millisecond // target length of one batch; the smoke test shortens it

// probe returns f's time and allocations per call.
func probe(f func()) (nsPerOp, allocsPerOp float64) {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if d := time.Since(t0); d >= probeBatch/4 || n >= 1<<20 {
			n = int(float64(n)*float64(probeBatch)/float64(d+1)) + 1
			break
		}
		n *= 4
	}
	ns := make([]float64, probeBatches)
	allocs := make([]float64, probeBatches)
	var ms0, ms1 goruntime.MemStats
	for b := range ns {
		goruntime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		d := time.Since(t0)
		goruntime.ReadMemStats(&ms1)
		ns[b] = float64(d.Nanoseconds()) / float64(n)
		allocs[b] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	}
	return median(ns), median(allocs)
}

// probes runs every layer probe for one workload.
func probes(w *workload) (metrics, error) {
	var m metrics
	for _, p := range []func(*workload, *metrics) error{probeRuntime, probeKV, probeSerial, probeCompart, probePlan} {
		if err := p(w, &m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// payloadSize is the size of the data a request of the workload carries.
func payloadSize(w *workload) int {
	if w.arch == archFanout {
		return 0
	}
	return w.kv.valueSize
}
