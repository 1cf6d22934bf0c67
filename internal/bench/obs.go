package bench

import (
	"sync"

	"csaw/internal/dsl"
	"csaw/internal/obsv"
	"csaw/internal/runtime"
)

// Package-level observability settings applied to every system the
// experiments construct. csaw-bench sets them from its flags before any
// experiment runs; they are not meant to change mid-experiment.
var (
	obsMu      sync.Mutex
	obsSink    obsv.Sink
	obsMetrics bool
	obsSystems []*runtime.System
)

// SetTraceSink installs a trace sink on every system subsequently built by
// the experiments (csaw-bench -trace). Pass nil to disable.
func SetTraceSink(s obsv.Sink) {
	obsMu.Lock()
	obsSink = s
	obsMu.Unlock()
}

// EnableMetrics turns on latency-histogram timing for subsequently built
// systems (csaw-bench -metrics).
func EnableMetrics(on bool) {
	obsMu.Lock()
	obsMetrics = on
	obsMu.Unlock()
}

// newSystem builds a runtime system with the package-level observability
// settings applied and records it for DrainMetrics. All experiment glue goes
// through here instead of calling runtime.New directly.
func newSystem(prog *dsl.Program) (*runtime.System, error) {
	obsMu.Lock()
	opts := runtime.Options{Trace: obsSink, Metrics: obsMetrics}
	obsMu.Unlock()
	sys, err := runtime.New(prog, opts)
	if err != nil {
		return nil, err
	}
	obsMu.Lock()
	obsSystems = append(obsSystems, sys)
	obsMu.Unlock()
	return sys, nil
}

// DrainMetrics snapshots and forgets every system built since the last
// drain. Counters survive System.Close, so the snapshot is valid even after
// an experiment tore its systems down.
func DrainMetrics() []runtime.Metrics {
	obsMu.Lock()
	defer obsMu.Unlock()
	out := make([]runtime.Metrics, 0, len(obsSystems))
	for _, s := range obsSystems {
		out = append(out, s.Metrics())
	}
	obsSystems = nil
	return out
}
