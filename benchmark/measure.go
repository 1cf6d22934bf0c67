package main

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"syscall"
	"time"
)

// metric is one named figure with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

type metrics []metric

func (m *metrics) add(name string, value float64, unit string) {
	*m = append(*m, metric{name, value, unit})
}

func (m metrics) get(name string) float64 {
	for _, x := range m {
		if x.name == name {
			return x.value
		}
	}
	return 0
}

// sliceStats is what one uninterrupted stretch of load on one side yields.
type sliceStats struct {
	reqs, failed   uint64
	wall, cpu      time.Duration
	lat            hist
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
}

func (s *sliceStats) perSec() float64 { return float64(s.reqs) / s.wall.Seconds() }
func (s *sliceStats) cpuPerReq() float64 {
	return float64(s.cpu.Nanoseconds()) / float64(s.reqs)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clientLoop is one closed-loop client: the next request is sent only after
// the previous answer was checked.
func clientLoop(s side, c int, deadline time.Time, st *sliceStats) {
	for {
		s.prepare(c)
		t0 := time.Now()
		err := s.execute(c)
		t1 := time.Now()
		st.lat.add(int64(t1.Sub(t0)))
		st.reqs++
		if err != nil || !s.verify(c) {
			st.failed++
		}
		if !t1.Before(deadline) {
			return
		}
	}
}

// runSlice loads one side for dur with its clients and reads the process
// counters around it. The migrator, when the rig has one, runs exactly as
// long as the slice.
func runSlice(r *rig, clients int, dur time.Duration) *sliceStats {
	per := make([]sliceStats, clients)
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	if r.mig != nil {
		r.mig.start()
	}
	t0 := time.Now()
	deadline := t0.Add(dur)
	if clients == 1 {
		clientLoop(r.side, 0, deadline, &per[0])
	} else {
		var wg sync.WaitGroup
		for c := range per {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				clientLoop(r.side, c, deadline, &per[c])
			}(c)
		}
		wg.Wait()
	}
	wall := time.Since(t0)
	if r.mig != nil {
		r.mig.halt()
	}
	cpu1 := cpuTime()
	goruntime.ReadMemStats(&ms1)
	if r.between != nil {
		r.between()
	}
	st := &sliceStats{
		wall:     wall,
		cpu:      cpu1 - cpu0,
		mallocs:  ms1.Mallocs - ms0.Mallocs,
		bytes:    ms1.TotalAlloc - ms0.TotalAlloc,
		gcCycles: ms1.NumGC - ms0.NumGC,
		gcPause:  time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs),
	}
	for i := range per {
		st.reqs += per[i].reqs
		st.failed += per[i].failed
		st.lat.merge(&per[i].lat)
	}
	return st
}

// Slice lengths as shares of the measured seconds: a warm-up of each side,
// then pairCount pairs of one DSL slice and one floor slice of the same
// length (the floor is the unit of every ratio, so its noise counts as much
// as the DSL's). A shorter run shortens the slices, never the pair count.
const (
	pairCount  = 10
	warmShare  = 0.5 / 21
	sliceShare = 1.0 / 21
)

// turns is how many times a pair switches between the sides: each side's
// slice is cut into that many pieces and the pieces alternate. The machine's
// speed drifts on the scale of a slice; alternating faster than it drifts
// puts both sides of a ratio under the same conditions.
const turns = 8

func share(seconds float64, s float64) time.Duration {
	return time.Duration(seconds * s * float64(time.Second))
}

// add folds another piece of the same slice into s.
func (s *sliceStats) add(o *sliceStats) {
	s.reqs += o.reqs
	s.failed += o.failed
	s.wall += o.wall
	s.cpu += o.cpu
	s.mallocs += o.mallocs
	s.bytes += o.bytes
	s.gcCycles += o.gcCycles
	s.gcPause += o.gcPause
	s.lat.merge(&o.lat)
}

// pairRun is the interleaved measurement of one workload.
type pairRun struct {
	dsl, floor []*sliceStats
	liveHeapMB float64
}

// runPairs warms both sides and then alternates DSL and floor slices in the
// same process, swapping which side goes first from pair to pair. No pair is
// discarded.
func runPairs(d, f *rig, clients int, seconds float64) *pairRun {
	runSlice(d, clients, share(seconds, warmShare))
	runSlice(f, clients, share(seconds, warmShare))
	p := &pairRun{}
	for i := 0; i < pairCount; i++ {
		ds, fs := &sliceStats{}, &sliceStats{}
		for t := 0; t < turns; t++ {
			dslTurn := func() { ds.add(runSlice(d, clients, share(seconds, sliceShare)/turns)) }
			floorTurn := func() { fs.add(runSlice(f, clients, share(seconds, sliceShare)/turns)) }
			if i%2 == 0 {
				dslTurn()
				floorTurn()
			} else {
				floorTurn()
				dslTurn()
			}
		}
		p.dsl, p.floor = append(p.dsl, ds), append(p.floor, fs)
	}
	// The DSL system is still up and idle: what it holds now is what it keeps.
	p.liveHeapMB = liveHeapMB()
	return p
}

// liveHeapMB is the size of the objects that survive two forced collections
// (the second empties what the first moved to the sync.Pool victim caches).
// HeapAlloc, not HeapInuse: the latter adds the unused parts of partly filled
// spans, which on a heap of a few MiB varies by a tenth from run to run.
func liveHeapMB() float64 {
	goruntime.GC()
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func (p *pairRun) totals() (attempted, failed uint64) {
	for _, side := range [][]*sliceStats{p.dsl, p.floor} {
		for _, s := range side {
			attempted += s.reqs
			failed += s.failed
		}
	}
	return
}

// ratios returns f(dsl_i) ÷ g(floor_i) for every pair.
func (p *pairRun) ratios(f, g func(*sliceStats) float64) []float64 {
	out := make([]float64, len(p.dsl))
	for i := range out {
		out[i] = f(p.dsl[i]) / g(p.floor[i])
	}
	return out
}

func p50(s *sliceStats) float64 { return s.lat.quantile(0.50) }

// tail is the mean latency of the slowest quarter of a slice's requests, the
// slowest twentieth left out. A single high percentile sits on the edge of
// whichever rare population the workload has (requests that meet a GC cycle,
// or a migration) and jumps when that edge moves; a mean over a range of
// ranks moves smoothly.
func tail(s *sliceStats) float64 { return s.lat.meanBetween(0.75, 0.95) }
func p99(s *sliceStats) float64  { return s.lat.quantile(0.99) }

// endToEnd derives the end-to-end metrics. Every ratio is the median over
// the per-pair ratios; counts are totals over the DSL slices.
func (p *pairRun) endToEnd(setupS float64) metrics {
	var reqs, mallocs, bytes uint64
	for _, s := range p.dsl {
		reqs += s.reqs
		mallocs += s.mallocs
		bytes += s.bytes
	}
	var m metrics
	m.add("overhead_x", median(p.ratios(p50, p50)), "ratio")
	m.add("thru_x", median(p.ratios((*sliceStats).perSec, (*sliceStats).perSec)), "ratio")
	m.add("cpu_x", median(p.ratios((*sliceStats).cpuPerReq, (*sliceStats).cpuPerReq)), "ratio")
	m.add("allocs_per_req", float64(mallocs)/float64(reqs), "count")
	m.add("bytes_per_req", float64(bytes)/float64(reqs), "bytes")
	m.add("live_heap_mb", p.liveHeapMB, "MiB")
	m.add("setup_s", setupS, "s")
	return m
}

func each(ss []*sliceStats, f func(*sliceStats) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// bases are the absolute figures under every ratio, and the noise the run
// saw. They are per-layer metrics: on this class of machine they do not
// repeat within a tenth from run to run, which is why the end-to-end
// metrics are ratios to the interleaved floor.
func (p *pairRun) bases(preload time.Duration) metrics {
	var reqs, fmallocs, freqs uint64
	var gcCycles uint32
	var gcPause time.Duration
	for _, s := range p.dsl {
		reqs += s.reqs
		gcCycles += s.gcCycles
		gcPause += s.gcPause
	}
	for _, s := range p.floor {
		fmallocs += s.mallocs
		freqs += s.reqs
	}
	attempted, failed := p.totals()
	var m metrics
	m.add("client.lat_p50_us", median(each(p.dsl, p50))/1e3, "us")
	m.add("client.lat_p99_us", median(each(p.dsl, p99))/1e3, "us")
	var latMax uint64
	for _, s := range p.dsl {
		latMax = max(latMax, s.lat.max)
	}
	m.add("client.lat_max_us", float64(latMax)/1e3, "us")
	m.add("client.req_per_s", median(each(p.dsl, (*sliceStats).perSec)), "1/s")
	m.add("client.cpu_us_per_req", median(each(p.dsl, (*sliceStats).cpuPerReq))/1e3, "us")
	m.add("client.samples", float64(reqs), "count")
	m.add("client.tail_x", median(p.ratios(tail, p50)), "ratio")
	m.add("client.tail99_x", median(p.ratios(p99, p50)), "ratio")
	m.add("client.pair_spread", spread(p.ratios(p50, p50)), "fraction")
	m.add("client.preload_s", preload.Seconds(), "s")
	m.add("client.fail_frac", float64(failed)/float64(attempted), "fraction")
	m.add("floor.lat_p50_us", median(each(p.floor, p50))/1e3, "us")
	m.add("floor.req_per_s", median(each(p.floor, (*sliceStats).perSec)), "1/s")
	m.add("floor.cpu_us_per_req", median(each(p.floor, (*sliceStats).cpuPerReq))/1e3, "us")
	m.add("floor.allocs_per_req", float64(fmallocs)/float64(freqs), "count")
	m.add("go.gc_cycles", float64(gcCycles), "count")
	m.add("go.gc_pause_ms", float64(gcPause.Microseconds())/1e3, "ms")
	m.add("go.gomaxprocs", float64(goruntime.GOMAXPROCS(0)), "count")
	return m
}

// Set-up is repeated at least minSetups times and then until setupBudget is
// spent (at most maxSetups), so that a set-up of a few milliseconds is as
// steady as one of a second. The last system built is the one measured.
const (
	maxSetups   = 25
	setupBudget = time.Second
)

var minSetups = 5 // the smoke test sets up once

// setUp measures build → runtime.New → listeners and dial → start → preload
// → first verified reply, and returns the last rig with the median time.
func setUp(w *workload, kt *keyTable, seed int64) (*rig, float64, error) {
	var times []float64
	var spent time.Duration
	for {
		t0 := time.Now()
		r, err := buildDSL(w, kt, seed, nil, nil)
		d := time.Since(t0)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up %d: %w", len(times)+1, err)
		}
		times = append(times, d.Seconds())
		spent += d
		if n := len(times); n >= maxSetups || n >= minSetups && spent >= setupBudget {
			return r, median(times), nil
		}
		r.close()
		goruntime.GC()
	}
}
