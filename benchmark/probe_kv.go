package main

import (
	"sync/atomic"
	"time"

	"csaw/internal/kv"
)

// backTable is a table declared like a sharding back-end's junction.
func backTable(payload []byte) *kv.Table {
	t := kv.NewTable()
	t.DeclareProp("Work", false)
	t.DeclareProp("Retried", false)
	t.DeclareProp("U", false)
	t.DeclareData("n")
	t.DeclareData("m")
	if len(payload) > 0 {
		_ = t.SetData("n", payload)
		_ = t.SetData("m", payload)
	}
	return t
}

func probeKV(w *workload, m *metrics) error {
	payload := make([]byte, payloadSize(w))
	// One request's update mix as its destination table sees it: a data
	// write followed by a proposition flip on the key-value workloads, a run
	// of asserts of one proposition (a typical batch) on the fan-out.
	mix := []kv.Update{
		{Kind: kv.UpdateData, Key: "n", Data: payload, From: "Fnt::junction"},
		{Kind: kv.UpdateProp, Key: "Work", Bool: true, From: "Fnt::junction"},
	}
	if w.arch == archFanout {
		mix = make([]kv.Update, 6)
		for i := range mix {
			mix[i] = kv.Update{Kind: kv.UpdateProp, Key: "U", Bool: true, From: "s0::push"}
		}
	}
	t := backTable(payload)
	ns, allocs := probe(func() {
		t.EnqueueBatch(mix)
		t.ApplyPending()
	})
	m.add("kv.apply_ns_per_update", ns/float64(len(mix)), "ns")
	m.add("kv.allocs_per_update", allocs/float64(len(mix)), "count")

	v := false
	ns, _ = probe(func() {
		v = !v
		_ = t.SetProp("Work", v)
	})
	m.add("kv.setprop_ns", ns, "ns")

	// Enqueue on one goroutine to a subscriber blocked on another: the wake
	// a guarded junction's driver sees.
	sub := t.Subscribe([]string{"Work"}, nil)
	woke := make(chan time.Time)
	done := make(chan struct{})
	var stopping atomic.Bool
	go func() {
		defer close(done)
		for range sub.Ch() {
			now := time.Now()
			if stopping.Load() {
				return
			}
			if t.ApplyPending() > 0 { // applying wakes the key again: that token finds nothing pending
				woke <- now
			}
		}
	}()
	var wake hist
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		t.Enqueue(kv.Update{Kind: kv.UpdateProp, Key: "Work", Bool: i%2 == 0, From: "Fnt::junction"})
		wake.add(int64((<-woke).Sub(t0)))
	}
	stopping.Store(true)
	_ = t.SetProp("Work", true) // one last wake, to see the flag
	<-done
	t.Unsubscribe(sub)
	m.add("kv.wait_wake_ns", wake.quantile(0.5), "ns")

	ns, _ = probe(func() { t.RestoreAll(t.SnapshotAll()) })
	m.add("kv.snapshot_us", ns/1e3, "us")
	return nil
}
