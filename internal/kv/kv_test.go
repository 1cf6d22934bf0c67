package kv

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestDeclareAndRead(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("Work", false)
	tb.DeclareData("n")

	if v, err := tb.Prop("Work"); err != nil || v {
		t.Fatalf("Work = %v, %v; want false, nil", v, err)
	}
	if tb.PropCell("Work") == nil || tb.PropCell("Other") != nil {
		t.Fatalf("PropCell wrong")
	}
	if tb.DataCell("n") == nil || tb.DataCell("m") != nil {
		t.Fatalf("DataCell wrong")
	}
}

func TestUndefSemantics(t *testing.T) {
	tb := NewTable()
	tb.DeclareData("n")
	if _, err := tb.Data("n"); !errors.Is(err, ErrUndef) {
		t.Fatalf("reading undef: err = %v, want ErrUndef", err)
	}
	if tb.Defined("n") {
		t.Fatal("undef slot reports Defined")
	}
	if err := tb.SetData("n", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	got, err := tb.Data("n")
	if err != nil || string(got) != "hi" {
		t.Fatalf("Data = %q, %v", got, err)
	}
	if !tb.Defined("n") {
		t.Fatal("defined slot reports undef")
	}
}

func TestUndeclaredErrors(t *testing.T) {
	tb := NewTable()
	if _, err := tb.Prop("P"); !errors.Is(err, ErrUndeclared) {
		t.Errorf("Prop: %v", err)
	}
	if err := tb.SetProp("P", true); !errors.Is(err, ErrUndeclared) {
		t.Errorf("SetProp: %v", err)
	}
	if _, err := tb.Data("n"); !errors.Is(err, ErrUndeclared) {
		t.Errorf("Data: %v", err)
	}
	if err := tb.SetData("n", nil); !errors.Is(err, ErrUndeclared) {
		t.Errorf("SetData: %v", err)
	}
}

func TestPendingAppliedAtScheduling(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("Work", false)
	tb.Enqueue(Update{Kind: UpdateProp, Key: "Work", Bool: true, From: "g"})

	// Not yet applied.
	if v, _ := tb.Prop("Work"); v {
		t.Fatal("pending update applied before scheduling")
	}
	if tb.PendingLen() != 1 {
		t.Fatalf("PendingLen = %d", tb.PendingLen())
	}
	if n := tb.ApplyPending(); n != 1 {
		t.Fatalf("ApplyPending = %d", n)
	}
	if v, _ := tb.Prop("Work"); !v {
		t.Fatal("update lost")
	}
}

func TestPendingOrderPreserved(t *testing.T) {
	tb := NewTable()
	tb.DeclareData("n")
	tb.Enqueue(Update{Kind: UpdateData, Key: "n", Data: []byte("first")})
	tb.Enqueue(Update{Kind: UpdateData, Key: "n", Data: []byte("second")})
	tb.ApplyPending()
	got, _ := tb.Data("n")
	if string(got) != "second" {
		t.Fatalf("updates applied out of order: %q", got)
	}
}

// TestLocalPriority encodes the paper's §8 rule: "If state updates arrive at
// a running junction, and that junction updates that same state, then the
// pending update will be ignored."
func TestLocalPriority(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("Work", false)
	tb.DeclareData("n")

	tb.Enqueue(Update{Kind: UpdateProp, Key: "Work", Bool: true})
	tb.Enqueue(Update{Kind: UpdateData, Key: "n", Data: []byte("remote")})

	// Local writes discard the pending updates for the same keys.
	if err := tb.SetProp("Work", false); err != nil {
		t.Fatal(err)
	}
	if err := tb.SetData("n", []byte("local")); err != nil {
		t.Fatal(err)
	}
	if tb.PendingLen() != 0 {
		t.Fatalf("PendingLen = %d, want 0 after local overwrite", tb.PendingLen())
	}
	tb.ApplyPending()
	if v, _ := tb.Prop("Work"); v {
		t.Fatal("remote prop update survived local write")
	}
	if d, _ := tb.Data("n"); string(d) != "local" {
		t.Fatalf("n = %q, want local", d)
	}
}

func TestLocalPriorityOnlyDropsSameKey(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("A", false)
	tb.DeclareProp("B", false)
	tb.Enqueue(Update{Kind: UpdateProp, Key: "A", Bool: true})
	tb.Enqueue(Update{Kind: UpdateProp, Key: "B", Bool: true})
	if err := tb.SetProp("A", false); err != nil {
		t.Fatal(err)
	}
	if tb.PendingLen() != 1 {
		t.Fatalf("PendingLen = %d, want 1 (B's update kept)", tb.PendingLen())
	}
	tb.ApplyPending()
	if b, _ := tb.Prop("B"); !b {
		t.Fatal("B's update lost")
	}
}

func TestKeepIsIdempotent(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("P", false)
	tb.DeclareData("n")
	tb.Enqueue(Update{Kind: UpdateProp, Key: "P", Bool: true})
	tb.Enqueue(Update{Kind: UpdateData, Key: "n", Data: []byte("x")})

	tb.Keep([]string{"P"}, []string{"n"})
	if tb.PendingLen() != 0 {
		t.Fatalf("Keep did not discard: %d left", tb.PendingLen())
	}
	// Idempotent: calling again on an empty queue is a no-op.
	tb.Keep([]string{"P"}, []string{"n"})
	if tb.PendingLen() != 0 {
		t.Fatal("Keep not idempotent")
	}
}

func TestWaitAdmitsOnlyWaitSet(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("Work", true)
	tb.DeclareProp("Other", false)
	tb.DeclareData("m")
	tb.DeclareData("x")

	h := tb.BeginWait(tb.Bind([]string{"Work"}, []string{"m"}))
	defer tb.EndWait(h)

	tb.Enqueue(Update{Kind: UpdateProp, Key: "Work", Bool: false}) // admitted
	tb.Enqueue(Update{Kind: UpdateProp, Key: "Other", Bool: true}) // queued
	tb.Enqueue(Update{Kind: UpdateData, Key: "m", Data: []byte("payload")})
	tb.Enqueue(Update{Kind: UpdateData, Key: "x", Data: []byte("nope")}) // queued

	if v, _ := tb.Prop("Work"); v {
		t.Fatal("wait-set prop update not applied immediately")
	}
	if d, _ := tb.Data("m"); string(d) != "payload" {
		t.Fatalf("wait-set data update not applied: %v", d)
	}
	if v, _ := tb.Prop("Other"); v {
		t.Fatal("non-wait-set update leaked through during wait")
	}
	if tb.Defined("x") {
		t.Fatal("non-wait-set data leaked through during wait")
	}
	if tb.PendingLen() != 2 {
		t.Fatalf("PendingLen = %d, want 2", tb.PendingLen())
	}
}

func TestBeginWaitDrainsRacedUpdates(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("Work", true)
	// Update arrives before the wait starts.
	tb.Enqueue(Update{Kind: UpdateProp, Key: "Work", Bool: false})
	h := tb.BeginWait(tb.Bind([]string{"Work"}, nil))
	defer tb.EndWait(h)
	if v, _ := tb.Prop("Work"); v {
		t.Fatal("raced update not drained at BeginWait")
	}
}

// snapshotAll and restoreAll take and roll back every declared key: what a
// transaction whose write-set covers the whole table does.
func snapshotAll(tb *Table) Snapshot { return tb.SnapshotKeys(tb.PropNames(), tb.DataNames()) }

func restoreAll(tb *Table, s Snapshot) { tb.RestoreKeys(s, tb.PropNames(), tb.DataNames()) }

func TestSnapshotRollback(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("P", true)
	tb.DeclareData("n")
	if err := tb.SetData("n", []byte("before")); err != nil {
		t.Fatal(err)
	}

	snap := snapshotAll(tb)
	if err := tb.SetProp("P", false); err != nil {
		t.Fatal(err)
	}
	if err := tb.SetData("n", []byte("after")); err != nil {
		t.Fatal(err)
	}

	restoreAll(tb, snap)
	if v, _ := tb.Prop("P"); !v {
		t.Fatal("prop not rolled back")
	}
	if d, _ := tb.Data("n"); string(d) != "before" {
		t.Fatalf("data not rolled back: %q", d)
	}
}

func TestSnapshotIsDeep(t *testing.T) {
	tb := NewTable()
	tb.DeclareData("n")
	buf := []byte("abc")
	if err := tb.SetData("n", buf); err != nil {
		t.Fatal(err)
	}
	snap := snapshotAll(tb)
	// Mutating the table's current value must not corrupt the snapshot.
	if err := tb.SetData("n", []byte("zzz")); err != nil {
		t.Fatal(err)
	}
	restoreAll(tb, snap)
	if d, _ := tb.Data("n"); string(d) != "abc" {
		t.Fatalf("snapshot aliased live data: %q", d)
	}
}

func TestSnapshotDoesNotCapturePending(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("P", false)
	snap := snapshotAll(tb)
	tb.Enqueue(Update{Kind: UpdateProp, Key: "P", Bool: true})
	restoreAll(tb, snap)
	if tb.PendingLen() != 1 {
		t.Fatal("rollback must not discard queued communication")
	}
}

func TestApplyPendingIgnoresUndeclared(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("P", false)
	tb.Enqueue(Update{Kind: UpdateProp, Key: "NotDeclared", Bool: true})
	tb.Enqueue(Update{Kind: UpdateData, Key: "ghost", Data: []byte("x")})
	tb.ApplyPending() // must not panic or create names
	if tb.PropCell("NotDeclared") != nil || tb.DataCell("ghost") != nil {
		t.Fatal("undeclared names materialized from remote updates")
	}
}

func TestNamesSorted(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("Z", false)
	tb.DeclareProp("A", false)
	tb.DeclareData("z")
	tb.DeclareData("a")
	p := tb.PropNames()
	d := tb.DataNames()
	if len(p) != 2 || p[0] != "A" || p[1] != "Z" {
		t.Fatalf("PropNames = %v", p)
	}
	if len(d) != 2 || d[0] != "a" || d[1] != "z" {
		t.Fatalf("DataNames = %v", d)
	}
}

// TestConcurrentEnqueue hammers a table from many goroutines; run with
// -race to validate the locking discipline.
func TestConcurrentEnqueue(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("P", false)
	tb.DeclareData("n")

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(i)))
			for j := 0; j < 200; j++ {
				if r.Intn(2) == 0 {
					tb.Enqueue(Update{Kind: UpdateProp, Key: "P", Bool: r.Intn(2) == 0})
				} else {
					tb.Enqueue(Update{Kind: UpdateData, Key: "n", Data: []byte{byte(j)}})
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			tb.ApplyPending()
			_ = tb.SetProp("P", true)
			_ = tb.SetData("n", []byte("local"))
			snapshotAll(tb)
		}
		close(done)
	}()
	wg.Wait()
	<-done
	tb.ApplyPending()
}

// TestRandomizedLocalPriorityProperty: in any interleaving of local writes
// and remote enqueues (applied at the end), the final value of a key is the
// value of the last event for that key, where a local write also cancels all
// earlier remote updates. We simulate against a sequential model.
func TestRandomizedLocalPriorityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		tb := NewTable()
		tb.DeclareProp("P", false)

		// model: track the value each event source would produce.
		modelVal := false
		var pendingModel []bool

		nEvents := 1 + r.Intn(20)
		for e := 0; e < nEvents; e++ {
			v := r.Intn(2) == 0
			if r.Intn(2) == 0 {
				// Local write: applies now, cancels pending.
				if err := tb.SetProp("P", v); err != nil {
					t.Fatal(err)
				}
				modelVal = v
				pendingModel = nil
			} else {
				tb.Enqueue(Update{Kind: UpdateProp, Key: "P", Bool: v})
				pendingModel = append(pendingModel, v)
			}
		}
		tb.ApplyPending()
		for _, v := range pendingModel {
			modelVal = v
		}
		got, _ := tb.Prop("P")
		if got != modelVal {
			t.Fatalf("trial %d: table=%v model=%v", trial, got, modelVal)
		}
	}
}

// TestEnqueueBatchOrderPreserved checks that a delivered transport batch is
// absorbed in slice order and sequenced against surrounding single Enqueues:
// at ApplyPending the last write in arrival order wins. Updates to a second
// key alternate with n's, so no two adjacent arrivals share a queue entry and
// the queue shows every one of them in arrival order.
func TestEnqueueBatchOrderPreserved(t *testing.T) {
	tb := NewTable()
	tb.DeclareData("n")
	tb.DeclareData("m")
	tb.Enqueue(Update{Kind: UpdateData, Key: "n", Data: []byte("pre"), From: "pre"})
	tb.EnqueueBatch([]Update{
		{Kind: UpdateData, Key: "m", Data: []byte("m1"), From: "m1"},
		{Kind: UpdateData, Key: "n", Data: []byte("first"), From: "first"},
		{Kind: UpdateData, Key: "m", Data: []byte("m2"), From: "m2"},
		{Kind: UpdateData, Key: "n", Data: []byte("second"), From: "second"},
	})
	tb.Enqueue(Update{Kind: UpdateData, Key: "m", Data: []byte("m3"), From: "m3"})
	tb.Enqueue(Update{Kind: UpdateData, Key: "n", Data: []byte("post"), From: "post"})
	var order []string
	for _, u := range tb.pending {
		order = append(order, u.From)
	}
	if got := fmt.Sprint(order); got != "[pre m1 first m2 second m3 post]" {
		t.Fatalf("queue = %s, want every arrival in order [pre m1 first m2 second m3 post]", got)
	}
	if n := tb.ApplyPending(); n != 7 {
		t.Fatalf("ApplyPending = %d, want 7", n)
	}
	got, _ := tb.Data("n")
	if string(got) != "post" {
		t.Fatalf("batch broke arrival order: n = %q, want post", got)
	}
	if got, _ := tb.Data("m"); string(got) != "m3" {
		t.Fatalf("batch broke arrival order: m = %q, want m3", got)
	}
}

// TestSameKeyRunQueuesOneEntry: a run of updates to one key that no wait
// admits is one queue entry holding the run's last update, whether the run
// arrives as one batch or update by update, and a drain still counts every
// delivery. Only adjacent updates merge: U, V, U stays three entries. An
// update a blocked wait admits is applied at delivery and merges with
// nothing. An update's count N is how many deliveries it stands for.
func TestSameKeyRunQueuesOneEntry(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("U", false)
	tb.DeclareProp("V", false)
	const width = 96
	run := make([]Update, width)
	for i := range run {
		run[i] = Update{Kind: UpdateProp, Key: "U", Bool: i%2 == 0, From: fmt.Sprintf("b%d", i)}
	}
	tb.EnqueueBatch(run)
	if len(tb.pending) != 1 || tb.pending[0].From != fmt.Sprintf("b%d", width-1) {
		t.Fatalf("after the batch: queue = %+v, want one entry holding b%d", tb.pending, width-1)
	}
	for i := 0; i < width; i++ {
		tb.Enqueue(Update{Kind: UpdateProp, Key: "U", Bool: i%2 == 1, From: fmt.Sprintf("s%d", i)})
		if tb.PendingLen() != 1 {
			t.Fatalf("after %d single updates: %d entries queued, want 1", i+1, tb.PendingLen())
		}
	}
	if u := tb.pending[0]; u.From != fmt.Sprintf("s%d", width-1) || !u.Bool {
		t.Fatalf("the entry holds %+v, want the last update s%d", u, width-1)
	}
	if n := tb.ApplyPending(); n != 2*width {
		t.Fatalf("ApplyPending = %d, want %d delivered updates", n, 2*width)
	}
	if v, _ := tb.Prop("U"); !v {
		t.Fatal("U = false: the last update did not win")
	}

	tb.EnqueueBatch([]Update{
		{Kind: UpdateProp, Key: "U", Bool: false, From: "u1"},
		{Kind: UpdateProp, Key: "V", Bool: true, From: "v"},
	})
	tb.Enqueue(Update{Kind: UpdateProp, Key: "U", Bool: true, From: "u2"})
	var order []string
	for _, u := range tb.pending {
		order = append(order, u.From)
	}
	if fmt.Sprint(order) != "[u1 v u2]" {
		t.Fatalf("queue = %v, want [u1 v u2]", order)
	}
	if n := tb.ApplyPending(); n != 3 {
		t.Fatalf("ApplyPending = %d, want 3", n)
	}

	tb.Enqueue(Update{Kind: UpdateProp, Key: "V", Bool: false, From: "v"})
	h := tb.BeginWait(tb.Bind([]string{"U"}, nil))
	tb.EnqueueBatch([]Update{
		{Kind: UpdateProp, Key: "U", Bool: false, From: "w1"},
		{Kind: UpdateProp, Key: "U", Bool: true, From: "w2"},
	})
	tb.Enqueue(Update{Kind: UpdateProp, Key: "U", Bool: false, From: "w3"})
	if v, _ := tb.Prop("U"); v {
		t.Fatal("an update the wait admits was not applied at delivery")
	}
	if len(tb.pending) != 1 || tb.pending[0].From != "v" || tb.pending[0].N != 1 {
		t.Fatalf("queue = %+v, want only V's entry, standing for one delivery", tb.pending)
	}
	tb.EndWait(h)
	if n := tb.ApplyPending(); n != 1 {
		t.Fatalf("ApplyPending = %d, want 1: admitted updates were never queued", n)
	}

	// An update with a count N stands for N deliveries (0 for one), in a
	// batch, alone, and in the state a migration carries.
	tb.EnqueueBatch([]Update{
		{Kind: UpdateProp, Key: "U", Bool: true, From: "r", N: 5},
		{Kind: UpdateProp, Key: "U", Bool: true, From: "r"},
		{Kind: UpdateProp, Key: "V", Bool: true, From: "r", N: 3},
	})
	tb.Enqueue(Update{Kind: UpdateProp, Key: "V", Bool: false, From: "r", N: 4})
	if len(tb.pending) != 2 || tb.pending[0].N != 6 || tb.pending[1].N != 7 {
		t.Fatalf("queue = %+v, want U standing for 6 deliveries and V for 7", tb.pending)
	}
	moved := NewTable()
	moved.DeclareProp("U", false)
	moved.DeclareProp("V", false)
	moved.RestoreAll(tb.SnapshotAll())
	if n := tb.ApplyPending(); n != 13 {
		t.Fatalf("ApplyPending = %d, want 13", n)
	}
	if n := moved.ApplyPending(); n != 13 {
		t.Fatalf("ApplyPending after the state moved = %d, want 13", n)
	}
}

// TestEnqueueBatchWakeSweep checks the documented wake contract: one sweep
// per distinct key in the batch (not per update) and no wakes for keys outside
// the batch.
func TestEnqueueBatchWakeSweep(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("P", false)
	tb.DeclareProp("Q", false)
	tb.DeclareProp("R", false)
	sp := tb.Subscribe([]string{"P"}, nil)
	defer tb.Unsubscribe(sp)
	sq := tb.Subscribe([]string{"Q"}, nil)
	defer tb.Unsubscribe(sq)
	sr := tb.Subscribe([]string{"R"}, nil)
	defer tb.Unsubscribe(sr)

	tb.EnqueueBatch([]Update{
		{Kind: UpdateProp, Key: "P", Bool: true, From: "x"},
		{Kind: UpdateProp, Key: "P", Bool: false, From: "x"},
		{Kind: UpdateProp, Key: "P", Bool: true, From: "x"},
		{Kind: UpdateProp, Key: "Q", Bool: true, From: "x"},
	})
	if !woken(t, sp) {
		t.Fatal("batch did not wake the P subscriber")
	}
	if woken(t, sp) {
		t.Fatal("P woken more than once for one batch")
	}
	if !woken(t, sq) {
		t.Fatal("batch did not wake the Q subscriber")
	}
	if woken(t, sr) {
		t.Fatal("batch woke a key it does not contain")
	}
}

// TestEnqueueBatchDistinctKeysAllocateNothing: a batch naming 96 distinct
// keys wakes each key's subscriber once, also when every key comes twice, and
// allocates nothing once the table's queue and scratch have grown.
func TestEnqueueBatchDistinctKeysAllocateNothing(t *testing.T) {
	const keys = 96
	tb := NewTable()
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("K%02d", i)
		tb.DeclareProp(names[i], false)
	}
	sub := tb.Subscribe(names, nil)
	defer tb.Unsubscribe(sub)
	wakes := make(map[string]int, keys)
	for _, n := range names {
		wakes[n] = 0
	}
	tb.SetWakeHook(func(_ UpdateKind, key string, _ int) { wakes[key]++ })
	us := make([]Update, 0, 2*keys)
	for round := 0; round < 2; round++ {
		for _, n := range names {
			us = append(us, Update{Kind: UpdateProp, Key: n, Bool: round == 0, From: "x"})
		}
	}
	tb.EnqueueBatch(us)
	for _, n := range names {
		if wakes[n] != 1 {
			t.Fatalf("key %s woken %d times by one batch, want once", n, wakes[n])
		}
	}
	tb.ApplyPending()
	distinct := us[:keys]
	if allocs := testing.AllocsPerRun(100, func() {
		tb.EnqueueBatch(distinct)
		tb.ApplyPending()
	}); allocs != 0 {
		t.Fatalf("a batch of %d distinct keys allocates %.1f times, want 0", keys, allocs)
	}
}

// TestQueueBelowBoundKeepsItsArray: a table that absorbs 192 entries per
// scheduling keeps its queue's array although append rounded it past
// keepPending slots, and a drain past keepPending entries still gives its
// array back.
func TestQueueBelowBoundKeepsItsArray(t *testing.T) {
	const keys = 96
	tb := NewTable()
	us := make([]Update, 0, 2*keys)
	for round := 0; round < 2; round++ {
		for i := 0; i < keys; i++ {
			name := fmt.Sprintf("K%02d", i)
			if round == 0 {
				tb.DeclareProp(name, false)
			}
			us = append(us, Update{Kind: UpdateProp, Key: name, Bool: round == 0, From: "x"})
		}
	}
	tb.EnqueueBatch(us)
	if tb.PendingLen() != 2*keys {
		t.Fatalf("queued %d entries, want %d", tb.PendingLen(), 2*keys)
	}
	tb.ApplyPending()
	if allocs := testing.AllocsPerRun(100, func() {
		tb.EnqueueBatch(us)
		tb.ApplyPending()
	}); allocs != 0 {
		t.Fatalf("a batch of %d entries allocates %.1f times per scheduling, want 0", len(us), allocs)
	}
	for i := 0; i < 2*keepPending; i++ {
		tb.Enqueue(Update{Kind: UpdateProp, Key: fmt.Sprintf("K%02d", i%keys), Bool: i%2 == 0, From: "y"})
	}
	if tb.PendingLen() <= keepPending {
		t.Fatalf("queued %d entries, want more than %d", tb.PendingLen(), keepPending)
	}
	tb.ApplyPending()
	if cap(tb.pending) != 0 {
		t.Fatalf("a drain of more than %d entries kept its array of %d slots", keepPending, cap(tb.pending))
	}
}

// TestEnqueueBatchWaitSetAdmission checks that batch absorption honours the
// in-progress wait exactly as per-update Enqueue does: wait-set members are
// applied immediately, everything else queues.
func TestEnqueueBatchWaitSetAdmission(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("Work", true)
	tb.DeclareProp("Other", false)
	tb.DeclareData("m")

	h := tb.BeginWait(tb.Bind([]string{"Work"}, []string{"m"}))
	defer tb.EndWait(h)

	tb.EnqueueBatch([]Update{
		{Kind: UpdateProp, Key: "Work", Bool: false},          // admitted
		{Kind: UpdateProp, Key: "Other", Bool: true},          // queued
		{Kind: UpdateData, Key: "m", Data: []byte("payload")}, // admitted
	})
	if v, _ := tb.Prop("Work"); v {
		t.Fatal("wait-set prop in batch not applied immediately")
	}
	if d, _ := tb.Data("m"); string(d) != "payload" {
		t.Fatalf("wait-set data in batch not applied: %q", d)
	}
	if v, _ := tb.Prop("Other"); v {
		t.Fatal("non-wait-set batch update leaked through during wait")
	}
	if tb.PendingLen() != 1 {
		t.Fatalf("PendingLen = %d, want 1", tb.PendingLen())
	}
}

// TestEnqueueBatchLocalPriority: updates queued by a batch are still subject
// to §8 local priority — a subsequent local write to the same key discards
// them.
func TestEnqueueBatchLocalPriority(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("P", false)
	tb.DeclareProp("Q", false)
	tb.EnqueueBatch([]Update{
		{Kind: UpdateProp, Key: "P", Bool: true},
		{Kind: UpdateProp, Key: "Q", Bool: true},
	})
	if err := tb.SetProp("P", false); err != nil {
		t.Fatal(err)
	}
	tb.ApplyPending()
	if v, _ := tb.Prop("P"); v {
		t.Fatal("batch-queued update survived local write to same key")
	}
	if v, _ := tb.Prop("Q"); !v {
		t.Fatal("local write dropped a different key's batch update")
	}
}

// TestEnqueueBatchDegenerateSizes: the 0- and 1-element fast paths behave
// exactly like no-op and single Enqueue.
func TestEnqueueBatchDegenerateSizes(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("P", false)
	tb.EnqueueBatch(nil)
	if tb.PendingLen() != 0 {
		t.Fatal("empty batch queued something")
	}
	tb.EnqueueBatch([]Update{{Kind: UpdateProp, Key: "P", Bool: true, From: "x"}})
	if tb.PendingLen() != 1 {
		t.Fatalf("PendingLen = %d, want 1", tb.PendingLen())
	}
	tb.ApplyPending()
	if v, _ := tb.Prop("P"); !v {
		t.Fatal("single-element batch lost")
	}
}

// TestEnqueueBatchManyDistinctKeys: a batch naming more distinct keys than
// the scan array holds still wakes every key's subscribers exactly once and
// counts one wake per subscriber.
func TestEnqueueBatchManyDistinctKeys(t *testing.T) {
	tb := NewTable()
	const keys = 20
	subs := make([]*Subscription, keys)
	var us []Update
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("P%d", i)
		tb.DeclareProp(k, false)
		subs[i] = tb.Subscribe([]string{k}, nil)
		// Every key three times, interleaved with the others.
		us = append(us, Update{Kind: UpdateProp, Key: k, Bool: true})
	}
	us = append(append(append([]Update(nil), us...), us...), us...)
	got := 0
	tb.SetWakeHook(func(_ UpdateKind, _ string, woken int) { got += woken })
	tb.EnqueueBatch(us)
	if got != keys {
		t.Fatalf("%d wakes for %d distinct keys", got, keys)
	}
	for i, s := range subs {
		if !woken(t, s) {
			t.Fatalf("subscriber of key %d not woken", i)
		}
	}
	if tb.PendingLen() != 3*keys {
		t.Fatalf("PendingLen = %d, want %d", tb.PendingLen(), 3*keys)
	}
}

// TestApplyPendingKeepsQueueStorage: draining the queue empties it without
// giving its backing array away, and leaves no payload reachable through it;
// only the array of a long backlog is released. The updates alternate between
// two keys, so each is a queue entry of its own.
func TestApplyPendingKeepsQueueStorage(t *testing.T) {
	tb := NewTable()
	tb.DeclareData("n")
	tb.DeclareData("m")
	key := func(i int) string { return []string{"m", "n"}[i%2] }
	for i := 0; i < 64; i++ {
		tb.Enqueue(Update{Kind: UpdateData, Key: key(i), Data: []byte{byte(i)}})
	}
	if n := tb.ApplyPending(); n != 64 {
		t.Fatalf("applied %d, want 64", n)
	}
	if tb.PendingLen() != 0 || cap(tb.pending) < 64 {
		t.Fatalf("after draining: len %d cap %d, want 0 and the old array", tb.PendingLen(), cap(tb.pending))
	}
	for _, u := range tb.pending[:cap(tb.pending)] {
		if u.Data != nil {
			t.Fatal("a drained slot still holds its payload")
		}
	}
	if d, _ := tb.Data("n"); len(d) != 1 || d[0] != 63 {
		t.Fatalf("n = %v, want the last enqueued value", d)
	}
	for i := 0; i < 4*keepPending; i++ {
		tb.Enqueue(Update{Kind: UpdateData, Key: key(i), Data: []byte{byte(i)}})
	}
	tb.ApplyPending()
	if cap(tb.pending) != 0 {
		t.Fatalf("a backlog's array of %d slots was kept", cap(tb.pending))
	}
}

// TestSwapPropUndo: undoing a local assert (PropCell.Swap) restores the
// value, puts back the pending updates the local-priority rule discarded for
// it at their arrival positions, and keeps what arrived in between.
func TestSwapPropUndo(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("P", false)
	tb.DeclareProp("Q", false)
	tb.Enqueue(Update{Kind: UpdateProp, Key: "P", Bool: true, From: "early"})
	tb.Enqueue(Update{Kind: UpdateProp, Key: "Q", Bool: true, From: "q"})
	tb.Enqueue(Update{Kind: UpdateProp, Key: "P", Bool: false, From: "mid"})
	sub := tb.Subscribe([]string{"P"}, nil)
	defer tb.Unsubscribe(sub)

	undo := tb.PropCell("P").Swap(true)
	if v, _ := tb.Prop("P"); !v || tb.PendingLen() != 1 {
		t.Fatalf("after the swap: P=%v, %d pending (want true, only Q's update)", v, tb.PendingLen())
	}
	tb.Enqueue(Update{Kind: UpdateProp, Key: "P", Bool: true, From: "late"})
	woken(t, sub)
	tb.UndoProp(undo)
	if v, _ := tb.Prop("P"); v {
		t.Fatal("undo did not restore the previous value")
	}
	if !woken(t, sub) {
		t.Fatal("undo changed P without waking its subscriber")
	}
	var order []string
	for _, u := range tb.pending {
		order = append(order, u.From)
	}
	if fmt.Sprint(order) != "[early q mid late]" {
		t.Fatalf("pending after undo = %v, want arrival order [early q mid late]", order)
	}
	tb.UndoProp(PropUndo{}) // the zero value, an undeclared name's: a no-op
}

// TestRestoreKeysRestoresOnlyTheListedKeys: a partial rollback leaves keys it
// is not told about — a sibling's commit — alone.
func TestRestoreKeysRestoresOnlyTheListedKeys(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("Mine", false)
	tb.DeclareProp("Shared", false)
	tb.DeclareData("d")
	snap := tb.SnapshotKeys([]string{"Mine", "Shared"}, []string{"d"})
	_ = tb.SetProp("Mine", true)
	_ = tb.SetProp("Shared", true)
	_ = tb.SetData("d", []byte("x"))
	tb.RestoreKeys(snap, []string{"Mine", "absent"}, nil)
	if v, _ := tb.Prop("Mine"); v {
		t.Fatal("listed key not restored")
	}
	if v, _ := tb.Prop("Shared"); !v {
		t.Fatal("unlisted key restored")
	}
	if !tb.Defined("d") {
		t.Fatal("unlisted data key restored")
	}
	tb.RestoreKeys(snap, nil, []string{"d"})
	if tb.Defined("d") {
		t.Fatal("listed data key not restored to undef")
	}
}
