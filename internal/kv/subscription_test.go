package kv

import "testing"

func woken(t *testing.T, s *Subscription) bool {
	t.Helper()
	select {
	case <-s.Ch():
		return true
	default:
		return false
	}
}

func TestSubscribeWakesOnlyRegisteredKeys(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("P", false)
	tb.DeclareProp("Q", false)
	sub := tb.Subscribe([]string{"P"}, nil)
	defer tb.Unsubscribe(sub)

	tb.Enqueue(Update{Kind: UpdateProp, Key: "Q", Bool: true, From: "x"})
	if woken(t, sub) {
		t.Fatal("woken by a key outside the subscription")
	}
	tb.Enqueue(Update{Kind: UpdateProp, Key: "P", Bool: true, From: "x"})
	if !woken(t, sub) {
		t.Fatal("not woken by a registered key")
	}
}

func TestSubscribeWakesOnQueuedUpdate(t *testing.T) {
	// A queued (not yet applied) update must still wake guard watchers: it
	// becomes visible at the junction's next ApplyPending, which the woken
	// scheduler performs.
	tb := NewTable()
	tb.DeclareProp("P", false)
	sub := tb.Subscribe([]string{"P"}, nil)
	defer tb.Unsubscribe(sub)
	tb.Enqueue(Update{Kind: UpdateProp, Key: "P", Bool: true, From: "x"})
	if tb.PendingLen() != 1 {
		t.Fatalf("update should queue, pending=%d", tb.PendingLen())
	}
	if !woken(t, sub) {
		t.Fatal("queued update did not wake the subscriber")
	}
}

func TestSubscribeWakesOnLocalWrites(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("P", false)
	tb.DeclareData("n")
	sp := tb.Subscribe([]string{"P"}, nil)
	defer tb.Unsubscribe(sp)
	sd := tb.Subscribe(nil, []string{"n"})
	defer tb.Unsubscribe(sd)

	if err := tb.SetProp("P", true); err != nil {
		t.Fatal(err)
	}
	if !woken(t, sp) {
		t.Fatal("SetProp did not wake the prop subscriber")
	}
	if woken(t, sd) {
		t.Fatal("SetProp woke the data subscriber")
	}
	if err := tb.SetData("n", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if !woken(t, sd) {
		t.Fatal("SetData did not wake the data subscriber")
	}
}

func TestSubscriptionWakeIsRetained(t *testing.T) {
	// A wake that lands while the holder is not selecting must be buffered:
	// one token survives until read.
	tb := NewTable()
	tb.DeclareProp("P", false)
	sub := tb.Subscribe([]string{"P"}, nil)
	defer tb.Unsubscribe(sub)
	_ = tb.SetProp("P", true)
	_ = tb.SetProp("P", false) // coalesces into the same buffered token
	if !woken(t, sub) {
		t.Fatal("wake not retained")
	}
	if woken(t, sub) {
		t.Fatal("more than one token buffered")
	}
}

func TestSubscribeAllAndWakeAll(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("P", false)
	all := tb.Subscribe(tb.PropNames(), tb.DataNames())
	defer tb.Unsubscribe(all)
	keyed := tb.Subscribe([]string{"absent"}, nil)
	defer tb.Unsubscribe(keyed)

	_ = tb.SetProp("P", true)
	if !woken(t, all) {
		t.Fatal("a subscription to every key missed a write")
	}
	tb.WakeAll()
	if !woken(t, all) || !woken(t, keyed) {
		t.Fatal("WakeAll must wake every subscription")
	}
}

func TestUnsubscribeStopsWakes(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("P", false)
	sub := tb.Subscribe([]string{"P"}, nil)
	tb.Unsubscribe(sub)
	_ = tb.SetProp("P", true)
	if woken(t, sub) {
		t.Fatal("woken after Unsubscribe")
	}
}

func TestRestoreWakesRestoredKeys(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("P", false)
	snap := snapshotAll(tb)
	_ = tb.SetProp("P", true)
	sub := tb.Subscribe([]string{"P"}, nil)
	defer tb.Unsubscribe(sub)
	restoreAll(tb, snap)
	if !woken(t, sub) {
		t.Fatal("rollback changed P but did not wake its subscriber")
	}
	if v, _ := tb.Prop("P"); v {
		t.Fatal("restore did not roll back P")
	}
}

func TestBeginWaitAdmissionWakesSubscribers(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("P", false)
	tb.Enqueue(Update{Kind: UpdateProp, Key: "P", Bool: true, From: "x"})
	sub := tb.Subscribe([]string{"P"}, nil)
	defer tb.Unsubscribe(sub)
	drainOnce(sub) // drop the enqueue-time token; we test the drain wake
	h := tb.BeginWait(tb.Bind([]string{"P"}, nil))
	defer tb.EndWait(h)
	if !woken(t, sub) {
		t.Fatal("BeginWait applied a raced update without waking subscribers")
	}
}

func drainOnce(s *Subscription) {
	select {
	case <-s.Ch():
	default:
	}
}

func TestSnapshotKeysPartialRestore(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("P", false)
	tb.DeclareProp("Q", false)
	tb.DeclareData("n")
	tb.DeclareData("m")
	_ = tb.SetData("m", []byte("keep"))

	snap := tb.SnapshotKeys([]string{"P", "undeclared"}, []string{"n"})

	_ = tb.SetProp("P", true)
	_ = tb.SetProp("Q", true) // outside the snapshot: must survive restore
	_ = tb.SetData("n", []byte("v"))
	_ = tb.SetData("m", []byte("changed"))

	restoreAll(tb, snap)

	if v, _ := tb.Prop("P"); v {
		t.Fatal("P not rolled back")
	}
	if v, _ := tb.Prop("Q"); !v {
		t.Fatal("partial restore clobbered a key outside the snapshot")
	}
	if tb.Defined("n") {
		t.Fatal("n should be undef again after rollback")
	}
	if d, _ := tb.Data("m"); string(d) != "changed" {
		t.Fatalf("m = %q, want the post-snapshot value", d)
	}
}

func TestSnapshotKeysIsDeep(t *testing.T) {
	tb := NewTable()
	tb.DeclareData("n")
	_ = tb.SetData("n", []byte("abc"))
	snap := tb.SnapshotKeys(nil, []string{"n"})
	_ = tb.SetData("n", []byte("xyz"))
	restoreAll(tb, snap)
	d, err := tb.Data("n")
	if err != nil || string(d) != "abc" {
		t.Fatalf("Data(n) = %q, %v; want abc", d, err)
	}
}

func TestDataReturnsCopy(t *testing.T) {
	// Regression: Data used to return the internal slice by reference, so a
	// host block could mutate table state behind the lock.
	tb := NewTable()
	tb.DeclareData("n")
	_ = tb.SetData("n", []byte("abc"))
	d, err := tb.Data("n")
	if err != nil {
		t.Fatal(err)
	}
	d[0] = 'X'
	again, _ := tb.Data("n")
	if string(again) != "abc" {
		t.Fatalf("mutating Data's result corrupted the table: %q", again)
	}
}
