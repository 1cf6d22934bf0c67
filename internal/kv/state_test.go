package kv

import (
	"reflect"
	"testing"

	"csaw/internal/serial"
)

// TestSnapshotAllRestoreAllRoundTrip checks the migration export: props,
// data and the pending queue survive a snapshot → serial encode → decode →
// restore round trip, and the restored queue applies in the original order.
func TestSnapshotAllRestoreAllRoundTrip(t *testing.T) {
	src := NewTable()
	src.DeclareProp("P", true)
	src.DeclareProp("Q", false)
	src.DeclareData("d")
	src.DeclareData("u") // stays undef
	if err := src.SetData("d", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	src.Enqueue(Update{Kind: UpdateProp, Key: "Q", Bool: true, From: "a::x"})
	src.Enqueue(Update{Kind: UpdateData, Key: "d", Data: []byte{9}, From: "b::y"})

	st := src.SnapshotAll()
	blob, err := serial.Marshal(st)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded TableState
	if err := serial.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}

	dst := NewTable()
	dst.RestoreAll(decoded)
	if v, _ := dst.Prop("P"); !v {
		t.Fatal("P lost")
	}
	if dst.Defined("u") {
		t.Fatal("undef slot became defined")
	}
	if d, _ := dst.Data("d"); !reflect.DeepEqual(d, []byte{1, 2, 3}) {
		t.Fatalf("d = %v", d)
	}
	if got := dst.PendingLen(); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	// The queue applies in original order: Q becomes true, d becomes {9}.
	if n := dst.ApplyPending(); n != 2 {
		t.Fatalf("applied %d, want 2", n)
	}
	if v, _ := dst.Prop("Q"); !v {
		t.Fatal("pending assert lost")
	}
	if d, _ := dst.Data("d"); !reflect.DeepEqual(d, []byte{9}) {
		t.Fatalf("pending write lost: d = %v", d)
	}
}

// TestPendingSinceFindsCoalescedTail: an update that arrives after the
// export and coalesces into the entry the export ended with leaves the
// queue's length alone, yet is late, and must reach a table restored from
// the export; so must a late update to another key.
func TestPendingSinceFindsCoalescedTail(t *testing.T) {
	src := NewTable()
	src.DeclareProp("U", false)
	src.DeclareProp("V", false)
	src.Enqueue(Update{Kind: UpdateProp, Key: "U", Bool: true, From: "a"})
	src.Enqueue(Update{Kind: UpdateProp, Key: "V", Bool: true, From: "b"})
	src.Enqueue(Update{Kind: UpdateProp, Key: "U", Bool: true, From: "c"})
	st := src.SnapshotAll()
	if late := src.PendingSince(st); late != nil {
		t.Fatalf("nothing arrived since the export, PendingSince = %v", late)
	}
	src.Enqueue(Update{Kind: UpdateProp, Key: "U", Bool: false, From: "late"})
	if n := src.PendingLen(); n != len(st.Pending) {
		t.Fatalf("pending = %d, want %d: the late update coalesces into the last entry", n, len(st.Pending))
	}
	late := src.PendingSince(st)
	if len(late) != 1 || late[0].From != "late" || late[0].Bool {
		t.Fatalf("PendingSince = %+v, want the coalesced late retract of U", late)
	}
	src.Enqueue(Update{Kind: UpdateProp, Key: "V", Bool: false, From: "later"})
	if late = src.PendingSince(st); len(late) != 2 || late[1].From != "later" {
		t.Fatalf("PendingSince = %+v, want the retracts of U and V", late)
	}

	dst := NewTable()
	dst.DeclareProp("U", false)
	dst.DeclareProp("V", false)
	dst.RestoreAll(st)
	dst.EnqueueBatch(late)
	dst.ApplyPending()
	for _, p := range []string{"U", "V"} {
		if v, _ := dst.Prop(p); v {
			t.Fatalf("%s = true on the restored table: a late retract was lost", p)
		}
	}
}

// TestSnapshotAllIsDeepCopy checks the export shares no memory with the
// live table: post-snapshot mutations must not leak into the state.
func TestSnapshotAllIsDeepCopy(t *testing.T) {
	src := NewTable()
	src.DeclareData("d")
	if err := src.SetData("d", []byte{7}); err != nil {
		t.Fatal(err)
	}
	src.Enqueue(Update{Kind: UpdateData, Key: "d", Data: []byte{8}, From: "a::x"})
	st := src.SnapshotAll()
	if err := src.SetData("d", []byte{0}); err != nil {
		t.Fatal(err)
	}
	if got := st.Data["d"].Data; !reflect.DeepEqual(got, []byte{7}) {
		t.Fatalf("snapshot mutated: %v", got)
	}
	if got := st.Pending[0].Data; !reflect.DeepEqual(got, []byte{8}) {
		t.Fatalf("pending snapshot mutated: %v", got)
	}
}
