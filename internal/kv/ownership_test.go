package kv

import (
	"bytes"
	"testing"
)

// dataTable declares one data variable d and one proposition P.
func dataTable() *Table {
	tb := NewTable()
	tb.DeclareData("d")
	tb.DeclareProp("P", false)
	return tb
}

func writeD(data []byte) Update {
	return Update{Kind: UpdateData, Key: "d", Data: data, From: "r"}
}

func wantData(t *testing.T, tb *Table, want string) {
	t.Helper()
	if got, err := tb.Data("d"); err != nil || string(got) != want {
		t.Fatalf("d = %q, %v; want %q", got, err, want)
	}
}

// TestHostSliceIsNeverWrittenInto: a slice a local write adopts stays the
// host's. Later remote writes to the variable — one a wait admits, one the
// queue applies, and the queued copy after it — leave its bytes as they were.
func TestHostSliceIsNeverWrittenInto(t *testing.T) {
	tb := dataTable()
	c := tb.DataCell("d")
	host := []byte("host-bytes")
	c.Set(host)

	h := tb.BeginWait(tb.Bind(nil, []string{"d"}))
	tb.Enqueue(writeD([]byte("admitted!!")))
	tb.EndWait(h)
	wantData(t, tb, "admitted!!")

	c.Set(host)
	tb.Enqueue(writeD([]byte("queued-one")))
	tb.ApplyPending()
	tb.Enqueue(writeD([]byte("queued-two")))
	tb.ApplyPending()
	wantData(t, tb, "queued-two")
	if string(host) != "host-bytes" {
		t.Fatalf("the adopted host slice reads %q, want %q", host, "host-bytes")
	}
}

// TestCallerMayReuseDeliveredData: Enqueue and EnqueueBatch borrow an
// update's data for the call, so the sender may rewrite its slice at once —
// whether the update was admitted, queued, or coalesced into a queued entry
// of the same key, shorter or longer than the entry it replaces.
func TestCallerMayReuseDeliveredData(t *testing.T) {
	tb := dataTable()
	buf := []byte("first-value")
	tb.Enqueue(writeD(buf))
	copy(buf, "XXXXXXXXXXX")
	tb.ApplyPending()
	wantData(t, tb, "first-value")

	// Coalesced: a shorter value over a longer entry, then a longer one.
	long, short := []byte("a-longer-value"), []byte("short")
	tb.Enqueue(writeD(long))
	tb.Enqueue(writeD(short))
	copy(long, "YYYYYYYYYYYYYY")
	copy(short, "ZZZZZ")
	if n := tb.PendingLen(); n != 1 {
		t.Fatalf("pending = %d, want 1 coalesced entry", n)
	}
	tb.ApplyPending()
	wantData(t, tb, "short")
	tb.EnqueueBatch([]Update{writeD(short), writeD(long)})
	copy(long, "WWWWWWWWWWWWWW")
	tb.ApplyPending()
	wantData(t, tb, "YYYYYYYYYYYYYY")

	// Admitted, rewriting the cell's own buffer in place.
	h := tb.BeginWait(tb.Bind(nil, []string{"d"}))
	adm := []byte("admitted")
	tb.Enqueue(writeD(adm))
	copy(adm, "VVVVVVVV")
	tb.EndWait(h)
	wantData(t, tb, "admitted")
}

// TestLentBufferIsNotRewritten: while DataCell.Ref lends the variable's
// buffer, neither a wait's admission nor a queued copy writes into it; after
// Release the table reuses its buffers again.
func TestLentBufferIsNotRewritten(t *testing.T) {
	tb := dataTable()
	c := tb.DataCell("d")
	tb.Enqueue(writeD([]byte("lent-value")))
	tb.ApplyPending()
	lent, err := c.Ref()
	if err != nil {
		t.Fatal(err)
	}
	h := tb.BeginWait(tb.Bind(nil, []string{"d"}))
	tb.Enqueue(writeD([]byte("admitted-1")))
	tb.EndWait(h)
	for _, v := range []string{"queued-one", "queued-two"} {
		tb.Enqueue(writeD([]byte(v)))
		tb.ApplyPending()
	}
	if string(lent) != "lent-value" {
		t.Fatalf("the lent bytes read %q during the loan, want %q", lent, "lent-value")
	}
	c.Release()
	wantData(t, tb, "queued-two")
}

// TestLargeBufferIsNotKept: a buffer over keepData is dropped once its value
// is replaced — by a queued value, by an admitted one, or by a later update
// coalescing into the queued entry that holds it — and a smaller one is kept.
func TestLargeBufferIsNotKept(t *testing.T) {
	big, small := make([]byte, keepData+1), []byte("small")
	tb := dataTable()
	c := tb.DataCell("d")
	check := func(how string) {
		t.Helper()
		if v, s := c.bufferCaps(); v > keepData || s > keepData {
			t.Fatalf("%s: value and spare capacities %d, %d; want both at most %d", how, v, s, keepData)
		}
	}

	tb.Enqueue(writeD(big))
	tb.ApplyPending()
	tb.Enqueue(writeD(small))
	tb.ApplyPending()
	check("replaced by a queued value")

	tb.Enqueue(writeD(big))
	tb.ApplyPending()
	h := tb.BeginWait(tb.Bind(nil, []string{"d"}))
	tb.Enqueue(writeD(small))
	tb.EndWait(h)
	check("replaced by an admitted value")

	tb.Enqueue(writeD(big))
	tb.Enqueue(writeD(small))
	tb.ApplyPending()
	check("replaced in the queue")
	wantData(t, tb, "small")

	// Below the bound, the replaced buffer is the next queued copy's.
	mid := make([]byte, keepData)
	tb.Enqueue(writeD(mid))
	tb.ApplyPending()
	tb.Enqueue(writeD(small))
	tb.ApplyPending()
	if _, s := c.bufferCaps(); s < keepData {
		t.Fatalf("spare capacity %d after replacing a %d-byte value, want it kept", s, keepData)
	}
}

// TestRollbackRestoresExactBytes: a transaction's snapshot copies the bytes
// it captures, so an admission that rewrites the cell's buffer in place
// before the rollback leaves the restored value exact.
func TestRollbackRestoresExactBytes(t *testing.T) {
	tb := dataTable()
	tb.Enqueue(writeD([]byte("before-txn")))
	tb.ApplyPending()
	snap := tb.SnapshotKeys(nil, []string{"d"})
	h := tb.BeginWait(tb.Bind(nil, []string{"d"}))
	tb.Enqueue(writeD([]byte("inside-txn")))
	tb.EndWait(h)
	wantData(t, tb, "inside-txn")
	tb.RestoreKeys(snap, nil, []string{"d"})
	wantData(t, tb, "before-txn")
	// The restored value is the table's own: rewriting it spares the snapshot.
	h = tb.BeginWait(tb.Bind(nil, []string{"d"}))
	tb.Enqueue(writeD([]byte("after-txn!")))
	tb.EndWait(h)
	tb.RestoreKeys(snap, nil, []string{"d"})
	wantData(t, tb, "before-txn")
}

// TestPendingSinceCopiesItsData: the migration hand-over takes the queue's
// tail with copies of its data, so a delivery coalescing into that entry
// afterwards leaves the handed-over bytes exact.
func TestPendingSinceCopiesItsData(t *testing.T) {
	tb := dataTable()
	st := tb.SnapshotAll()
	tb.Enqueue(writeD([]byte("handed-over")))
	tail := tb.PendingSince(st)
	tb.Enqueue(writeD([]byte("coalesced!!")))
	if len(tail) != 1 || !bytes.Equal(tail[0].Data, []byte("handed-over")) {
		t.Fatalf("PendingSince = %+v, want one write of %q", tail, "handed-over")
	}
}
