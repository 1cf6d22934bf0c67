package runtime

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"csaw/internal/compart"
)

// decodeGroup decodes a whole group payload member by member, as handleGroup
// does, and reports whether it decodes exactly: its members' updates add up
// to the header's count and no byte is left over.
func decodeGroup(p []byte) (lo uint64, members []groupMember, ok bool) {
	lo, n, rest, ok := openGroup(p)
	if !ok {
		return 0, nil, false
	}
	seqs := 0
	for len(rest) > 0 && seqs < n {
		var m groupMember
		if m, rest, ok = nextMember(rest); !ok {
			return 0, nil, false
		}
		members = append(members, m)
		seqs += m.n
	}
	return lo, members, len(rest) == 0 && seqs == n
}

// seqsOf is how many updates, and so sequences, decoded members stand for.
func seqsOf(ms []groupMember) int {
	n := 0
	for _, m := range ms {
		n += m.n
	}
	return n
}

// updatesOf turns decoded members back into the updates they encode, a run
// member into an entry with its count.
func updatesOf(ms []groupMember) []remoteUpdate {
	ups := make([]remoteUpdate, len(ms))
	for i, m := range ms {
		ups[i] = remoteUpdate{kind: m.kind, flag: m.flag, key: string(m.key), payload: m.data, n: m.n}
	}
	return ups
}

// sameMembers reports whether decoded members spell ups exactly, runs and
// their counts included.
func sameMembers(ms []groupMember, ups []remoteUpdate) bool {
	if len(ms) != len(ups) {
		return false
	}
	for i, m := range ms {
		u := ups[i]
		if m.kind != u.kind || m.flag != u.flag || m.n != u.count() || string(m.key) != u.key || !bytes.Equal(m.data, u.payload) {
			return false
		}
	}
	return true
}

// randomGroup draws a group of 1 to 300 members of either kind and flag, with
// now and then a key of up to 64 KiB, 16 KiB of data or a run of up to 300
// updates.
func randomGroup(rng *rand.Rand) []remoteUpdate {
	ups := make([]remoteUpdate, 1+rng.Intn(300))
	for i := range ups {
		u := &ups[i]
		if rng.Intn(8) == 0 {
			u.n = 2 + rng.Intn(299)
		}
		u.kind, u.flag = compart.KindProp, rng.Intn(2) == 0
		if rng.Intn(2) == 0 {
			u.kind = compart.KindData
		}
		klen := rng.Intn(12)
		if rng.Intn(100) == 0 {
			klen = rng.Intn(64<<10 + 1)
		}
		key := make([]byte, klen)
		rng.Read(key)
		u.key = string(key)
		switch rng.Intn(20) {
		case 0:
			u.payload = make([]byte, 16<<10)
			rng.Read(u.payload)
		case 1, 2, 3:
			u.payload = make([]byte, 1+rng.Intn(64))
			rng.Read(u.payload)
		}
	}
	return ups
}

// FuzzGroupCodec holds the group codec to its three promises: arbitrary
// bytes never panic the receiver; a payload that does not decode exactly is
// rejected whole — a real sink queues none of it and sends no ack — while one
// that does is queued whole and acknowledged once; and whatever the encoder
// produces, sized exactly, decodes back to the same group.
func FuzzGroupCodec(f *testing.F) {
	hop0 := remoteUpdate{kind: compart.KindData, key: "n", payload: bytes.Repeat([]byte{0xab}, 64)}
	hop1 := remoteUpdate{kind: compart.KindProp, key: "Work", flag: true}
	hop := appendGroup(nil, 7, []remoteUpdate{hop0, hop1})
	fanout := make([]remoteUpdate, 96)
	for i := range fanout {
		fanout[i] = remoteUpdate{kind: compart.KindProp, key: "U", flag: true}
	}
	run := []remoteUpdate{{kind: compart.KindProp, key: "U", flag: true, n: 96}}
	seeds := [][]byte{
		appendGroup(nil, 1, []remoteUpdate{{kind: compart.KindProp, key: "U", flag: true}}),
		hop,
		appendGroup(nil, 1<<20, fanout),
		hop[:len(hop)-3], // the assert's key cut short
		appendGroup(nil, 1, run),
		appendGroup(nil, 5, []remoteUpdate{hop0, {kind: compart.KindData, key: "d", payload: []byte("xy"), n: 300}, hop1}),
	}
	for _, c := range malformedRuns() {
		seeds = append(seeds, c.payload)
	}
	for i, seed := range seeds {
		f.Add(seed, int64(i))
	}

	s := mustSystem(f, groupProgram(nil), Options{DisableDrivers: true})
	if err := s.RunMain(context.Background()); err != nil {
		f.Fatal(err)
	}
	var acks atomic.Int64
	s.Net().Register("a::j", func(compart.Message) { acks.Add(1) })
	sink := s.junctionQuiet("g1", "j")

	f.Fuzz(func(t *testing.T, p []byte, seed int64) {
		// Every input is a group whose sequences the sink has not seen: one
		// seen before is acknowledged but not queued again.
		sink.recvMu.Lock()
		delete(sink.recvFrom, "a::j")
		sink.recvMu.Unlock()
		lo, members, ok := decodeGroup(p)
		queued, acked := sink.met.RemoteQueued.Load(), acks.Load()
		sink.handleMessage(compart.Message{From: "a::j", To: "g1::j", Kind: compart.KindGroup, Payload: p})
		absorbed := sink.Table().ApplyPending()
		gotQueued, gotAcks := sink.met.RemoteQueued.Load()-queued, acks.Load()-acked
		if !ok {
			if gotQueued != 0 || gotAcks != 0 || absorbed != 0 {
				t.Fatalf("undecodable payload %x: %d updates queued, %d absorbed, %d acks sent", p, gotQueued, absorbed, gotAcks)
			}
		} else {
			if n := seqsOf(members); gotQueued != uint64(n) || absorbed != n || gotAcks != 1 {
				t.Fatalf("group of %d updates: %d queued, %d absorbed, %d acks sent", n, gotQueued, absorbed, gotAcks)
			}
			ups := updatesOf(members)
			if _, again, ok := decodeGroup(appendGroup(nil, lo, ups)); !ok || !sameMembers(again, ups) {
				t.Fatalf("payload %x decodes to a group that does not round-trip", p)
			}
		}

		rng := rand.New(rand.NewSource(seed))
		ups := randomGroup(rng)
		wantLo := 1 + uint64(rng.Int63n(1<<62))
		enc := appendGroup(nil, wantLo, ups)
		// Sized exactly: a buffer with room for just the encoding takes it
		// without growing, and an empty one grows once, to hold it.
		exact := make([]byte, 0, len(enc))
		if again := appendGroup(exact, wantLo, ups); len(again) != len(enc) || &again[:1][0] != &exact[:1][0] {
			t.Fatalf("group of %d encoded into %d bytes, then grew a buffer of %d: not sized exactly", len(ups), len(again), len(enc))
		}
		if c, once := cap(enc), cap(slices.Grow([]byte(nil), len(enc))); c != once {
			t.Fatalf("group of %d encoded into %d bytes with capacity %d, want %d: it grew more than once", len(ups), len(enc), c, once)
		}
		gotLo, got, ok := decodeGroup(enc)
		if !ok || gotLo != wantLo || !sameMembers(got, ups) {
			t.Fatalf("group of %d (seed %d) did not round-trip: ok=%v lo %d, want %d", len(ups), seed, ok, gotLo, wantLo)
		}
	})
}

// rawGroup builds a group payload by hand: lo, the header count n and the
// members' bytes as given, whether or not they add up to n.
func rawGroup(lo, n uint64, members ...[]byte) []byte {
	p := binary.AppendUvarint(binary.BigEndian.AppendUint64(nil, lo), n)
	for _, m := range members {
		p = append(p, m...)
	}
	return p
}

// runOfU is a member asserting U with the run bit set and the count given,
// whatever it is.
func runOfU(count uint64) []byte {
	return append(binary.AppendUvarint([]byte{byte(compart.KindProp) | groupFlag | groupRun}, count), 1, 'U', 0)
}

// plainU is the member asserting U once.
var plainU = []byte{byte(compart.KindProp) | groupFlag, 1, 'U', 0}

// malformedRuns are group payloads whose every length is in range but whose
// counts are not: each must be dropped whole and unacknowledged.
func malformedRuns() []struct {
	name    string
	payload []byte
} {
	return []struct {
		name    string
		payload []byte
	}{
		{"header count over the bound", rawGroup(1, maxGroupSeqs+1, runOfU(maxGroupSeqs), plainU)},
		{"run count over the bound", rawGroup(1, maxGroupSeqs, runOfU(maxGroupSeqs+1))},
		// As an int the count is -1, and the run after it would bring the
		// sum back to the header's 4.
		{"run count past an int", rawGroup(1, 4, runOfU(math.MaxUint64), runOfU(5))},
		{"run of 0", rawGroup(1, 1, runOfU(0), plainU)},
		{"run of 1", rawGroup(1, 1, runOfU(1))},
		{"runs past n", rawGroup(1, 5, runOfU(3), runOfU(3))},
		{"runs short of n", rawGroup(1, 7, runOfU(3), runOfU(3))},
		{"plain members short of n", rawGroup(1, 3, plainU, plainU)},
	}
}

// TestGroupRunsRoundTrip: a group with runs — alone, between plain members,
// of writes, with counts whose varint takes one byte or three — encodes into
// a buffer of exactly its size, decodes to the same entries and counts, and
// a real sink queues, absorbs and acknowledges every update the runs stand
// for.
func TestGroupRunsRoundTrip(t *testing.T) {
	s := mustSystem(t, groupProgram(nil), Options{DisableDrivers: true})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var acks []string
	s.Net().Register("a::j", func(m compart.Message) { acks = append(acks, fmt.Sprint(ackSeqs(m.Payload))) })
	sink := s.junctionQuiet("g1", "j")
	u := remoteUpdate{kind: compart.KindProp, key: "U", flag: true}
	d := remoteUpdate{kind: compart.KindData, key: "d", payload: []byte("value")}
	w := remoteUpdate{kind: compart.KindProp, key: "W"}
	run := func(up remoteUpdate, n int) remoteUpdate { up.n = n; return up }
	lo := uint64(1)
	for i, ups := range [][]remoteUpdate{
		{run(u, 96)},
		{run(u, 2)},
		{d, run(u, 5), w},
		{run(d, 3), run(w, 127), run(u, 128)},
		{w, run(u, 20000), run(w, 2)},
		alternating(run(u, 2), run(w, 3), 60),
	} {
		enc := appendGroup(nil, lo, ups)
		if once := cap(slices.Grow([]byte(nil), len(enc))); cap(enc) != once {
			t.Fatalf("group %d: encoded into %d bytes with capacity %d, want %d: it grew more than once", i, len(enc), cap(enc), once)
		}
		exact := make([]byte, 0, len(enc))
		if again := appendGroup(exact, lo, ups); len(again) != len(enc) || &again[:1][0] != &exact[:1][0] {
			t.Fatalf("group %d: encoded into %d bytes, then outgrew a buffer of exactly that size", i, len(enc))
		}
		gotLo, members, ok := decodeGroup(enc)
		if !ok || gotLo != lo || !sameMembers(members, ups) {
			t.Fatalf("group %d did not round-trip: ok=%v lo %d, want %d", i, ok, gotLo, lo)
		}
		n := seqsOf(members)
		queued := sink.met.RemoteQueued.Load()
		sink.handleMessage(compart.Message{From: "a::j", To: "g1::j", Kind: compart.KindGroup, Payload: enc})
		if got := sink.met.RemoteQueued.Load() - queued; got != uint64(n) {
			t.Fatalf("group %d of %d updates: the sink queued %d", i, n, got)
		}
		if got := sink.Table().ApplyPending(); got != n {
			t.Fatalf("group %d of %d updates: the sink absorbed %d", i, n, got)
		}
		lo += uint64(n)
		if want := fmt.Sprint([]uint64{lo - 1}); acks[len(acks)-1] != want {
			t.Fatalf("group %d: acked %s, want %s", i, acks[len(acks)-1], want)
		}
	}
	if len(acks) != 6 {
		t.Fatalf("%d acks for 6 groups", len(acks))
	}
}

// alternating is n entries, a and b by turns.
func alternating(a, b remoteUpdate, n int) []remoteUpdate {
	ups := make([]remoteUpdate, n)
	for i := range ups {
		ups[i] = a
		if i%2 == 1 {
			ups[i] = b
		}
	}
	return ups
}

// TestGroupWithoutRepeatsEncodesAsBefore: a group in which no update repeats
// the one before it folds into nothing and encodes byte for byte as before
// runs existed — the bytes are pinned — so a request hop's wire does not
// change. A repeat that is not adjacent does not fold.
func TestGroupWithoutRepeatsEncodesAsBefore(t *testing.T) {
	const want = "0000000000000007" + "05" +
		"01" + "0164" + "077061796c6f6164" + // write d "payload"
		"80" + "04576f726b" + "00" + // assert Work
		"00" + "0155" + "00" + // retract U
		"80" + "04576f726b" + "00" + // assert Work
		"00" + "04576f726b" + "00" // retract Work
	var ups []remoteUpdate
	for _, up := range []remoteUpdate{
		{kind: compart.KindData, key: "d", payload: []byte("payload")},
		{kind: compart.KindProp, key: "Work", flag: true},
		{kind: compart.KindProp, key: "U"},
		{kind: compart.KindProp, key: "Work", flag: true},
		{kind: compart.KindProp, key: "Work"},
	} {
		ups = foldUpdate(ups, &up)
	}
	if got := hex.EncodeToString(appendGroup(nil, 7, ups)); got != want {
		t.Fatalf("a group without repeats encodes as\n  %s\nwant\n  %s", got, want)
	}
}

// TestMalformedRunsAreDroppedUnacked: a group whose counts do not hold — a
// header or run count over maxGroupSeqs, a run of 0 or 1, runs adding up to
// more or less than the header's count — is dropped whole: the sink queues
// none of it and sends no ack. The well-formed group after them is absorbed.
func TestMalformedRunsAreDroppedUnacked(t *testing.T) {
	s := mustSystem(t, groupProgram(nil), Options{DisableDrivers: true})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var acks atomic.Int64
	s.Net().Register("a::j", func(compart.Message) { acks.Add(1) })
	sink := s.junctionQuiet("g1", "j")
	deliver := func(p []byte) (queued uint64, absorbed int, acked int64) {
		q, a := sink.met.RemoteQueued.Load(), acks.Load()
		sink.handleMessage(compart.Message{From: "a::j", To: "g1::j", Kind: compart.KindGroup, Payload: p})
		absorbed = sink.Table().ApplyPending()
		return sink.met.RemoteQueued.Load() - q, absorbed, acks.Load() - a
	}
	for _, c := range malformedRuns() {
		if q, a, k := deliver(c.payload); q != 0 || a != 0 || k != 0 {
			t.Errorf("%s: %d updates queued, %d absorbed, %d acks sent; want the group dropped unacked", c.name, q, a, k)
		}
	}
	if q, a, k := deliver(rawGroup(1, 5, runOfU(3), plainU, plainU)); q != 5 || a != 5 || k != 1 {
		t.Fatalf("the well-formed group of 5: %d queued, %d absorbed, %d acks", q, a, k)
	}
}

// TestSplitGroupCutsARun: splitGroup cuts at half the updates. A run the cut
// falls inside becomes two — one closing the head, one opening the tail, a
// run of one as a plain member — and the halves carry contiguous sequences
// that decode to the updates of the whole, in order.
func TestSplitGroupCutsARun(t *testing.T) {
	u := remoteUpdate{kind: compart.KindProp, key: "U", flag: true}
	d := remoteUpdate{kind: compart.KindData, key: "d", payload: []byte("value")}
	run := func(up remoteUpdate, n int) remoteUpdate { up.n = n; return up }
	for _, c := range []struct {
		ups        []remoteUpdate
		head, tail []remoteUpdate
	}{
		{[]remoteUpdate{run(u, 96)}, []remoteUpdate{run(u, 48)}, []remoteUpdate{run(u, 48)}},
		{[]remoteUpdate{run(u, 3)}, []remoteUpdate{u}, []remoteUpdate{run(u, 2)}},
		{[]remoteUpdate{d, run(u, 5), d}, []remoteUpdate{d, run(u, 2)}, []remoteUpdate{run(u, 3), d}},
		{[]remoteUpdate{run(d, 2), run(u, 4)}, []remoteUpdate{run(d, 2), u}, []remoteUpdate{run(u, 3)}},
		{[]remoteUpdate{d, u, run(d, 2)}, []remoteUpdate{d, u}, []remoteUpdate{run(d, 2)}},
	} {
		const lo = 40
		head, tail, ok := splitGroup(appendGroup(nil, lo, c.ups))
		if !ok {
			t.Fatalf("%v: not split", c.ups)
		}
		hLo, hm, hok := decodeGroup(head)
		tLo, tm, tok := decodeGroup(tail)
		if !hok || !tok || !sameMembers(hm, c.head) || !sameMembers(tm, c.tail) {
			t.Fatalf("%v split into %v and %v, want %v and %v", c.ups, updatesOf(hm), updatesOf(tm), c.head, c.tail)
		}
		if hLo != lo || tLo != lo+uint64(seqsOf(hm)) {
			t.Fatalf("%v split at sequences %d and %d: not contiguous from %d", c.ups, hLo, tLo, lo)
		}
	}
	if _, _, ok := splitGroup(appendGroup(nil, 1, []remoteUpdate{u})); ok {
		t.Fatal("a group of one update was split")
	}
}
