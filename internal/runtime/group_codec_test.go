package runtime

import (
	"bytes"
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"csaw/internal/compart"
)

// decodeGroup decodes a whole group payload member by member, as handleGroup
// does, and reports whether it decodes exactly.
func decodeGroup(p []byte) (lo uint64, members []groupMember, ok bool) {
	lo, n, rest, ok := openGroup(p)
	if !ok {
		return 0, nil, false
	}
	members = make([]groupMember, n)
	for i := range members {
		if members[i], rest, ok = nextMember(rest); !ok {
			return 0, nil, false
		}
	}
	return lo, members, len(rest) == 0
}

// updatesOf turns decoded members back into the updates they encode.
func updatesOf(ms []groupMember) []remoteUpdate {
	ups := make([]remoteUpdate, len(ms))
	for i, m := range ms {
		ups[i] = remoteUpdate{kind: m.kind, flag: m.flag, key: string(m.key), payload: m.data}
	}
	return ups
}

// sameMembers reports whether decoded members spell ups exactly.
func sameMembers(ms []groupMember, ups []remoteUpdate) bool {
	if len(ms) != len(ups) {
		return false
	}
	for i, m := range ms {
		u := ups[i]
		if m.kind != u.kind || m.flag != u.flag || string(m.key) != u.key || !bytes.Equal(m.data, u.payload) {
			return false
		}
	}
	return true
}

// randomGroup draws a group of 1 to 300 members of either kind and flag, with
// now and then a key of up to 64 KiB or 16 KiB of data.
func randomGroup(rng *rand.Rand) []remoteUpdate {
	ups := make([]remoteUpdate, 1+rng.Intn(300))
	for i := range ups {
		u := &ups[i]
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
	hop := appendGroup(nil, 7, []remoteUpdate{
		{kind: compart.KindData, key: "n", payload: bytes.Repeat([]byte{0xab}, 64)},
		{kind: compart.KindProp, key: "Work", flag: true},
	})
	fanout := make([]remoteUpdate, 96)
	for i := range fanout {
		fanout[i] = remoteUpdate{kind: compart.KindProp, key: "U", flag: true}
	}
	for i, seed := range [][]byte{
		appendGroup(nil, 1, []remoteUpdate{{kind: compart.KindProp, key: "U", flag: true}}),
		hop,
		appendGroup(nil, 1<<20, fanout),
		hop[:len(hop)-3], // the assert's key cut short
	} {
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
		lo, members, ok := decodeGroup(p)
		queued, acked := sink.met.RemoteQueued.Load(), acks.Load()
		sink.handleMessage(compart.Message{From: "a::j", To: "g1::j", Kind: compart.KindGroup, Payload: p})
		sink.Table().ApplyPending()
		gotQueued, gotAcks := sink.met.RemoteQueued.Load()-queued, acks.Load()-acked
		if !ok {
			if gotQueued != 0 || gotAcks != 0 {
				t.Fatalf("undecodable payload %x: %d updates queued, %d acks sent", p, gotQueued, gotAcks)
			}
		} else {
			if gotQueued != uint64(len(members)) || gotAcks != 1 {
				t.Fatalf("group of %d: %d updates queued, %d acks sent", len(members), gotQueued, gotAcks)
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
		// without growing.
		exact := make([]byte, 0, len(enc))
		if again := appendGroup(exact, wantLo, ups); len(again) != len(enc) || &again[:1][0] != &exact[:1][0] {
			t.Fatalf("group of %d encoded into %d bytes, then grew a buffer of %d: not sized exactly", len(ups), len(again), len(enc))
		}
		gotLo, got, ok := decodeGroup(enc)
		if !ok || gotLo != wantLo || !sameMembers(got, ups) {
			t.Fatalf("group of %d (seed %d) did not round-trip: ok=%v lo %d, want %d", len(ups), seed, ok, gotLo, wantLo)
		}
	})
}
