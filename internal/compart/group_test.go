package compart

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// keyed builds n prop messages to one endpoint with keys prefix0..prefix(n-1).
func keyed(prefix string, n int) []Message {
	ms := make([]Message, n)
	for i := range ms {
		ms[i] = Message{From: "src", To: "sink", Kind: KindProp, Key: fmt.Sprintf("%s%d", prefix, i), Payload: []byte{byte(i)}}
	}
	return ms
}

func mustEncode(t *testing.T, m Message) []byte {
	t.Helper()
	body, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// readMessages decodes a frame stream the way a server does — one frame at
// a time, an envelope through DecodeBatch, which refuses nesting — until want
// messages were seen, and returns them in wire order with the number of
// envelope frames among them.
func readMessages(r io.Reader, want int) (msgs []Message, envelopes int, err error) {
	for len(msgs) < want {
		frame, err := readFrame(r)
		if err != nil {
			return msgs, envelopes, err
		}
		m, err := DecodeMessage(frame)
		if err != nil {
			return msgs, envelopes, err
		}
		if m.Kind != KindBatch {
			msgs = append(msgs, m)
			continue
		}
		inner, err := DecodeBatch(m.Payload)
		if err != nil {
			return msgs, envelopes, err
		}
		envelopes++
		msgs = append(msgs, inner...)
	}
	return msgs, envelopes, nil
}

// readKeys is readMessages reporting only the messages' keys.
func readKeys(r io.Reader, want int) (keys []string, envelopes int, err error) {
	msgs, envelopes, err := readMessages(r, want)
	for _, m := range msgs {
		keys = append(keys, m.Key)
	}
	return keys, envelopes, err
}

func wantKeys(t *testing.T, got []string, groups ...[]Message) {
	t.Helper()
	var want []string
	for _, g := range groups {
		for _, m := range g {
			want = append(want, m.Key)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("wire carried %v, want %v", got, want)
	}
}

// TestWriteCoalescedNeverNests: a body that already is an envelope ends the
// run of plain frames before it and goes out standalone. Packed next to its
// neighbours it would sit inside an outer envelope, which every receiver
// rejects whole ("nested batch") — up to a full drained run lost silently.
func TestWriteCoalescedNeverNests(t *testing.T) {
	a, g1, b, g2, c := keyed("a", 2), keyed("g", 3), keyed("b", 1), keyed("h", 2), keyed("c", 2)
	var bodies [][]byte
	add := func(plain []Message, group []Message) {
		for _, m := range plain {
			bodies = append(bodies, mustEncode(t, m))
		}
		if group != nil {
			env, err := PackBatch(group)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, mustEncode(t, env))
		}
	}
	add(a, g1)
	add(b, g2)
	add(c, nil)

	var buf bytes.Buffer
	var sizes []int
	written, err := writeCoalesced(&buf, bodies, func(n int) { sizes = append(sizes, n) })
	if err != nil || written != len(bodies) {
		t.Fatalf("written %d/%d: %v", written, len(bodies), err)
	}
	keys, envelopes, err := readKeys(&buf, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, keys, a, g1, b, g2, c)
	// Packed here: a0+a1 and c0+c1; built above: g, h; b0 is alone between two
	// envelopes and stays plain.
	want := []int{2, 3, 2, 2}
	if fmt.Sprint(sizes) != fmt.Sprint(want) || envelopes != len(want) {
		t.Fatalf("batches %v (%d envelopes on the wire), want %v", sizes, envelopes, want)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d trailing bytes", buf.Len())
	}
}

// TestPumpDrainsEnvelopeBesidePlainFrames pins the same property through the
// reconnecting client's pump, deterministically: the pump blocks flushing a
// first frame into an unread net.Pipe, so everything sent meanwhile — plain
// frames around two pre-built envelopes — is drained as one run. Every inner
// message must arrive, in order, and the client's ledger must count the
// envelopes it did not pack itself.
func TestPumpDrainsEnvelopeBesidePlainFrames(t *testing.T) {
	ours, theirs := net.Pipe()
	defer ours.Close()
	client := DialReconnect("pipe", ReconnectConfig{BackoffMin: time.Hour, Dial: dialConn(theirs)})
	first, a, g1, b, g2, c := keyed("first", 1), keyed("a", 2), keyed("g", 3), keyed("b", 1), keyed("h", 4), keyed("c", 2)
	if err := client.Send(first[0]); err != nil {
		t.Fatal(err)
	}
	// A pipe write returns only when all of it was read: once the first
	// frame's length prefix has come through, the pump is inside that frame's
	// flush and stays there until the body is read below.
	_ = ours.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [4]byte
	if _, err := io.ReadFull(ours, hdr[:]); err != nil {
		t.Fatal(err)
	}
	for _, part := range [][]Message{a, g1, b, g2, c} {
		var err error
		if len(part) >= 3 {
			err = SendGroup(client.Send, part)
		} else {
			for _, m := range part {
				if e := client.Send(m); e != nil {
					err = e
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(ours, body); err != nil {
		t.Fatal(err)
	}
	if m, err := DecodeMessage(body); err != nil || m.Key != first[0].Key {
		t.Fatalf("first frame: %+v, %v", m, err)
	}
	keys, envelopes, err := readKeys(ours, 12)
	if err != nil {
		t.Fatalf("after %v: %v", keys, err)
	}
	wantKeys(t, keys, a, g1, b, g2, c)
	if envelopes != 4 { // a0+a1, g, h, c0+c1
		t.Fatalf("%d envelopes on the wire, want 4", envelopes)
	}
	client.Close()
	cs := client.Stats()
	// 6 plain frames and 2 envelopes were enqueued.
	if cs.Enqueued != 8 || cs.Sent != 8 || cs.Dropped != 0 {
		t.Fatalf("client ledger: %+v", cs)
	}
	if cs.BatchesSent != 4 || cs.MsgsPerBatch.Sum != 2+3+4+2 || cs.MsgsPerBatch.Max != 4 {
		t.Fatalf("envelope accounting: %d batches, sizes %+v", cs.BatchesSent, cs.MsgsPerBatch)
	}
}

// TestNetworkSendUnpacksEnvelope: a carrier that ends in a Network (a
// deployment's in-process uplink) hands it envelopes; Send must inject the
// members as one delivery group, not reject the envelope as addressed to "".
func TestNetworkSendUnpacksEnvelope(t *testing.T) {
	n := newTestNetwork(t, 1)
	var groups [][]Message
	n.RegisterBatch("sink", func(m Message) { groups = append(groups, []Message{m}) },
		func(ms []Message) { groups = append(groups, ms) })
	group := keyed("k", 3)
	env, err := PackBatch(group)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Send(env); err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || len(groups[0]) != 3 {
		t.Fatalf("delivered as %d groups %v, want one group of 3", len(groups), groups)
	}
	for i, m := range groups[0] {
		if m.Key != group[i].Key || m.From != "src" || !bytes.Equal(m.Payload, group[i].Payload) {
			t.Fatalf("member %d arrived as %+v", i, m)
		}
	}
	if st := n.Stats(); st.Sent != 3 || st.Delivered != 3 {
		t.Fatalf("members not accounted one by one: %+v", st)
	}

	// A corrupt envelope is an error and moves no counter.
	bad := env
	bad.Payload = env.Payload[:len(env.Payload)-1]
	if err := n.Send(bad); err == nil {
		t.Fatal("truncated envelope accepted")
	}
	if st := n.Stats(); st.Sent != 3 {
		t.Fatalf("corrupt envelope was accounted: %+v", st)
	}

	// A down endpoint rejects every member and reports it, as Send does.
	n.Crash("sink")
	if err := n.Send(env); !errors.Is(err, ErrEndpointDown) {
		t.Fatalf("envelope to a crashed endpoint: %v", err)
	}
	if st := n.Stats(); st.Sent != 6 || st.Rejected != 3 {
		t.Fatalf("rejected members not accounted: %+v", st)
	}
}

// TestSendBatchGrouping covers both halves of SendBatch: the uniform group
// (one link, everything survives) is delivered as the caller's slice itself,
// and anything else is regrouped per destination in order, with the first
// send-time failure reported and the conservation invariant exact.
func TestSendBatchGrouping(t *testing.T) {
	n := newTestNetwork(t, 1)
	got := map[string][][]Message{}
	for _, name := range []string{"sink", "other"} {
		n.RegisterBatch(name, func(m Message) { t.Errorf("%s: group member delivered singly", name) },
			func(ms []Message) { got[name] = append(got[name], ms) })
	}
	n.Register("dead", func(Message) { t.Error("delivered to a crashed endpoint") })
	n.Crash("dead")

	uniform := keyed("u", 5)
	if err := n.SendBatch(uniform); err != nil {
		t.Fatal(err)
	}
	if len(got["sink"]) != 1 || len(got["sink"][0]) != 5 || &got["sink"][0][0] != &uniform[0] {
		t.Fatalf("uniform group was regrouped or copied: %v", got["sink"])
	}

	mixed := keyed("m", 6)
	mixed[2].To = "dead"
	mixed[3].To = "other"
	mixed[5].To = "other"
	err := n.SendBatch(mixed)
	if !errors.Is(err, ErrEndpointDown) {
		t.Fatalf("mixed group with a down member: %v", err)
	}
	keysOf := func(ms []Message) (ks []string) {
		for _, m := range ms {
			ks = append(ks, m.Key)
		}
		return
	}
	if g := got["sink"]; len(g) != 2 || fmt.Sprint(keysOf(g[1])) != "[m0 m1 m4]" {
		t.Fatalf("sink groups: %v", g)
	}
	if g := got["other"]; len(g) != 1 || fmt.Sprint(keysOf(g[0])) != "[m3 m5]" {
		t.Fatalf("other groups: %v", g)
	}
	if st := n.Stats(); st.Sent != 11 || st.Delivered != 10 || st.Rejected != 1 {
		t.Fatalf("counters: %+v", st)
	}

	n.Partition("src", "sink")
	if err := n.SendBatch(keyed("p", 2)); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("group across a partition: %v", err)
	}
	if len(got["sink"]) != 2 {
		t.Fatal("partitioned group delivered")
	}
}

// TestSendBatchLossIsPrefixClosed: on a lossy link a group may lose its tail
// but never a member from the middle — once the link drops one member of a
// call, the members behind it on that link go with it, each still counted —
// so no receiver ever holds member s+1 of a group without member s. A second
// link in the same call is cut (or not) on its own.
func TestSendBatchLossIsPrefixClosed(t *testing.T) {
	n := newTestNetwork(t, 20230517)
	n.SetLink("src", "sink", LinkConfig{DropProb: 0.2})
	n.SetLink("src", "other", LinkConfig{DropProb: 0.2})
	// Per endpoint, the members (by index within their group) the last call
	// delivered, in arrival order.
	got := map[string][]int{}
	for _, name := range []string{"sink", "other"} {
		n.RegisterBatch(name, func(m Message) { got[name] = append(got[name], int(m.Payload[0])) },
			func(ms []Message) {
				for _, m := range ms {
					got[name] = append(got[name], int(m.Payload[0]))
				}
			})
	}
	const groups, width = 400, 6
	cutShort, whole := 0, 0
	for g := 0; g < groups; g++ {
		// Members alternate between the two links; Payload[0] is the member's
		// index among those bound for its endpoint.
		msgs := make([]Message, 0, 2*width)
		for i := 0; i < width; i++ {
			msgs = append(msgs,
				Message{From: "src", To: "sink", Kind: KindProp, Key: "k", Payload: []byte{byte(i)}},
				Message{From: "src", To: "other", Kind: KindProp, Key: "k", Payload: []byte{byte(i)}})
		}
		got["sink"], got["other"] = nil, nil
		if err := n.SendBatch(msgs); err != nil {
			t.Fatal(err)
		}
		for name, members := range got {
			for i, m := range members {
				if m != i {
					t.Fatalf("group %d at %s: received members %v — member %d arrived without member %d", g, name, members, m, i)
				}
			}
			switch len(members) {
			case width:
				whole++
			default:
				cutShort++
			}
		}
	}
	if cutShort == 0 || whole == 0 {
		t.Fatalf("%d groups cut short, %d whole: the seed exercises only one side", cutShort, whole)
	}
	st := n.Stats()
	if st.Sent != 2*groups*width || st.Dropped == 0 || !st.Conserved() {
		t.Fatalf("counters not per message or not conserved: %+v", st)
	}
}

// TestGroupStatsConservationUnderChurn is TestBatchingStatsConservationUnderChurn
// for envelopes built above the client: groups go through SendGroup at a sink
// that crashes and revives mid-stream. The client counts every envelope it
// carried although it packed none, the server unpacks exactly what the
// client sent, and the substrate conserves across the rejected epochs.
func TestGroupStatsConservationUnderChurn(t *testing.T) {
	remote := newTestNetwork(t, 7)
	var mu sync.Mutex
	var delivered int
	remote.RegisterBatch("sink", func(Message) { mu.Lock(); delivered++; mu.Unlock() },
		func(ms []Message) { mu.Lock(); delivered += len(ms); mu.Unlock() })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(remote, l)
	defer srv.Close()
	const rounds, perRound = 8, 40
	// The queue holds every envelope of the run: Send never blocks.
	client := DialReconnect(srv.Addr().String(), ReconnectConfig{QueueSize: rounds * perRound})
	groups, msgs := 0, 0
	injected := func() uint64 {
		ss := srv.Stats()
		return (ss.Frames - ss.Batches) + ss.MsgsInBatches
	}
	for r := 0; r < rounds; r++ {
		if r%2 == 1 {
			remote.Crash("sink")
		}
		for i := 0; i < perRound; i++ {
			size := 2 + (r+i)%7
			if err := SendGroup(client.Send, keyed("k", size)); err != nil {
				t.Fatalf("round %d group %d: %v", r, i, err)
			}
			groups++
			msgs += size
		}
		if r%2 == 1 {
			// Hold the crash until the server has injected this round's
			// groups, so the crashed epoch actually rejects deliveries.
			deadline := time.Now().Add(5 * time.Second)
			for injected() < uint64(msgs) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			remote.Revive("sink")
		}
	}
	closeDrained(t, client)
	deadline := time.Now().Add(5 * time.Second)
	for injected() < uint64(msgs) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	cs := client.Stats()
	if cs.Enqueued != uint64(groups) || cs.Sent != cs.Enqueued || cs.Dropped != 0 {
		t.Fatalf("client ledger: %+v, want %d envelopes enqueued and sent", cs, groups)
	}
	if cs.BatchesSent != uint64(groups) || cs.MsgsPerBatch.Sum != uint64(msgs) {
		t.Fatalf("client counted %d envelopes holding %d messages, carried %d holding %d",
			cs.BatchesSent, cs.MsgsPerBatch.Sum, groups, msgs)
	}
	ss := srv.Stats()
	if ss.Batches != cs.BatchesSent || ss.MsgsInBatches != cs.MsgsPerBatch.Sum || injected() != uint64(msgs) {
		t.Fatalf("server unpacked %+v, client sent %d envelopes holding %d messages", ss, groups, msgs)
	}
	ns := remote.Stats()
	if !ns.Conserved() || ns.Sent != uint64(msgs) {
		t.Fatalf("substrate counters: %+v, want %d sent and conserved", ns, msgs)
	}
	if ns.Rejected == 0 {
		t.Fatal("no rejections recorded despite crashed-epoch groups")
	}
	mu.Lock()
	defer mu.Unlock()
	if uint64(delivered) != ns.Delivered {
		t.Fatalf("handlers saw %d deliveries, substrate recorded %d", delivered, ns.Delivered)
	}
}

// TestDecodeScratchSurvivesDelayedLinks: the server decodes every envelope
// of a connection into one reused member slice, which is sound only because
// SendBatch copies a group it cannot deliver before returning. Behind a link
// with latency, all envelopes arrive and are decoded before the first
// delivery, so a group that aliased the scratch would reach its handler
// holding a later envelope's members. Each handler call must see exactly its
// own group: members, keys and sequence payloads.
func TestDecodeScratchSurvivesDelayedLinks(t *testing.T) {
	remote := newTestNetwork(t, 1)
	remote.SetLink("src", "sink", LinkConfig{Latency: 300 * time.Millisecond})
	var mu sync.Mutex
	var got []string
	remote.RegisterBatch("sink", func(m Message) { t.Errorf("group member %q delivered singly", m.Key) },
		func(ms []Message) {
			mu.Lock()
			defer mu.Unlock()
			got = append(got, groupString(ms))
		})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(remote, l)
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Groups of different widths, so a later envelope both overwrites an
	// earlier one's members and leaves some of them in place.
	var want []string
	var stream bytes.Buffer
	seq := byte(0)
	for g, width := range []int{5, 2, 7, 3, 7, 1, 4} {
		ms := keyed(fmt.Sprintf("g%d.", g), width)
		for i := range ms {
			seq++
			ms[i].Payload = []byte{seq}
		}
		want = append(want, groupString(ms))
		env, err := PackBatch(ms)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(&stream, mustEncode(t, env)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(stream.Bytes()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "every envelope decoded", func() bool { return srv.Stats().Batches == uint64(len(want)) })
	mu.Lock()
	early := len(got)
	mu.Unlock()
	if early != 0 {
		t.Fatalf("%d groups delivered before the last envelope was decoded: the link delay did not hold them", early)
	}
	waitFor(t, 5*time.Second, "every group delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == len(want)
	})
	mu.Lock()
	defer mu.Unlock()
	sort.Strings(got) // each group has its own timer: arrival order is free
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("handlers saw\n%v\nwant\n%v", got, want)
	}
}

// groupString renders a delivery group's members as key=payload pairs.
func groupString(ms []Message) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%s->%s:%s=%v ", m.From, m.To, m.Key, m.Payload)
	}
	return b.String()
}
