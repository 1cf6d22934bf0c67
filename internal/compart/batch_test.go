package compart

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestBatchEnvelopeRoundTrip pins the envelope wire format: N encoded frames
// pack into one KindBatch frame and decode back to the same messages, in
// order, with payloads owned by the decoded copies.
func TestBatchEnvelopeRoundTrip(t *testing.T) {
	var msgs []Message
	var bodies [][]byte
	for i := 0; i < 37; i++ {
		m := Message{
			From: fmt.Sprintf("src%d::push", i%5), To: "sink::main",
			Kind: KindProp, Key: fmt.Sprintf("k%d", i), Flag: i%2 == 0,
			Payload: []byte{byte(i), 1, 2, 3},
		}
		body, err := EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, m)
		bodies = append(bodies, body)
	}
	env := appendBatchEnvelope(nil, bodies)
	outer, err := DecodeMessage(env[:len(env)])
	if err != nil || outer.Kind != KindBatch {
		t.Fatalf("envelope frame: %+v, %v", outer, err)
	}
	inner, err := decodeBatch(outer.Payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(inner) != len(msgs) {
		t.Fatalf("decoded %d messages, want %d", len(inner), len(msgs))
	}
	for i, m := range inner {
		want := msgs[i]
		if m.From != want.From || m.To != want.To || m.Key != want.Key ||
			m.Kind != want.Kind || m.Flag != want.Flag || !bytes.Equal(m.Payload, want.Payload) {
			t.Fatalf("entry %d = %+v, want %+v", i, m, want)
		}
	}
}

// TestBatchDecodeRejectsCorruption pins the all-or-nothing decode contract:
// truncation, trailing bytes, absurd counts and nested envelopes each fail
// the whole batch.
func TestBatchDecodeRejectsCorruption(t *testing.T) {
	body, err := EncodeMessage(Message{To: "sink", Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	env := appendBatchEnvelope(nil, [][]byte{body, body})
	outer, err := DecodeMessage(env)
	if err != nil {
		t.Fatal(err)
	}
	good := outer.Payload

	cases := map[string][]byte{
		"empty":        {},
		"truncated":    good[:len(good)-3],
		"trailing":     append(append([]byte(nil), good...), 0xee),
		"absurd count": {0xff, 0xff, 0xff, 0xff},
		"nested":       DecodeBatchNestedFixture(t, env),
	}
	for name, payload := range cases {
		if _, err := decodeBatch(payload, nil); err == nil {
			t.Errorf("%s batch decoded without error", name)
		}
	}
	// The good payload still decodes (the fixtures above didn't mutate it).
	if _, err := decodeBatch(good, nil); err != nil {
		t.Errorf("control payload failed: %v", err)
	}
}

// DecodeBatchNestedFixture builds a batch payload whose single entry is
// itself a KindBatch envelope.
func DecodeBatchNestedFixture(t *testing.T, envFrame []byte) []byte {
	t.Helper()
	nested := appendBatchEnvelope(nil, [][]byte{envFrame})
	outer, err := DecodeMessage(nested)
	if err != nil {
		t.Fatal(err)
	}
	return outer.Payload
}

// TestBatchOversizeRunSplits pins writeCoalesced's split behavior: a drained
// run whose single envelope would exceed maxFrame goes out as several
// envelopes, every body is written exactly once, and the stream decodes.
func TestBatchOversizeRunSplits(t *testing.T) {
	big := bytes.Repeat([]byte{0xab}, maxFrame/4)
	var bodies [][]byte
	for i := 0; i < 9; i++ {
		body, err := EncodeMessage(Message{To: "sink", Key: fmt.Sprintf("k%d", i), Kind: KindData, Payload: big})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	var buf bytes.Buffer
	batches := 0
	written, err := writeCoalesced(&buf, bodies, func(int) { batches++ })
	if err != nil || written != len(bodies) {
		t.Fatalf("written %d/%d: %v", written, len(bodies), err)
	}
	if batches < 2 {
		t.Fatalf("oversize run packed into %d envelopes, expected a split", batches)
	}
	// The whole stream decodes back to the 9 messages, in order.
	r := bytes.NewReader(buf.Bytes())
	var got int
	for r.Len() > 0 {
		frame, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		m, err := DecodeMessage(frame)
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != KindBatch {
			t.Fatalf("expected only envelopes on the wire, got kind %d", m.Kind)
		}
		inner, err := decodeBatch(m.Payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range inner {
			if im.Key != fmt.Sprintf("k%d", got) {
				t.Fatalf("message %d out of order: %q", got, im.Key)
			}
			got++
		}
	}
	if got != len(bodies) {
		t.Fatalf("decoded %d messages, want %d", got, len(bodies))
	}
}

// TestInternDecodeAliasesAndDedups covers the serveConn decode path: with an
// intern cache the inner messages share string memory across repeats and
// alias their payloads into the envelope, and the cache cap degrades to
// plain allocation instead of growing without bound.
func TestInternDecodeAliasesAndDedups(t *testing.T) {
	body, err := EncodeMessage(Message{From: "a::j", To: "b::k", Key: "prop", Kind: KindProp, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	env := appendBatchEnvelope(nil, [][]byte{body, body, body})
	outer, err := DecodeMessage(env)
	if err != nil {
		t.Fatal(err)
	}
	si := make(strIntern)
	inner, err := decodeBatch(outer.Payload, si)
	if err != nil {
		t.Fatal(err)
	}
	if len(inner) != 3 {
		t.Fatalf("decoded %d", len(inner))
	}
	// Same string backing across repeats (intern hit), payload aliased into
	// the envelope buffer.
	if &inner[0].From != &inner[0].From { // vacuous; real check below via map identity
		t.Fatal("unreachable")
	}
	if len(si) != 3 {
		t.Fatalf("intern cache holds %d entries, want 3 (From, To, Key)", len(si))
	}
	// Aliasing is observable by mutation: scribbling on the envelope buffer
	// must show through the aliased payload.
	p := inner[1].Payload
	orig := p[0]
	base := outer.Payload
	for i := range base {
		base[i] ^= 0xff
	}
	if p[0] == orig {
		t.Fatal("payload was copied; expected an alias into the envelope buffer")
	}
	// Cap: a flood of unique keys stops growing the cache at maxIntern.
	for i := 0; i < maxIntern+100; i++ {
		si.get([]byte(fmt.Sprintf("unique-%d", i)))
	}
	if len(si) > maxIntern {
		t.Fatalf("intern cache grew to %d, cap is %d", len(si), maxIntern)
	}
}

// TestDecodeBatchReusesRepeatedAddresses: a member whose From, To or Key
// spells its predecessor's shares the predecessor's string — no intern lookup,
// no allocation — and a field that differs is decoded afresh.
func TestDecodeBatchReusesRepeatedAddresses(t *testing.T) {
	var bodies [][]byte
	for _, m := range []Message{
		{From: "a::j", To: "b::k", Key: "U", Kind: KindProp},
		{From: "a::j", To: "b::k", Key: "U", Kind: KindProp, Flag: true},
		{From: "a::j", To: "b::k", Key: "V", Kind: KindProp},
		{From: "c::j", To: "b::k", Key: "V", Kind: KindProp},
	} {
		body, err := EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	payloadOf := func(bodies [][]byte) []byte {
		env, err := DecodeMessage(appendBatchEnvelope(nil, bodies))
		if err != nil {
			t.Fatal(err)
		}
		return env.Payload
	}
	inner, err := decodeBatch(payloadOf(bodies), nil)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	if !same(inner[1].From, inner[0].From) || !same(inner[1].To, inner[0].To) || !same(inner[1].Key, inner[0].Key) {
		t.Fatal("a repeated member decoded its addresses afresh")
	}
	if inner[2].Key != "V" || same(inner[2].Key, inner[1].Key) || !same(inner[2].From, inner[1].From) {
		t.Fatalf("member 2 = %+v: a changed key must be decoded, the repeated sender shared", inner[2])
	}
	if inner[3].From != "c::j" || !same(inner[3].Key, inner[2].Key) || !same(inner[3].To, inner[0].To) {
		t.Fatalf("member 3 = %+v: a changed sender must be decoded, the repeated key and destination shared", inner[3])
	}
	// Without an intern cache, 64 identical members allocate what one does:
	// the member slice and the first member's three strings.
	one := payloadOf(bodies[:1])
	repeated := make([][]byte, 64)
	for i := range repeated {
		repeated[i] = bodies[0]
	}
	same64 := payloadOf(repeated)
	base := testing.AllocsPerRun(20, func() { _, _ = decodeBatch(one, nil) })
	if n := testing.AllocsPerRun(20, func() { _, _ = decodeBatch(same64, nil) }); n != base {
		t.Fatalf("decoding 64 identical members allocates %v times, one member %v", n, base)
	}
}

// TestClientCoalescesBursts pins the coalescing writer end to end,
// deterministically: the client writes into an unbuffered net.Pipe that
// nobody reads until the whole burst is enqueued (the queue holds all of it:
// Send never blocks), so once the pump's buffered writer fills, the backlog
// must drain as KindBatch envelopes. The reader then decodes the stream and
// checks order and conservation.
func TestClientCoalescesBursts(t *testing.T) {
	ours, theirs := net.Pipe()
	defer ours.Close()
	client := DialReconnect("pipe", ReconnectConfig{QueueSize: 2048, BackoffMin: time.Hour, Dial: dialConn(theirs)})

	const n = 1000
	for i := 0; i < n; i++ {
		if err := client.Send(Message{To: "sink", Key: fmt.Sprintf("k%d", i), Kind: KindProp}); err != nil {
			t.Fatal(err)
		}
	}
	// Read the stream while the pump drains the backlog.
	type result struct {
		msgs      int
		envelopes int
		err       error
	}
	done := make(chan result, 1)
	go func() {
		var res result
		for res.msgs < n {
			_ = ours.SetReadDeadline(time.Now().Add(5 * time.Second))
			frame, err := readFrame(ours)
			if err != nil {
				res.err = err
				break
			}
			m, err := DecodeMessage(frame)
			if err != nil {
				res.err = err
				break
			}
			if m.Kind == KindBatch {
				inner, err := decodeBatch(m.Payload, nil)
				if err != nil {
					res.err = err
					break
				}
				for _, im := range inner {
					if im.Key != fmt.Sprintf("k%d", res.msgs) {
						res.err = fmt.Errorf("message %d out of order: %q", res.msgs, im.Key)
						break
					}
					res.msgs++
				}
				res.envelopes++
				continue
			}
			if m.Key != fmt.Sprintf("k%d", res.msgs) {
				res.err = fmt.Errorf("message %d out of order: %q", res.msgs, m.Key)
				break
			}
			res.msgs++
		}
		done <- res
	}()
	closeDrained(t, client)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.msgs != n {
		t.Fatalf("decoded %d/%d messages", res.msgs, n)
	}
	// 1000 ~30-byte frames dwarf the 4KB buffered writer: the backlog can
	// only have gone out packed.
	if res.envelopes == 0 {
		t.Fatal("no batch envelopes on the wire for a blocked-reader burst")
	}
	cs := client.Stats()
	if cs.Enqueued != n || cs.Sent != n || cs.Dropped != 0 {
		t.Fatalf("client counters not conserved: %+v", cs)
	}
	if cs.BatchesSent != uint64(res.envelopes) {
		t.Fatalf("client counted %d envelopes, wire carried %d", cs.BatchesSent, res.envelopes)
	}
	if cs.MsgsPerBatch.Mean() <= 1 {
		t.Fatalf("degenerate batch sizes: %+v", cs.MsgsPerBatch)
	}
}

// TestBatchingStatsConservationUnderChurn is the transport-conservation
// property test: a sender bursting through the coalescing writer at a sink
// that crashes and revives repeatedly must keep every counter ledger exact —
// client Enqueued == Sent + Dropped, server (Frames - Batches) +
// MsgsInBatches == messages injected, and the substrate's own conservation
// across delivered/rejected. Run under -race in CI.
func TestBatchingStatsConservationUnderChurn(t *testing.T) {
	remote := newTestNetwork(t, 7)
	var mu sync.Mutex
	var delivered int
	remote.Register("sink", func(m Message) { mu.Lock(); delivered++; mu.Unlock() })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(remote, l)
	defer srv.Close()
	const rounds, perRound = 8, 200
	// Send never blocks, so the queue holds the whole burst: a full queue
	// would be a counted drop, not back-pressure.
	client := DialReconnect(srv.Addr().String(), ReconnectConfig{QueueSize: rounds * perRound})
	sent := 0
	injected := func() uint64 {
		ss := srv.Stats()
		return (ss.Frames - ss.Batches) + ss.MsgsInBatches
	}
	for r := 0; r < rounds; r++ {
		if r%2 == 1 {
			remote.Crash("sink")
		}
		for i := 0; i < perRound; i++ {
			if err := client.Send(Message{To: "sink", Key: "k", Kind: KindProp, Flag: true}); err != nil {
				t.Fatalf("round %d send %d: %v", r, i, err)
			}
			sent++
		}
		if r%2 == 1 {
			// Hold the crash until the server has injected this round's
			// sends, so the crashed epoch actually rejects deliveries
			// (otherwise the TCP pipeline outlives the crash window).
			deadline := time.Now().Add(5 * time.Second)
			for injected() < uint64(sent) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			remote.Revive("sink")
		}
	}
	closeDrained(t, client)

	// Wait for the server to drain everything the client flushed.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ss := srv.Stats()
		if (ss.Frames-ss.Batches)+ss.MsgsInBatches == uint64(sent) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	cs := client.Stats()
	if cs.Enqueued != uint64(sent) {
		t.Fatalf("client Enqueued = %d, want %d", cs.Enqueued, sent)
	}
	if cs.Sent+cs.Dropped != cs.Enqueued {
		t.Fatalf("client ledger leaks: %+v", cs)
	}
	ss := srv.Stats()
	if injected := (ss.Frames - ss.Batches) + ss.MsgsInBatches; injected != cs.Sent {
		t.Fatalf("server injected %d messages but client sent %d (%+v)", injected, cs.Sent, ss)
	}
	ns := remote.Stats()
	if !ns.Conserved() {
		t.Fatalf("substrate counters not conserved: %+v", ns)
	}
	// Crashed-epoch messages must show up as rejections, not silence.
	if ns.Rejected == 0 {
		t.Fatal("no rejections recorded despite crashed-epoch sends")
	}
	mu.Lock()
	defer mu.Unlock()
	if uint64(delivered) != ns.Delivered {
		t.Fatalf("handler saw %d deliveries, substrate recorded %d", delivered, ns.Delivered)
	}
}

// TestInternCapKeyFlood complements the cap check with the strings actually
// flowing through a server connection: a flood of unique keys must not grow
// the per-connection cache past its bound.
func TestInternCapKeyFlood(t *testing.T) {
	si := make(strIntern)
	for i := 0; i < 3*maxIntern; i++ {
		s := si.get([]byte(strings.Repeat("k", 3) + fmt.Sprint(i)))
		if s == "" {
			t.Fatal("empty intern result")
		}
	}
	if len(si) > maxIntern {
		t.Fatalf("cache size %d exceeds cap %d", len(si), maxIntern)
	}
}
