package compart

import (
	"fmt"
	"io"
	"net"
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

// groupMsg is a KindGroup message from src to sink holding size updates'
// worth of bytes, which the substrate carries without reading.
func groupMsg(key string, size int) Message {
	return Message{From: "src", To: "sink", Kind: KindGroup, Key: key, Payload: make([]byte, 8+size)}
}

// readMessages decodes a frame stream the way a server does, one message
// per frame, until want messages were seen, and returns them in wire order.
func readMessages(r io.Reader, want int) ([]Message, error) {
	var msgs []Message
	fr := newFrameReader(r)
	for len(msgs) < want {
		frame, err := fr.next()
		if err != nil {
			return msgs, err
		}
		m, err := DecodeMessage(frame)
		if err != nil {
			return msgs, err
		}
		msgs = append(msgs, m)
	}
	return msgs, nil
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

// TestGroupStatsConservationUnderChurn is TestBatchingStatsConservationUnderChurn
// for group messages: groups of varying width go over TCP to a sink that
// crashes and revives mid-stream. Each group is one message at every layer —
// one enqueued and sent by the client, one frame injected by the server, one
// sent, delivered or rejected by the substrate — and every ledger stays exact
// across the rejected epochs.
func TestGroupStatsConservationUnderChurn(t *testing.T) {
	remote := newTestNetwork(t, 7)
	var mu sync.Mutex
	var delivered int
	remote.Register("sink", func(Message) { mu.Lock(); delivered++; mu.Unlock() })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(remote, l)
	defer srv.Close()
	const rounds, perRound = 8, 40
	// The queue holds every group of the run: Send never blocks.
	client := DialReconnect(srv.Addr().String(), ReconnectConfig{QueueSize: rounds * perRound})
	groups := 0
	injected := func() uint64 { return srv.Stats().Frames }
	for r := 0; r < rounds; r++ {
		if r%2 == 1 {
			remote.Crash("sink")
		}
		for i := 0; i < perRound; i++ {
			if err := client.Send(groupMsg("k", 2+(r+i)%7)); err != nil {
				t.Fatalf("round %d group %d: %v", r, i, err)
			}
			groups++
		}
		if r%2 == 1 {
			// Hold the crash until the server has injected this round's
			// groups, so the crashed epoch actually rejects deliveries.
			deadline := time.Now().Add(5 * time.Second)
			for injected() < uint64(groups) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			remote.Revive("sink")
		}
	}
	closeDrained(t, client)
	deadline := time.Now().Add(5 * time.Second)
	for injected() < uint64(groups) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	cs := client.Stats()
	if cs.Enqueued != uint64(groups) || cs.Sent != cs.Enqueued || cs.Dropped != 0 {
		t.Fatalf("client ledger: %+v, want %d groups enqueued and sent", cs, groups)
	}
	if ss := srv.Stats(); ss.Frames != uint64(groups) || ss.DecodeErrors != 0 {
		t.Fatalf("server injected %+v, client sent %d groups", ss, groups)
	}
	ns := remote.Stats()
	if !ns.Conserved() || ns.Sent != uint64(groups) {
		t.Fatalf("substrate counters: %+v, want %d sent and conserved", ns, groups)
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
