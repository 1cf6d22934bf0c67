package compart

import (
	"reflect"
	"sync"
	"testing"
)

// TestEndpointsSorted pins the deterministic ordering contract of
// Network.Endpoints: whatever the registration order, listings come back
// sorted.
func TestEndpointsSorted(t *testing.T) {
	cases := []struct {
		name     string
		register []string
		want     []string
	}{
		{"already-sorted", []string{"a::x", "b::y", "c::z"}, []string{"a::x", "b::y", "c::z"}},
		{"reverse", []string{"c::z", "b::y", "a::x"}, []string{"a::x", "b::y", "c::z"}},
		{"interleaved", []string{"m::j", "a::j", "z::j", "k::j"}, []string{"a::j", "k::j", "m::j", "z::j"}},
		{"empty", nil, []string{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNetwork(1)
			for _, name := range tc.register {
				n.Register(name, func(Message) {})
			}
			got := n.Endpoints()
			if len(got) == 0 && len(tc.want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Endpoints() = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestParkBuffersAndReplaysInOrder checks the cutover barrier: frames sent
// while parked are buffered (and counted Delivered), then replayed to the
// released handler in arrival order before any direct delivery.
func TestParkBuffersAndReplaysInOrder(t *testing.T) {
	n := NewNetwork(1)
	n.Register("ep", func(Message) { t.Fatal("old handler must not see parked frames") })
	p := n.Park("ep")
	for i := byte(0); i < 5; i++ {
		if err := n.Send(Message{From: "src", To: "ep", Kind: KindData, Payload: []byte{i}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if got := p.Buffered(); got != 5 {
		t.Fatalf("Buffered() = %d, want 5", got)
	}
	var mu sync.Mutex
	var seen []byte
	replayed := p.Release(func(m Message) {
		mu.Lock()
		seen = append(seen, m.Payload[0])
		mu.Unlock()
	})
	if replayed != 5 {
		t.Fatalf("Release replayed %d, want 5", replayed)
	}
	// Post-release frames deliver directly.
	if err := n.Send(Message{From: "src", To: "ep", Kind: KindData, Payload: []byte{9}}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := append([]byte(nil), seen...)
	mu.Unlock()
	want := []byte{0, 1, 2, 3, 4, 9}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delivery order %v, want %v", got, want)
	}
	// Every frame was accepted and delivered exactly once: conservation.
	st := n.Stats()
	if !st.Conserved() {
		t.Fatalf("stats not conserved: %+v", st)
	}
	if st.Sent != 6 || st.Delivered != 6 {
		t.Fatalf("sent=%d delivered=%d, want 6/6", st.Sent, st.Delivered)
	}
	if p.Release(func(Message) {}) != 0 {
		t.Fatal("second Release must be a no-op")
	}
}

// TestParkedFrameOwnsItsPayload: a parked endpoint keeps each frame until
// Release, long after its sender's Send returned and the sender rewrote the
// buffer it lent; the replay must hand over the bytes as they were sent.
func TestParkedFrameOwnsItsPayload(t *testing.T) {
	n := newTestNetwork(t, 1)
	n.Register("ep", func(Message) { t.Fatal("old handler must not see parked frames") })
	p := n.Park("ep")
	buf := []byte("sent")
	if err := n.Send(Message{From: "src", To: "ep", Kind: KindData, Payload: buf}); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXX")
	var got string
	p.Release(func(m Message) { got = string(m.Payload) })
	if got != "sent" {
		t.Fatalf("the parked frame replayed %q, want %q", got, "sent")
	}
}
