package compart

import (
	"bytes"
	"sync"
)

// Parked is an endpoint frozen for a migration cutover: frames delivered to
// it are buffered in arrival order instead of reaching a handler, until
// Release installs the endpoint's next handler and replays the buffer
// through it. It is the cutover barrier underneath live instance
// migration: during the freeze, in-flight frames are neither lost nor
// applied to a table that is being exported — they wait, then land on
// whichever side of the cutover Release chooses.
//
// Conservation holds throughout: a buffered frame was counted Delivered by
// the network when it reached the parking handler, and the replay hands the
// same frames to the next handler directly, outside the network's
// counters, so no frame is counted twice and none disappears.
type Parked struct {
	n    *Network
	name string

	mu       sync.Mutex
	released bool
	h        Handler
	buf      []Message
}

// Park freezes the named endpoint: its registration is replaced with a
// buffering handler. The endpoint stays up — senders keep getting nil from
// Send — but nothing is processed until Release. Parking an endpoint that
// does not exist creates it (Register semantics).
func (n *Network) Park(name string) *Parked {
	p := &Parked{n: n, name: name}
	n.Register(name, p.handle)
	return p
}

func (p *Parked) handle(m Message) {
	p.mu.Lock()
	if !p.released {
		// The payload is lent for this call only (Handler); the buffer
		// outlives it.
		m.Payload = bytes.Clone(m.Payload)
		p.buf = append(p.buf, m)
		p.mu.Unlock()
		return
	}
	// A frame routed to the parking registration concurrently with Release:
	// the lock ordered it after the buffered replay, so it delivers to the
	// post-cutover handler without overtaking anything buffered.
	h := p.h
	p.mu.Unlock()
	h(m)
}

// Buffered reports how many frames are currently parked.
func (p *Parked) Buffered() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.buf)
}

// Release ends the freeze: h becomes the endpoint's handler, every buffered
// frame is replayed to it in arrival order, and the live registration is
// swapped so subsequent deliveries go direct. The swap happens under the
// park lock after the replay, and the network reads registrations at
// delivery time, so a frame delivered through the new registration can never
// overtake a buffered one. Returns the number of frames replayed; calling
// Release twice is an error-free no-op.
func (p *Parked) Release(h Handler) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.released {
		return 0
	}
	p.h = h
	buf := p.buf
	p.buf = nil
	for _, m := range buf {
		h(m)
	}
	p.released = true
	p.n.Register(p.name, h)
	return len(buf)
}
