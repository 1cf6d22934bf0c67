// Package compart is the distributed runtime substrate underneath the C-Saw
// runtime — the Go equivalent of libcompart in the paper (§3 "Running
// software composed using C-Saw"): a lightweight, portable runtime that
// provides channel abstractions for communication between instances.
//
// The substrate exposes named endpoints connected by configurable links.
// Links model the deployment medium: per-link latency, loss probability and
// partitions can be injected, which the evaluation harness uses to emulate
// "same VM" versus "cross VM" placements and transient network failures.
// An additional TCP transport (transport.go) carries the same messages
// across real sockets between processes.
package compart

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Errors reported by Send.
var (
	// ErrEndpointDown is returned when the destination endpoint is crashed
	// or was never registered.
	ErrEndpointDown = errors.New("compart: endpoint down")
	// ErrPartitioned is returned when the link between the endpoints is
	// partitioned.
	ErrPartitioned = errors.New("compart: link partitioned")
	// ErrNetworkClosed is returned after Close.
	ErrNetworkClosed = errors.New("compart: network closed")
)

// MessageKind tags the payload so receivers can dispatch without decoding.
type MessageKind uint8

// Message kinds used by the C-Saw runtime. Applications may define their own
// above KindUser.
const (
	// KindProp carries an assert/retract of a proposition.
	KindProp MessageKind = iota
	// KindData carries a write of named data.
	KindData
	// KindControl carries instance lifecycle control.
	KindControl
	// KindBatch is a transport-level envelope packing several encoded
	// messages into one frame (batch.go). It never reaches application
	// handlers: the TCP server and Network.Send unpack it and inject the
	// inner messages as one delivery group.
	KindBatch MessageKind = 63
	// KindUser is the first kind available to applications.
	KindUser MessageKind = 64
)

// Message is one unit of communication between endpoints.
type Message struct {
	From    string
	To      string
	Kind    MessageKind
	Key     string
	Flag    bool
	Payload []byte
}

// Handler receives delivered messages. Handlers run on the delivering
// goroutine and must not block for long.
type Handler func(Message)

// BatchHandler receives a delivery group: several messages for the same
// endpoint that crossed the network together (one decoded KindBatch
// envelope, grouped by destination). Like Handler it runs on the delivering
// goroutine. The slice belongs to the sender and is valid only during the
// call: a handler that keeps messages copies them out. Endpoints registered
// without one (Register) receive group members individually through their
// Handler.
type BatchHandler func([]Message)

// LinkConfig describes the behaviour of a directed link.
type LinkConfig struct {
	// Latency delays each delivery by the given duration.
	Latency time.Duration
	// Jitter adds a uniformly random extra delay in [0, Jitter).
	Jitter time.Duration
	// DropProb is the probability in [0,1] that a message is silently lost.
	DropProb float64
	// Partitioned fails every Send with ErrPartitioned.
	Partitioned bool
}

type linkKey struct{ from, to string }

type endpoint struct {
	name    string
	handler Handler
	batch   BatchHandler
	up      bool
	stats   EndpointStats
}

// Stats aggregates network-level counters. At any quiescent point
// Sent == Delivered + Dropped + Rejected + LostInFlight (see Conserved).
type Stats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Rejected  uint64
	// LostInFlight counts messages accepted at send time whose delayed
	// delivery was then lost to a crash, deregistration or network closure
	// while in flight.
	LostInFlight uint64
}

// Network is a set of endpoints and the links between them. It is safe for
// concurrent use.
type Network struct {
	mu        sync.Mutex
	endpoints map[string]*endpoint
	links     map[linkKey]LinkConfig
	linkStats map[linkKey]*LinkStats
	def       LinkConfig
	rng       *rand.Rand
	closed    bool
	stats     Stats
	pending   sync.WaitGroup
}

// NewNetwork creates an empty network. seed makes fault injection
// deterministic.
func NewNetwork(seed int64) *Network {
	return &Network{
		endpoints: map[string]*endpoint{},
		links:     map[linkKey]LinkConfig{},
		linkStats: map[linkKey]*LinkStats{},
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Register creates (or revives) an endpoint with the given handler.
func (n *Network) Register(name string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.endpoints[name] = &endpoint{name: name, handler: h, up: true}
}

// RegisterBatch creates (or revives) an endpoint that additionally accepts
// whole delivery groups through bh; single-message Sends still arrive
// through h.
func (n *Network) RegisterBatch(name string, h Handler, bh BatchHandler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.endpoints[name] = &endpoint{name: name, handler: h, batch: bh, up: true}
}

// Deregister removes an endpoint entirely.
func (n *Network) Deregister(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.endpoints, name)
}

// Crash marks an endpoint down without removing it; Sends to it fail with
// ErrEndpointDown until Revive.
func (n *Network) Crash(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[name]; ok {
		ep.up = false
	}
}

// Revive brings a crashed endpoint back up.
func (n *Network) Revive(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[name]; ok {
		ep.up = true
	}
}

// Up reports whether an endpoint exists and is not crashed.
func (n *Network) Up(name string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep, ok := n.endpoints[name]
	return ok && ep.up
}

// Endpoints returns the names of all registered endpoints, sorted, so
// listings are deterministic across runs and map-iteration orders.
func (n *Network) Endpoints() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.endpoints))
	for name := range n.endpoints {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SetDefaultLink configures the link used for endpoint pairs without a
// specific configuration.
func (n *Network) SetDefaultLink(cfg LinkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.def = cfg
}

// SetLink configures the directed link from→to.
func (n *Network) SetLink(from, to string, cfg LinkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey{from, to}] = cfg
}

// SetBidiLink configures both directions between two endpoints.
func (n *Network) SetBidiLink(a, b string, cfg LinkConfig) {
	n.SetLink(a, b, cfg)
	n.SetLink(b, a, cfg)
}

// Partition severs both directions between two endpoints.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, k := range []linkKey{{a, b}, {b, a}} {
		cfg := n.linkLocked(k)
		cfg.Partitioned = true
		n.links[k] = cfg
	}
}

// Heal removes a partition between two endpoints.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, k := range []linkKey{{a, b}, {b, a}} {
		cfg := n.linkLocked(k)
		cfg.Partitioned = false
		n.links[k] = cfg
	}
}

func (n *Network) linkLocked(k linkKey) LinkConfig {
	if cfg, ok := n.links[k]; ok {
		return cfg
	}
	return n.def
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Send delivers a message from→to subject to the link configuration.
// Delivery is asynchronous when the link has latency; the error reflects
// only conditions known at send time (down endpoint, partition, closure).
// Dropped messages return nil — loss is silent, as on a real network, but
// every loss is counted: Dropped for link loss at send time, LostInFlight
// for delayed deliveries that died in flight.
//
// A KindBatch envelope is unpacked and injected as a delivery group
// (SendBatch), so a carrier that ends in a Network — a deployment's
// in-process uplink — accepts what a TCP server accepts. The inner payloads
// keep pointing into the envelope's buffer.
func (n *Network) Send(msg Message) error {
	if msg.Kind == KindBatch {
		inner, err := decodeBatch(nil, msg.Payload, nil, true)
		if err != nil {
			return err
		}
		return n.SendBatch(inner)
	}
	start := time.Now()
	key := linkKey{msg.From, msg.To}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrNetworkClosed
	}
	ls := n.linkStatsLocked(key)
	n.stats.Sent++
	ls.Sent++
	ep, ok := n.endpoints[msg.To]
	if !ok || !ep.up {
		n.stats.Rejected++
		ls.Rejected++
		if ok {
			ep.stats.Rejected++
		}
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrEndpointDown, msg.To)
	}
	cfg := n.linkLocked(key)
	if cfg.Partitioned {
		n.stats.Rejected++
		ls.Rejected++
		ep.stats.Rejected++
		n.mu.Unlock()
		return fmt.Errorf("%w: %s→%s", ErrPartitioned, msg.From, msg.To)
	}
	if cfg.DropProb > 0 && n.rng.Float64() < cfg.DropProb {
		n.stats.Dropped++
		ls.Dropped++
		n.mu.Unlock()
		return nil
	}
	delay := cfg.Latency
	if cfg.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(cfg.Jitter)))
	}
	if delay <= 0 {
		handler := ep.handler
		n.stats.Delivered++
		ls.Delivered++
		ep.stats.Delivered++
		ls.Latency.observe(time.Since(start))
		n.mu.Unlock()
		handler(msg)
		return nil
	}
	n.pending.Add(1)
	n.mu.Unlock()
	time.AfterFunc(delay, func() {
		defer n.pending.Done()
		// Re-check endpoint liveness at delivery time: a crash during
		// flight loses the message — counted, not silently forgotten.
		n.mu.Lock()
		ep, ok := n.endpoints[msg.To]
		ls := n.linkStatsLocked(key)
		if n.closed || !ok || !ep.up {
			n.stats.LostInFlight++
			ls.LostInFlight++
			if ok {
				ep.stats.LostInFlight++
			}
			n.mu.Unlock()
			return
		}
		handler := ep.handler
		n.stats.Delivered++
		ls.Delivered++
		ep.stats.Delivered++
		ls.Latency.observe(time.Since(start))
		n.mu.Unlock()
		handler(msg)
	})
	return nil
}

// batchGroup is one delivery group being assembled inside SendBatch: the
// surviving messages for one destination endpoint sharing one sampled delay.
type batchGroup struct {
	to    string
	delay time.Duration
	msgs  []Message
}

// batchLink is what SendBatch remembers about one directed link for the
// length of a call: the delay sampled for it, and whether it has already lost
// a member.
type batchLink struct {
	key   linkKey
	delay time.Duration
	// sampled is false until the first surviving member draws the delay.
	sampled bool
	// cut is set by the first member the link drops or rejects; every later
	// member on the link is lost with it.
	cut bool
}

// SendBatch delivers a group of messages with per-message link accounting
// but grouped delivery: surviving messages for the same destination are
// handed to the endpoint's BatchHandler in one call (falling back to the
// per-message Handler when none is registered). Every message is counted on
// its link exactly as a Send would count it, so the conservation invariant
// holds as for N Send calls; latency and jitter are sampled once per directed
// link per batch, so a group crosses a link as one unit rather than fanning
// out into per-message timers.
//
// Loss is prefix-closed per directed link within one call: once a link drops
// or rejects a member, every later member on that link is lost too (still
// counted one by one, Dropped after a drop and Rejected after a rejection). A
// group models one frame on one FIFO connection — a receiver may get a prefix
// of what a sender grouped, never a later member without the earlier ones, so
// a sender may group statements whose order matters.
//
// msgs is the caller's: a group delivered at once reaches its handler as a
// sub-slice of msgs before SendBatch returns, a delayed group is copied, and
// handlers do not keep the slice (BatchHandler). The returned error is the
// first condition known at send time (closure, down endpoint, partition), as
// Send would report it; members on other links are still sent.
func (n *Network) SendBatch(msgs []Message) error {
	if len(msgs) == 0 {
		return nil
	}
	start := time.Now()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrNetworkClosed
	}
	var firstErr error
	// While uniform, msgs[:kept] all survived into the one group (uTo, uDelay)
	// and nothing has been copied; the first survivor that breaks the pattern
	// spills that prefix into groups and the general regrouping takes over.
	uniform := true
	kept := 0
	var uTo string
	var uDelay time.Duration
	var groups []*batchGroup
	spill := func() {
		uniform = false
		if kept > 0 {
			groups = append(groups, &batchGroup{to: uTo, delay: uDelay, msgs: append([]Message(nil), msgs[:kept]...)})
		}
	}
	// Per-link memo: a slice beats a map at the 1-2 distinct links a typical
	// delivery group spans, and allocates nothing.
	var linkMemo [4]batchLink
	links := linkMemo[:0]
	// Link state is looked up once per run of messages on the same link.
	var (
		key linkKey
		bl  *batchLink
		ls  *LinkStats
		ep  *endpoint
		ok  bool
		cfg LinkConfig
	)
	for i := range msgs {
		msg := &msgs[i]
		if k := (linkKey{msg.From, msg.To}); i == 0 || k != key {
			key = k
			ls = n.linkStatsLocked(key)
			ep, ok = n.endpoints[msg.To]
			cfg = n.linkLocked(key)
			bl = nil
			for l := range links {
				if links[l].key == key {
					bl = &links[l]
					break
				}
			}
			if bl == nil {
				links = append(links, batchLink{key: key})
				bl = &links[len(links)-1]
			}
		}
		n.stats.Sent++
		ls.Sent++
		switch down := !ok || !ep.up; {
		case down || cfg.Partitioned:
			n.stats.Rejected++
			ls.Rejected++
			if ok {
				ep.stats.Rejected++
			}
			if firstErr == nil && down {
				firstErr = fmt.Errorf("%w: %q", ErrEndpointDown, msg.To)
			} else if firstErr == nil {
				firstErr = fmt.Errorf("%w: %s→%s", ErrPartitioned, msg.From, msg.To)
			}
			bl.cut = true
		case bl.cut || (cfg.DropProb > 0 && n.rng.Float64() < cfg.DropProb):
			n.stats.Dropped++
			ls.Dropped++
			bl.cut = true
		}
		if bl.cut {
			continue
		}
		if !bl.sampled {
			bl.sampled = true
			bl.delay = cfg.Latency
			if cfg.Jitter > 0 {
				bl.delay += time.Duration(n.rng.Int63n(int64(cfg.Jitter)))
			}
		}
		if uniform {
			if kept == 0 {
				uTo, uDelay = msg.To, bl.delay
			}
			// Only a survivor directly behind the kept prefix extends it in
			// place: one behind a lost member would leave a hole in msgs[:kept].
			if kept == i && msg.To == uTo && bl.delay == uDelay {
				kept++
				continue
			}
			spill()
		}
		var g *batchGroup
		for _, c := range groups {
			if c.to == msg.To && c.delay == bl.delay {
				g = c
				break
			}
		}
		if g == nil {
			g = &batchGroup{to: msg.To, delay: bl.delay}
			groups = append(groups, g)
		}
		g.msgs = append(g.msgs, *msg)
	}
	if uniform {
		// The usual group — one destination, one delay, at most a lost tail —
		// needs no regrouping: delivered now it is a sub-slice of msgs, counted
		// and handed over exactly like Send's synchronous path.
		if kept == 0 {
			n.mu.Unlock()
			return firstErr
		}
		if uDelay <= 0 {
			ep := n.endpoints[uTo]
			h, bh := ep.handler, ep.batch
			n.deliveredLocked(ep, msgs[:kept], start)
			n.mu.Unlock()
			deliverGroup(h, bh, msgs[:kept])
			return firstErr
		}
		spill()
	}
	// Immediate groups are counted Delivered and their handlers captured
	// under the lock.
	type ready struct {
		h    Handler
		bh   BatchHandler
		msgs []Message
	}
	var run []ready
	for _, g := range groups {
		if g.delay > 0 {
			n.pending.Add(1)
			continue
		}
		ep := n.endpoints[g.to]
		n.deliveredLocked(ep, g.msgs, start)
		run = append(run, ready{h: ep.handler, bh: ep.batch, msgs: g.msgs})
	}
	n.mu.Unlock()
	for _, r := range run {
		deliverGroup(r.h, r.bh, r.msgs)
	}
	for _, g := range groups {
		if g.delay <= 0 {
			continue
		}
		time.AfterFunc(g.delay, func() { n.deliverDelayedGroup(start, g) })
	}
	return firstErr
}

// deliverDelayedGroup finishes a delayed SendBatch group: liveness is
// re-checked once for the whole group at delivery time, and a crash during
// flight loses (and counts) every member together.
func (n *Network) deliverDelayedGroup(start time.Time, g *batchGroup) {
	defer n.pending.Done()
	n.mu.Lock()
	ep, ok := n.endpoints[g.to]
	if n.closed || !ok || !ep.up {
		for i := range g.msgs {
			n.stats.LostInFlight++
			n.linkStatsLocked(linkKey{g.msgs[i].From, g.msgs[i].To}).LostInFlight++
			if ok {
				ep.stats.LostInFlight++
			}
		}
		n.mu.Unlock()
		return
	}
	h, bh := ep.handler, ep.batch
	n.deliveredLocked(ep, g.msgs, start)
	n.mu.Unlock()
	deliverGroup(h, bh, g.msgs)
}

// deliveredLocked counts a delivery group Delivered at ep, one latency
// sample per message at the moment the group is handed over, recorded once
// per run of members on one link; callers hold n.mu.
func (n *Network) deliveredLocked(ep *endpoint, msgs []Message, start time.Time) {
	lat := time.Since(start)
	for i := 0; i < len(msgs); {
		key := linkKey{msgs[i].From, msgs[i].To}
		end := i + 1
		for end < len(msgs) && msgs[end].From == key.from && msgs[end].To == key.to {
			end++
		}
		ls := n.linkStatsLocked(key)
		ls.Delivered += uint64(end - i)
		ls.Latency.observeN(lat, end-i)
		i = end
	}
	n.stats.Delivered += uint64(len(msgs))
	ep.stats.Delivered += uint64(len(msgs))
}

func deliverGroup(h Handler, bh BatchHandler, msgs []Message) {
	if bh != nil {
		bh(msgs)
		return
	}
	for _, m := range msgs {
		h(m)
	}
}

// Close shuts the network down and waits for in-flight deliveries to drain.
func (n *Network) Close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	n.pending.Wait()
}
