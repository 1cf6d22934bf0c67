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
	"bytes"
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

// Message kinds used by the C-Saw runtime.
const (
	// KindProp carries an assert/retract of a proposition.
	KindProp MessageKind = iota
	// KindData carries a write of named data.
	KindData
	// KindControl carries instance lifecycle control.
	KindControl
	// KindGroup carries a delivery group: several updates from From to To
	// that share one sequence range, in a payload the C-Saw runtime encodes
	// and decodes (runtime/group.go). To the substrate it is one message.
	KindGroup
	// KindAck carries a junction's cumulative delivery acknowledgment, in a
	// payload the C-Saw runtime encodes. Flag set says a frame back to the
	// acknowledged sender's location is likely to follow soon: a
	// ReconnectClient's sender yields once before writing it, so that frame
	// can carry it in the same write.
	KindAck
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
// goroutine and must not block for long. The payload is lent for the call
// only: its sender reuses the bytes once the delivery returns, so a handler
// that keeps any of them past the call copies them.
type Handler func(Message)

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

// link is one directed pair's entry: its counters, and its own configuration
// once SetLink, Partition or Heal gave it one. Until then the pair follows the
// network's default link. An entry is made at the pair's first Send or
// configuration and is never removed.
type link struct {
	cfg   LinkConfig
	own   bool
	stats LinkStats
}

// config is the configuration the pair's next message sees.
func (l *link) config(def LinkConfig) LinkConfig {
	if l.own {
		return l.cfg
	}
	return def
}

type endpoint struct {
	name    string
	handler Handler
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
	links     map[linkKey]*link
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
		links:     map[linkKey]*link{},
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Register creates (or revives) an endpoint with the given handler.
func (n *Network) Register(name string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.endpoints[name] = &endpoint{name: name, handler: h, up: true}
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
	l := n.linkLocked(linkKey{from, to})
	l.cfg, l.own = cfg, true
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
	n.setPartitionedLocked(a, b, true)
}

// Heal removes a partition between two endpoints.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.setPartitionedLocked(a, b, false)
}

// setPartitionedLocked sets Partitioned on both directions between a and b;
// a direction without a configuration of its own gets the default's.
func (n *Network) setPartitionedLocked(a, b string, on bool) {
	for _, k := range [2]linkKey{{a, b}, {b, a}} {
		l := n.linkLocked(k)
		l.cfg, l.own = l.config(n.def), true
		l.cfg.Partitioned = on
	}
}

// linkLocked is the pair's entry, made on first use.
func (n *Network) linkLocked(k linkKey) *link {
	l, ok := n.links[k]
	if !ok {
		l = &link{}
		n.links[k] = l
	}
	return l
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
// Every message is one unit of loss, delay and accounting, whatever its
// payload holds: a KindGroup message is delivered whole or lost whole, and
// counted once.
//
// The payload is lent for the length of the call: the caller may rewrite it
// as soon as Send returns. An undelayed delivery hands the caller's bytes to
// the handler inside the call; a delayed one, which outlives the call,
// delivers a copy.
func (n *Network) Send(msg Message) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrNetworkClosed
	}
	l := n.linkLocked(linkKey{msg.From, msg.To})
	ls := &l.stats
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
	cfg := l.config(n.def)
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
		// An undelayed delivery happens inside this call: its latency is
		// zero by construction, so it is counted without reading the clock.
		ls.Latency.observe(0)
		n.mu.Unlock()
		handler(msg)
		return nil
	}
	n.pending.Add(1)
	n.mu.Unlock()
	n.deliverLater(ls, msg, delay)
	return nil
}

// deliverLater delivers msg after delay, unless its endpoint is gone by then.
// The delivery outlives Send's call, so it carries its own copy of the lent
// payload.
func (n *Network) deliverLater(ls *LinkStats, msg Message, delay time.Duration) {
	start := time.Now()
	msg.Payload = bytes.Clone(msg.Payload)
	time.AfterFunc(delay, func() {
		defer n.pending.Done()
		// Re-check endpoint liveness at delivery time: a crash during
		// flight loses the message — counted, not silently forgotten.
		n.mu.Lock()
		ep, ok := n.endpoints[msg.To]
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
}

// Close shuts the network down and waits for in-flight deliveries to drain.
func (n *Network) Close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	n.pending.Wait()
}
