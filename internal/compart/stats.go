package compart

import "time"

// The stats layer gives every level of the substrate truthful, conserved
// counters: network-wide (Stats), per directed link (LinkStats), per
// destination endpoint (EndpointStats), and per TCP server/client
// (ServerStats, ClientStats in transport.go/reconnect.go). Counters are
// updated at the moment the counted event actually happens — in particular
// a delayed delivery is only counted Delivered once the handler is about to
// run; a message that was in flight when its destination crashed or the
// network closed is counted LostInFlight. The invariant
//
//	Sent == Delivered + Dropped + Rejected + LostInFlight
//
// holds at any quiescent point (no sends racing, pending deliveries
// drained), which fault-injection experiments assert on directly.

// LatencySummary summarizes observed delivery latencies.
type LatencySummary struct {
	Count uint64
	Sum   time.Duration
	Min   time.Duration
	Max   time.Duration
}

func (l *LatencySummary) observe(d time.Duration) { l.observeN(d, 1) }

// observeN records n samples of the same latency d, as n observe calls would.
func (l *LatencySummary) observeN(d time.Duration, n int) {
	if n <= 0 {
		return
	}
	if d < 0 {
		d = 0
	}
	if l.Count == 0 || d < l.Min {
		l.Min = d
	}
	if d > l.Max {
		l.Max = d
	}
	l.Count += uint64(n)
	l.Sum += time.Duration(n) * d
}

// Mean returns the mean observed latency, or 0 when nothing was observed.
func (l LatencySummary) Mean() time.Duration {
	if l.Count == 0 {
		return 0
	}
	return l.Sum / time.Duration(l.Count)
}

// LinkStats aggregates counters for one directed link. Latency measures
// send-to-delivery time on a link with configured latency or jitter; an
// undelayed delivery, made inside Send, records a zero sample, so Count still
// counts every delivery.
type LinkStats struct {
	Sent         uint64
	Delivered    uint64
	Dropped      uint64
	Rejected     uint64
	LostInFlight uint64
	Latency      LatencySummary
}

// EndpointStats aggregates counters for one destination endpoint.
type EndpointStats struct {
	Delivered    uint64
	Rejected     uint64
	LostInFlight uint64
}

// Conserved reports whether the counters sum up: every sent message is
// accounted for exactly once as delivered, dropped, rejected or lost in
// flight. Only meaningful at a quiescent point.
func (s Stats) Conserved() bool {
	return s.Sent == s.Delivered+s.Dropped+s.Rejected+s.LostInFlight
}

// LinkStats returns a snapshot of the counters for the directed link
// from→to.
func (n *Network) LinkStats(from, to string) LinkStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ls, ok := n.linkStats[linkKey{from, to}]; ok {
		return *ls
	}
	return LinkStats{}
}

// EndpointStats returns a snapshot of the counters for a destination
// endpoint. Counters survive Crash/Revive but are reset by Register.
func (n *Network) EndpointStats(name string) EndpointStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[name]; ok {
		return ep.stats
	}
	return EndpointStats{}
}

func (n *Network) linkStatsLocked(k linkKey) *LinkStats {
	ls, ok := n.linkStats[k]
	if !ok {
		ls = &LinkStats{}
		n.linkStats[k] = ls
	}
	return ls
}
