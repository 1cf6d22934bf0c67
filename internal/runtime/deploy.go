// Deployment: the placement layer between a System and the compart
// substrate. PR 9's cost optimizer prices instance→location placements; this
// file makes placement a first-class runtime object instead of bench-glue
// convention, so a placement can be inspected — and changed at runtime
// (migrate.go) — rather than fixed at construction.
//
// A Deployment names a set of locations, each backed by its own
// compart.Network, and assigns every instance to one of them. A junction's
// real endpoint is registered on its instance's location network; every
// other location gets a proxy endpoint under the same name whose handler
// resolves the instance's *current* location from the placement map and
// forwards the frame over the directed uplink — so senders always talk to
// their local network, exactly as before, and re-routing after a migration
// is a placement-map flip, not a re-wiring of every sender.
package runtime

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"csaw/internal/compart"
)

// Uplink carries substrate frames from one location of a deployment to
// another: in-process deployments forward straight into the destination
// network, TCP deployments pass a transport client's Send. A frame is one
// message: a junction's KindGroup delivery group or ack, or a migration
// control frame. Errors are advisory — a failed forward is a lost frame,
// exactly like a lossy link, and the sender's ack machinery handles it — but
// an uplink that answers compart.ErrFrameTooLarge to a group has it split and
// sent again in parts (sendSplit). The payload is lent for the call, as to
// compart.Network.Send: an uplink that keeps bytes past it (a transport
// client's outbound buffer) copies them.
type Uplink func(compart.Message) error

type location struct {
	name string
	net  *compart.Network
}

// Deployment is an instance→location placement over a set of named
// locations. Build one with NewDeployment().AddLocation(...).Place(...) and
// hand it to runtime.New via Options.Deploy; a Deployment binds to exactly
// one System. When Options.Deploy is nil the system builds one location
// around a fresh in-process network.
type Deployment struct {
	mu      sync.Mutex
	locs    []*location
	byName  map[string]*location
	uplinks map[[2]string]Uplink
	place   map[string]string
	pins    map[string]bool
	bound   *System
}

// NewDeployment returns an empty deployment.
func NewDeployment() *Deployment {
	return &Deployment{
		byName:  map[string]*location{},
		uplinks: map[[2]string]Uplink{},
		place:   map[string]string{},
		pins:    map[string]bool{},
	}
}

// AddLocation adds a named location backed by net (a fresh in-process
// network when nil). The first location added is the default: instances
// without an explicit Place live there. Duplicate names panic — a
// deployment is construction-time configuration.
func (d *Deployment) AddLocation(name string, net *compart.Network) *Deployment {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.byName[name]; dup {
		panic(fmt.Sprintf("runtime: duplicate deployment location %q", name))
	}
	if net == nil {
		net = compart.NewNetwork(int64(len(d.locs) + 1))
	}
	l := &location{name: name, net: net}
	d.locs = append(d.locs, l)
	d.byName[name] = l
	return d
}

// Connect installs the directed uplink carrying frames from one location to
// another. Pairs without an uplink forward in process directly into the
// destination location's network (a same-host bridge), so purely in-process
// multi-location deployments need no Connect calls.
func (d *Deployment) Connect(from, to string, u Uplink) *Deployment {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.uplinks[[2]string{from, to}] = u
	return d
}

// Place assigns an instance to a location. Unplaced instances live at the
// default (first) location.
func (d *Deployment) Place(inst, loc string) *Deployment {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.place[inst] = loc
	return d
}

// Pin marks an instance immovable: MigrateInstance refuses it. Mirrors the
// cost optimizer's pin set — a pinned instance is placement the operator
// fixed, not the optimizer.
func (d *Deployment) Pin(inst string) *Deployment {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pins[inst] = true
	return d
}

// Pinned reports whether the instance is pinned.
func (d *Deployment) Pinned(inst string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pins[inst]
}

// Locations returns the location names, sorted.
func (d *Deployment) Locations() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.locs))
	for _, l := range d.locs {
		out = append(out, l.name)
	}
	sort.Strings(out)
	return out
}

// Instances returns the explicitly placed instance names, sorted.
func (d *Deployment) Instances() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.place))
	for inst := range d.place {
		out = append(out, inst)
	}
	sort.Strings(out)
	return out
}

// Placement returns a copy of the current instance→location map.
func (d *Deployment) Placement() map[string]string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]string, len(d.place))
	for k, v := range d.place {
		out[k] = v
	}
	return out
}

// LocationOf returns the instance's current location name (the default
// location when the instance was never placed).
func (d *Deployment) LocationOf(inst string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.locOfLocked(inst).name
}

// Net returns the named location's substrate network, or nil when unknown.
func (d *Deployment) Net(loc string) *compart.Network {
	d.mu.Lock()
	defer d.mu.Unlock()
	if l, ok := d.byName[loc]; ok {
		return l.net
	}
	return nil
}

// --- internal ----------------------------------------------------------------

func (d *Deployment) defaultLoc() *location {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.locs[0]
}

func (d *Deployment) loc(name string) *location {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.byName[name]
}

func (d *Deployment) locOfLocked(inst string) *location {
	if name, ok := d.place[inst]; ok {
		if l, ok := d.byName[name]; ok {
			return l
		}
	}
	return d.locs[0]
}

// locOf resolves an instance's current location.
func (d *Deployment) locOf(inst string) *location {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.locOfLocked(inst)
}

// setLoc flips the placement map entry: the cutover step that re-routes
// every proxy at once, since proxies resolve the location per frame.
func (d *Deployment) setLoc(inst, loc string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.place[inst] = loc
}

// colocated reports whether two instances currently share a location. Its one
// caller, compileProp, keeps a qualified read of a junction at another
// location Unknown and its @running False, as on two machines; the reader's
// watch stays armed on that table (wake.go), so a migration that joins them
// wakes it.
func (d *Deployment) colocated(a, b string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.locOfLocked(a) == d.locOfLocked(b)
}

// single reports whether the deployment has exactly one location (the
// implicit compatibility case — no proxies, no locality restrictions).
func (d *Deployment) single() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.locs) == 1
}

// bind attaches the deployment to its system and registers the per-location
// migration control endpoints. A deployment belongs to one system.
func (d *Deployment) bind(s *System) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.bound != nil {
		return errors.New("runtime: deployment already bound to a system")
	}
	if len(d.locs) == 0 {
		return errors.New("runtime: deployment has no locations")
	}
	d.bound = s
	if len(d.locs) > 1 {
		for _, l := range d.locs {
			loc := l
			loc.net.Register(migrateEndpoint(loc.name), func(m compart.Message) {
				s.handleMigrateFrame(loc.name, m)
			})
		}
	}
	return nil
}

// uplink resolves the carrier for frames from→to, defaulting to an
// in-process forward into the destination network.
func (d *Deployment) uplink(from, to string) Uplink {
	d.mu.Lock()
	defer d.mu.Unlock()
	dst := d.byName[to]
	if dst == nil {
		return func(compart.Message) error {
			return fmt.Errorf("runtime: no deployment location %q", to)
		}
	}
	return d.uplinkLocked(from, dst)
}

// uplinkLocked is uplink for a known destination; callers hold d.mu.
func (d *Deployment) uplinkLocked(from string, dst *location) Uplink {
	if u := d.uplinks[[2]string{from, dst.name}]; u != nil {
		return u
	}
	return dst.net.Send
}

// route resolves the carrier for a frame a proxy endpoint at srcLoc received
// for junction to: the uplink toward the junction's current location. The
// placement, the location and the uplink are read under one acquisition of
// d.mu, so a frame racing a cutover pairs one placement with its own uplink.
func (d *Deployment) route(srcLoc, to string) Uplink {
	inst, _, ok := strings.Cut(to, "::")
	if !ok {
		return func(compart.Message) error {
			return fmt.Errorf("runtime: unroutable frame to %q", to)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	dest := d.locOfLocked(inst)
	if dest.name == srcLoc {
		// Placement already says "here": the live registration at this
		// location is the real junction (cutover registers the destination
		// handlers before flipping the map), so a stale proxy route just
		// delivers locally.
		return dest.net.Send
	}
	return d.uplinkLocked(srcLoc, dest)
}

// proxyHandler builds the forwarding handler a non-owner location registers
// under a junction's name: every frame crosses the uplink as it is, a group
// the uplink finds too large for one frame in parts (sendSplit). Errors are
// dropped frames (the sender's ack machinery notices), matching the
// fire-and-forget semantics of a transport bridge.
func (d *Deployment) proxyHandler(srcLoc string) compart.Handler {
	return func(m compart.Message) { _ = sendSplit(d.route(srcLoc, m.To), m) }
}

// sendSplit sends m over up. A group up refuses with compart.ErrFrameTooLarge
// is halved into consecutive sub-groups, each with its own first sequence and
// count, and they go in order over the same uplink, halved again while still
// too large; the first carrier error stops the rest, so the receiver holds a
// prefix of the group at worst. A single member over the limit fails.
func sendSplit(up Uplink, m compart.Message) error {
	err := up(m)
	if m.Kind != compart.KindGroup || !errors.Is(err, compart.ErrFrameTooLarge) {
		return err
	}
	head, tail, ok := splitGroup(m.Payload)
	if !ok {
		return err
	}
	m.Payload = head
	if err := sendSplit(up, m); err != nil {
		return err
	}
	m.Payload = tail
	return sendSplit(up, m)
}

// registerProxies registers forwarding proxies for fq on every location
// except the owner.
func (d *Deployment) registerProxies(owner, fq string) {
	d.registerProxiesExcept(owner, "", fq)
}

// registerProxiesExcept is registerProxies with one additional location left
// untouched: migration cutover skips the source, whose endpoint is a parked
// buffer until the release step installs the proxy there (overwriting the
// park early would let late frames overtake the buffered ones).
func (d *Deployment) registerProxiesExcept(owner, skip, fq string) {
	d.mu.Lock()
	locs := append([]*location(nil), d.locs...)
	d.mu.Unlock()
	for _, l := range locs {
		if l.name == owner || l.name == skip {
			continue
		}
		l.net.Register(fq, d.proxyHandler(l.name))
	}
}

// eachNet runs f over every location network.
func (d *Deployment) eachNet(f func(*compart.Network)) {
	d.mu.Lock()
	locs := append([]*location(nil), d.locs...)
	d.mu.Unlock()
	for _, l := range locs {
		f(l.net)
	}
}
