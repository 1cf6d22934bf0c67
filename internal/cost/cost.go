// Package cost is a static communication-cost model for validated C-Saw
// programs: from the plan-level read/write sets and the §8.7 topology it
// predicts, per junction, how a firing prices out on the remote-update plane
// — updates sent (each one message plus a delivery ack), wire frames after
// the grouping of par arms and straight-line runs that plan.Compile decides and
// the runtime compiles, sequential ack round trips — and propagates
// guard-triggering updates into per-drive activations, yielding a
// whole-architecture cross-junction traffic matrix that can be priced under
// an instance→location placement.
//
// The model walks each junction's lowered body once and is a steady-state
// upper bound: every statement is charged once per firing (all case/if
// alternatives counted), idx-variable targets spread their weight uniformly
// over the idx's element universe, and otherwise handlers (failure paths)
// are excluded. live_test.go holds the per-edge
// prediction exactly against obsv-measured remote.queued counts over real
// TCP, and the optimizer's moves against the traffic they save once applied
// live (ApplyMove).
//
// On top of the model sit the cost passes (passes.go) — poll-bound and
// cross-location guard reads, txn ping-pong, coalescing-defeating fan-out,
// unbounded idx families — and a greedy placement optimizer (placement.go).
package cost

import (
	"sort"

	"csaw/internal/analysis"
	"csaw/internal/formula"
	"csaw/internal/plan"
)

// Guard scheduling classes, mirroring csawc's summary terminology.
const (
	GuardInvoked       = "invoked"
	GuardEvent         = "event"
	GuardPoll          = "poll"
	GuardPollUnbounded = "poll-unbounded"
)

// activationCap bounds activation propagation so guard-trigger cycles cannot
// diverge; a junction predicted to fire more than this per drive unit is
// effectively saturated.
const activationCap = 64

// activationSweeps is the fixed number of Jacobi sweeps used to propagate
// activations; paths longer than this through guarded junctions saturate the
// model's precision, not its safety.
const activationSweeps = 16

// Model is the static traffic model of one architecture.
type Model struct {
	Prog *plan.Program
	// Junctions maps FQ to per-junction costs; Order lists FQs sorted.
	Junctions map[string]*Junction
	Order     []string
	// Edges is the cross-junction update matrix, sorted by (From, To).
	Edges []*Edge
}

// Junction is the per-(instance, junction) cost summary.
type Junction struct {
	Info *plan.Junction
	// Guard classifies scheduling (GuardInvoked/Event/Poll/PollUnbounded).
	Guard string
	// GuardReads lists the guard's remote-qualified reads with their
	// resolved declaring junction (nil Target when unresolvable).
	GuardReads []GuardRead
	// guardProps is the set of local keys the guard consults — an incoming
	// assert/retract of one of these can trigger a scheduling.
	guardProps map[string]bool
	// Activation is the predicted firings per drive unit (one invocation
	// round of the root junctions).
	Activation float64
	// Updates / Frames / Rounds are per firing: remote updates sent, wire
	// frames after group sends, and the sequential acked-round-trip depth
	// (one round per group awaited in sequence).
	Updates float64
	Frames  float64
	Rounds  int
	// PingPongs and Fanouts are the anti-pattern sites the passes report.
	PingPongs []PingPong
	Fanouts   []Fanout
	// BodyReads are remote-qualified formula reads in the body (wait/verify/
	// if/case conditions), which evaluate Unknown across a bridge.
	BodyReads []GuardRead

	out map[string]*Edge
}

// GuardRead is one remote-qualified read of a guard or body formula.
type GuardRead struct {
	Pos    string
	Origin plan.ReadOrigin
	// Target is the resolved declaring junction; nil when the qualifier does
	// not resolve statically.
	Target *plan.Junction
}

// Edge is one directed cross-junction update flow.
type Edge struct {
	From, To string
	// Updates is remote updates per firing of From; PerDrive scales by
	// From's activation.
	Updates  float64
	PerDrive float64
	// guardKey is the per-firing weight of updates landing in To's guard
	// read-set — the activation the edge propagates.
	guardKey float64
	// GuardRead marks a zero-traffic colocation edge: From's *guard* reads
	// To's table or liveness in-process, which a transport bridge breaks.
	GuardRead bool
}

// PingPong is one body whose firing holds ≥2 wait-separated exchanges with
// the same peer instance.
type PingPong struct {
	Pos    string
	Peer   string // peer junction FQ
	Rounds int
}

// Fanout is one par statement whose arms update several distinct peers —
// per-destination batch coalescing cannot pack frames across destinations.
type Fanout struct {
	Pos   string
	Arms  int
	Peers []string // distinct peer junction FQs, sorted
}

// Build computes the model for a compiled program. It never fails: anything
// unresolvable degrades to the conservative reading (weight dropped, read
// kept as a poll-bound classification).
func Build(pp *plan.Program) *Model {
	m := &Model{Prog: pp, Junctions: map[string]*Junction{}}
	for _, ji := range pp.Juncs {
		j := &Junction{Info: ji, guardProps: map[string]bool{}, out: map[string]*Edge{}}
		m.Junctions[ji.FQ] = j
		m.Order = append(m.Order, ji.FQ)
		m.classifyGuard(j)
	}
	sort.Strings(m.Order)
	for _, fq := range m.Order {
		m.walkBody(m.Junctions[fq])
	}
	m.linkGuardEdges()
	m.propagateActivation()
	for _, fq := range m.Order {
		j := m.Junctions[fq]
		for _, e := range j.out {
			e.PerDrive = e.Updates * j.Activation
			m.Edges = append(m.Edges, e)
		}
	}
	sort.Slice(m.Edges, func(i, k int) bool {
		if m.Edges[i].From != m.Edges[k].From {
			return m.Edges[i].From < m.Edges[k].From
		}
		return m.Edges[i].To < m.Edges[k].To
	})
	return m
}

// classifyGuard computes the scheduling class and remote read list of a
// junction's guard.
func (m *Model) classifyGuard(j *Junction) {
	ji := j.Info
	if ji.Def.Guard == nil || ji.Def.Manual {
		j.Guard = GuardInvoked
		return
	}
	rs := ji.Guard
	for _, k := range rs.Props {
		j.guardProps[k] = true
	}
	pos := ji.FQ + "/guard"
	for _, o := range rs.Origins {
		if !o.Remote {
			continue
		}
		j.GuardReads = append(j.GuardReads, GuardRead{
			Pos:    pos,
			Origin: o,
			Target: m.Prog.Lookup(o.Junction),
		})
	}
	switch {
	case rs.Unbounded:
		j.Guard = GuardPollUnbounded
	case rs.Remote:
		j.Guard = GuardPoll
	default:
		j.Guard = GuardEvent
	}
}

// update is one remote update statement, resolved and weighted.
type update struct {
	pos      string
	to       *plan.Junction
	weight   float64
	guardKey float64 // portion of weight landing in to's guard read-set
}

// price is what one op puts on the wire per firing.
type price struct {
	frames float64
	rounds int
}

// charger walks one junction's lowered body once. It charges the
// per-firing updates, the update edges, fan-out sites and remote body reads,
// and prices the firing on the wire the way the runtime compiles the ops: a
// frame is one group send, a group is either the remote update arms of a par
// that share a destination or consecutive same-destination members of a
// straight-line run, and each group is awaited before the next statement
// starts. The model reads a body as a steady-state upper bound: every
// if/case alternative is charged, an idx target spreads its weight over its
// universe, a ∥n body counts n times, and otherwise handlers are off the
// steady-state path.
type charger struct {
	m      *Model
	j      *Junction
	ups    []update // every update charged, in program order
	waits  []int    // len(ups) at each wait: where ping-pong segments split
	priced map[*plan.Op]price
}

// walkBody charges a junction's body and records its ping-pong segments.
func (m *Model) walkBody(j *Junction) {
	c := &charger{m: m, j: j, priced: map[*plan.Op]price{}}
	j.Frames, j.Rounds = c.block(j.Info.Body, 1)

	// Ping-pong: split the in-order updates on waits; a peer updated in ≥2
	// segments pays ≥2 wait-separated cross-instance exchanges per firing.
	perPeer := map[string]int{}
	perPeerPos := map[string]string{}
	start := 0
	for _, end := range append(c.waits, len(c.ups)) {
		seen := map[string]bool{}
		for _, u := range c.ups[start:end] {
			if u.to.Inst == j.Info.Inst || seen[u.to.FQ] {
				continue
			}
			seen[u.to.FQ] = true
			perPeer[u.to.FQ]++
			if _, ok := perPeerPos[u.to.FQ]; !ok {
				perPeerPos[u.to.FQ] = u.pos
			}
		}
		start = end
	}
	var peers []string
	for fq, n := range perPeer {
		if n >= 2 {
			peers = append(peers, fq)
		}
	}
	sort.Strings(peers)
	for _, fq := range peers {
		j.PingPongs = append(j.PingPongs, PingPong{Pos: perPeerPos[fq], Peer: fq, Rounds: perPeer[fq]})
	}
}

// block charges a statement list at weight w: frames add up, and so do
// rounds — each group is awaited before the next step starts.
func (c *charger) block(b *plan.Block, w float64) (frames float64, rounds int) {
	for _, s := range b.Steps {
		if !s[0].Remote {
			p := c.op(s[0], w)
			frames += p.frames
			rounds += p.rounds
			continue
		}
		open := "" // destination of the group being filled
		for _, u := range s {
			c.update(u, w)
			fw := c.wireWeight(u)
			if fw == 0 {
				continue // resolves to nothing, or only to this junction
			}
			if d := c.dest(u); d != open {
				open = d
				frames += fw
				rounds++
			}
		}
	}
	return frames, rounds
}

// op charges one statement at weight w and prices it.
func (c *charger) op(o *plan.Op, w float64) (p price) {
	o.Conds(c.bodyReads)
	switch o.Kind {
	case plan.OpProp, plan.OpWrite:
		c.update(o, w)
		if o.Remote {
			if fw := c.wireWeight(o); fw > 0 {
				p = price{fw, 1} // a lone remote update is the group of one
			}
		}
	case plan.OpWait:
		c.waits = append(c.waits, len(c.ups))
	case plan.OpIf:
		p = c.op(o.Then, w)
		if o.Else != nil {
			e := c.op(o.Else, w)
			p = price{p.frames + e.frames, max(p.rounds, e.rounds)}
		}
	case plan.OpCase:
		for _, a := range o.Case.Arms {
			f, r := c.block(a.Body, w)
			p = price{p.frames + f, max(p.rounds, r)}
		}
		f, r := c.block(o.Case.Otherwise, w)
		p = price{p.frames + f, max(p.rounds, r)}
	case plan.OpPar:
		p = c.par(o, w)
	case plan.OpSeq, plan.OpScope, plan.OpTxn:
		p.frames, p.rounds = c.block(o.Body, w)
	case plan.OpOtherwise:
		p = c.op(o.Try, w) // failure handlers are off the steady-state path
	}
	c.priced[o] = p
	return p
}

// par charges a par and prices the barrier the runtime joins over its
// spliced arms: the remote update arms leave as one group per destination,
// every other arm is priced on its own, and the arms overlap, so the deepest
// one sets the rounds.
func (c *charger) par(o *plan.Op, w float64) price {
	arms, aw := o.Arms, w
	if o.N > 0 {
		// The replicas of a ∥n body are the same statements: charge them
		// once, n times over.
		arms, aw = o.Arms[:len(o.Arms)/o.N], w*float64(o.N)
	}
	peers := map[string]bool{} // the peers the arms update
	sending := 0               // the arms that update any
	for _, a := range arms {
		mark := len(c.ups)
		c.op(a, aw)
		for _, u := range c.ups[mark:] {
			peers[u.to.FQ] = true
		}
		if len(c.ups) > mark {
			sending++
		}
	}
	if o.N > 0 {
		// n identical replicas reach the same peers.
		sending = 0
		if o.N > 1 && len(peers) > 0 {
			sending = o.N
		}
	}
	c.fanout(o.Pos, sending, peers)

	var p price
	seen := map[string]bool{}
	for _, a := range o.Flat {
		if !a.Remote {
			q := c.priced[a]
			p = price{p.frames + q.frames, max(p.rounds, q.rounds)}
			continue
		}
		fw := c.wireWeight(a)
		if d := c.dest(a); fw > 0 && !seen[d] {
			seen[d] = true
			p = price{p.frames + fw, max(p.rounds, 1)}
		}
	}
	return p
}

// update turns one assert/retract/write op's lowered destination into
// weighted updates and records them: the junction's updates, its edges and
// the in-order op stream.
func (c *charger) update(o *plan.Op, w float64) {
	ji := c.j.Info
	targets := c.m.Prog.Targets(o)
	if len(targets) == 0 {
		return
	}
	per := w
	if o.To.Idx != "" {
		// An idx-selected target reaches exactly one of its universe per
		// execution; spread the weight uniformly.
		per = w / float64(len(targets))
	}
	for _, t := range targets {
		if t == ji {
			continue // self-updates stay in the local table
		}
		u := update{pos: o.Pos, to: t, weight: per}
		if tj := c.m.Junctions[t.FQ]; tj != nil {
			for _, k := range o.Ref.Keys {
				if tj.guardProps[k] {
					u.guardKey += per
					break
				}
			}
		}
		c.j.Updates += u.weight
		e := c.j.out[t.FQ]
		if e == nil {
			e = &Edge{From: ji.FQ, To: t.FQ}
			c.j.out[t.FQ] = e
		}
		e.Updates += u.weight
		e.guardKey += u.guardKey
		c.ups = append(c.ups, u)
	}
}

// wireWeight is how much of one execution an update op puts on the wire: an
// idx target reaches one element of its universe per execution, and a
// destination that is this junction itself sends nothing.
func (c *charger) wireWeight(o *plan.Op) float64 {
	targets := c.m.Prog.Targets(o)
	sent := 0
	for _, t := range targets {
		if t != c.j.Info {
			sent++
		}
	}
	if sent == 0 {
		return 0
	}
	if o.To.Idx != "" {
		return float64(sent) / float64(len(targets))
	}
	return 1
}

// dest names a destination for grouping: the runtime groups by resolved
// endpoint, so two statements through the same idx variable always share one,
// two static references share one when they resolve alike, and an idx
// reference is never assumed to coincide with anything else.
func (c *charger) dest(o *plan.Op) string {
	if o.To.Idx != "" {
		return "idx " + o.To.Idx
	}
	if ts := c.m.Prog.Targets(o); len(ts) == 1 {
		return ts[0].FQ
	}
	return o.To.String()
}

// fanout records a par statement whose sending arms update several distinct
// peers: a group send packs one destination's updates, never across
// destinations.
func (c *charger) fanout(pos string, sending int, peers map[string]bool) {
	if sending < 2 || len(peers) < 2 {
		return
	}
	distinct := make([]string, 0, len(peers))
	for fq := range peers {
		distinct = append(distinct, fq)
	}
	sort.Strings(distinct)
	c.j.Fanouts = append(c.j.Fanouts, Fanout{Pos: pos, Arms: sending, Peers: distinct})
}

// bodyReads collects remote-qualified reads of a body formula (wait/verify/
// if/case conditions): in-process they are fine, across a bridge they
// evaluate Unknown.
func (c *charger) bodyReads(pos string, f formula.Formula) {
	rs := plan.FormulaReadSet(c.j.Info, f)
	for _, o := range rs.Origins {
		if !o.Remote || o.Junction == "" {
			continue
		}
		c.j.BodyReads = append(c.j.BodyReads, GuardRead{
			Pos:    pos,
			Origin: o,
			Target: c.m.Prog.Lookup(o.Junction),
		})
	}
}

// linkGuardEdges adds the zero-traffic colocation edges for guards that read
// another instance's table or liveness in-process.
func (m *Model) linkGuardEdges() {
	for _, fq := range m.Order {
		j := m.Junctions[fq]
		for _, gr := range j.GuardReads {
			if gr.Target == nil || gr.Target.Inst == j.Info.Inst {
				continue
			}
			e := j.out[gr.Target.FQ]
			if e == nil {
				e = &Edge{From: fq, To: gr.Target.FQ}
				j.out[gr.Target.FQ] = e
			}
			e.GuardRead = true
		}
	}
}

// propagateActivation seeds invoked roots at one firing per drive unit and
// propagates guard-triggering update weights through the edge matrix with a
// fixed number of Jacobi sweeps (deterministic, cycle-safe via the cap).
func (m *Model) propagateActivation() {
	act := map[string]float64{}
	for _, fq := range m.Order {
		j := m.Junctions[fq]
		if j.Guard == GuardInvoked {
			act[fq] = 1
			continue
		}
		if len(j.guardProps) == 0 && len(j.GuardReads) == 0 {
			// A guard over no state (e.g. true) is self-driving.
			act[fq] = 1
		}
	}
	roots := map[string]float64{}
	for fq, a := range act {
		roots[fq] = a
	}
	for sweep := 0; sweep < activationSweeps; sweep++ {
		next := map[string]float64{}
		for fq, a := range roots {
			next[fq] = a
		}
		for _, fq := range m.Order {
			j := m.Junctions[fq]
			for to, e := range j.out {
				if e.guardKey <= 0 {
					continue
				}
				trig := e.guardKey
				if trig > 1 {
					trig = 1 // one firing consumes at most one trigger
				}
				next[to] += act[fq] * trig
			}
		}
		for fq, a := range next {
			if a > activationCap {
				next[fq] = activationCap
			}
		}
		act = next
	}
	for fq, a := range act {
		m.Junctions[fq].Activation = a
	}
}

// Report serializes the model priced under a placement (nil = co-located).
// An edge crosses when its two instances map to different locations; guard
// reads do not move bytes but are flagged per-edge for the colocation
// constraint they impose.
func (m *Model) Report(placement map[string]string) *analysis.CostReport {
	rep := &analysis.CostReport{Placement: placement}
	for _, fq := range m.Order {
		j := m.Junctions[fq]
		rep.Junctions = append(rep.Junctions, analysis.JunctionCost{
			FQ:               fq,
			Guard:            j.Guard,
			Activation:       round3(j.Activation),
			UpdatesPerFiring: round3(j.Updates),
			FramesPerFiring:  round3(j.Frames),
			RoundsPerFiring:  j.Rounds,
		})
	}
	for _, e := range m.Edges {
		cross := m.crossEdge(e, placement)
		if cross {
			rep.CrossUpdatesPerDrive += e.PerDrive
		}
		rep.Edges = append(rep.Edges, analysis.EdgeCost{
			From:             e.From,
			To:               e.To,
			UpdatesPerFiring: round3(e.Updates),
			UpdatesPerDrive:  round3(e.PerDrive),
			GuardRead:        e.GuardRead,
			Cross:            cross,
		})
	}
	rep.CrossUpdatesPerDrive = round3(rep.CrossUpdatesPerDrive)
	return rep
}

// crossEdge reports whether an edge's endpoints live at different locations
// under the placement.
func (m *Model) crossEdge(e *Edge, placement map[string]string) bool {
	from, to := m.Junctions[e.From], m.Junctions[e.To]
	if from == nil || to == nil {
		return false
	}
	return placement[from.Info.Inst] != placement[to.Info.Inst]
}

// round3 trims float noise so reports compare and serialize stably.
func round3(v float64) float64 {
	r := float64(int64(v*1000+0.5)) / 1000
	if v < 0 {
		r = float64(int64(v*1000-0.5)) / 1000
	}
	return r
}
