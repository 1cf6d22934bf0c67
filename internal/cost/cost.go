// Package cost is a static communication-cost model for validated C-Saw
// programs: from the plan-level read/write sets and the §8.7 topology it
// predicts, per junction, how a firing prices out on the remote-update plane
// — updates sent (each one message plus a delivery ack), wire frames after
// the compiler's grouping of par arms and straight-line runs (wire.go),
// sequential ack round trips — and propagates
// guard-triggering updates into per-drive activations, yielding a
// whole-architecture cross-junction traffic matrix that can be priced under
// an instance→location placement.
//
// The model is a steady-state upper bound: every statement is charged once
// per firing (all case/if alternatives counted), idx-variable targets spread
// their weight uniformly over the idx's element universe, and otherwise
// handlers (failure paths) are excluded. live_test.go holds the per-edge
// prediction exactly against obsv-measured remote.queued counts over real
// TCP, and the optimizer's moves against the traffic they save once applied
// live (ApplyMove).
//
// On top of the model sit the cost passes (passes.go) — poll-bound and
// cross-location guard reads, txn ping-pong, coalescing-defeating fan-out,
// unbounded idx families — and a greedy placement optimizer (placement.go).
package cost

import (
	"fmt"
	"sort"
	"strings"

	"csaw/internal/analysis"
	"csaw/internal/dsl"
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
	Ctx *analysis.Context
	// Junctions maps FQ to per-junction costs; Order lists FQs sorted.
	Junctions map[string]*Junction
	Order     []string
	// Edges is the cross-junction update matrix, sorted by (From, To).
	Edges []*Edge
}

// Junction is the per-(instance, junction) cost summary.
type Junction struct {
	Info *analysis.JunctionInfo
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
	Target *analysis.JunctionInfo
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

// Build computes the model for an analysis context. It never fails: anything
// unresolvable degrades to the conservative reading (weight dropped, read
// kept as a poll-bound classification).
func Build(ctx *analysis.Context) *Model {
	m := &Model{Ctx: ctx, Junctions: map[string]*Junction{}}
	for _, ji := range ctx.Juncs {
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

// resolveQualifier resolves a formula qualifier ("inst::jn" or a bare
// element/instance name) to a junction info; nil when it does not resolve.
func (m *Model) resolveQualifier(q string) *analysis.JunctionInfo {
	if q == "" {
		return nil
	}
	if !strings.Contains(q, "::") {
		inst, jn, err := dsl.ResolveElemJunction(m.Ctx.Prog, q)
		if err != nil {
			return nil
		}
		q = inst + "::" + jn
	}
	return m.Ctx.Lookup(q)
}

// classifyGuard computes the scheduling class and remote read list of a
// junction's guard.
func (m *Model) classifyGuard(j *Junction) {
	ji := j.Info
	if ji.Def.Guard == nil || ji.Def.Manual {
		j.Guard = GuardInvoked
		return
	}
	rs := plan.FormulaReadSet(ji, ji.Def.Guard)
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
			Target: m.resolveQualifier(o.Junction),
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
	to       *analysis.JunctionInfo
	weight   float64
	guardKey float64 // portion of weight landing in to's guard read-set
}

// walkBody charges a junction's body: per-firing updates, the update edges,
// fan-out sites, ping-pong segments, and remote body reads; frames and rounds
// come from the wire walk.
func (m *Model) walkBody(j *Junction) {
	ji := j.Info
	var ops []interface{} // update | waitMark, in program order
	type waitMark struct{}

	// emit resolves one assert/retract/write statement to weighted updates.
	emit := func(pos string, target dsl.JunctionRef, keys []string, w float64, data bool) []update {
		if target.IsLocal() || target.MeJunction {
			return nil
		}
		targets := m.Ctx.ResolveTargets(ji, target)
		if len(targets) == 0 {
			return nil
		}
		per := w
		if target.Idx != "" {
			// An idx-selected target reaches exactly one of its universe per
			// execution; spread the weight uniformly.
			per = w / float64(len(targets))
		}
		var out []update
		for _, t := range targets {
			if t.FQ == ji.FQ {
				continue // self-updates stay in the local table
			}
			u := update{pos: pos, to: t, weight: per}
			if !data {
				tj := m.Junctions[t.FQ]
				for _, k := range keys {
					if tj != nil && tj.guardProps[k] {
						u.guardKey += per
						break
					}
				}
			}
			out = append(out, u)
		}
		return out
	}

	record := func(us []update) {
		for _, u := range us {
			j.Updates += u.weight
			e := j.out[u.to.FQ]
			if e == nil {
				e = &Edge{From: ji.FQ, To: u.to.FQ}
				j.out[u.to.FQ] = e
			}
			e.Updates += u.weight
			e.guardKey += u.guardKey
			ops = append(ops, u)
		}
	}

	// walk returns the updates emitted in e's subtree.
	var walk func(e dsl.Expr, pos string, w float64) []update
	walkSeq := func(body []dsl.Expr, pos, seg string, w float64) []update {
		var all []update
		for i, child := range body {
			all = append(all, walk(child, fmt.Sprintf("%s%s[%d]", pos, seg, i), w)...)
		}
		return all
	}
	walk = func(e dsl.Expr, pos string, w float64) []update {
		switch n := e.(type) {
		case nil:
			return nil
		case dsl.Seq:
			return walkSeq(n, pos, "", w)
		case dsl.Scope:
			return walkSeq(n.Body, pos, "/scope", w)
		case dsl.Txn:
			return walkSeq(n.Body, pos, "/txn", w)
		case dsl.Par:
			var all []update
			armPeers := make([]map[string]bool, len(n))
			for i, child := range n {
				us := walk(child, fmt.Sprintf("%s/par[%d]", pos, i), w)
				all = append(all, us...)
				armPeers[i] = map[string]bool{}
				for _, u := range us {
					armPeers[i][u.to.FQ] = true
				}
			}
			m.fanout(j, pos, armPeers)
			return all
		case dsl.ParN:
			us := walkSeq(n.Body, pos, "/parn", w*float64(n.N))
			if n.N > 1 && len(us) > 0 {
				// n identical replicas reach the same peers.
				peers := map[string]bool{}
				for _, u := range us {
					peers[u.to.FQ] = true
				}
				arms := make([]map[string]bool, n.N)
				for i := range arms {
					arms[i] = peers
				}
				m.fanout(j, pos, arms)
			}
			return us
		case dsl.Otherwise:
			// Failure handlers are off the steady-state path.
			return walk(n.Try, pos+"/try", w)
		case dsl.If:
			m.bodyReads(j, pos, n.Cond)
			return append(walk(n.Then, pos+"/then", w), walk(n.Else, pos+"/else", w)...)
		case dsl.Case:
			var all []update
			for i, a := range n.Arms {
				m.bodyReads(j, fmt.Sprintf("%s/arm[%d]", pos, i), a.Cond)
				all = append(all, walkSeq(a.Body, pos, fmt.Sprintf("/arm[%d]", i), w)...)
			}
			return append(all, walkSeq(n.Otherwise, pos, "/otherwise", w)...)
		case dsl.Assert:
			keys, _ := ji.PropKeys(n.Prop)
			us := emit(pos, n.Target, keys, w, false)
			record(us)
			return us
		case dsl.Retract:
			keys, _ := ji.PropKeys(n.Prop)
			us := emit(pos, n.Target, keys, w, false)
			record(us)
			return us
		case dsl.Write:
			us := emit(pos, n.To, nil, w, true)
			record(us)
			return us
		case dsl.Wait:
			m.bodyReads(j, pos, n.Cond)
			ops = append(ops, waitMark{})
			return nil
		case dsl.Verify:
			m.bodyReads(j, pos, n.Cond)
			return nil
		default:
			return nil
		}
	}

	walkSeq(ji.Def.Body, ji.FQ+"/body", "", 1)
	j.Frames, j.Rounds = wire{m, ji}.seq(ji.Def.Body, 1)

	// Ping-pong: split the in-order op stream on waits; a peer updated in
	// ≥2 segments pays ≥2 wait-separated cross-instance exchanges per firing.
	segs := [][]update{nil}
	for _, op := range ops {
		switch u := op.(type) {
		case update:
			segs[len(segs)-1] = append(segs[len(segs)-1], u)
		default:
			segs = append(segs, nil)
		}
	}
	perPeer := map[string]int{}
	perPeerPos := map[string]string{}
	for _, seg := range segs {
		seen := map[string]bool{}
		for _, u := range seg {
			if u.to.Inst == ji.Inst || seen[u.to.FQ] {
				continue
			}
			seen[u.to.FQ] = true
			perPeer[u.to.FQ]++
			if _, ok := perPeerPos[u.to.FQ]; !ok {
				perPeerPos[u.to.FQ] = u.pos
			}
		}
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

// fanout records a par statement whose arms update several distinct peers:
// a group send packs one destination's updates, never across destinations.
func (m *Model) fanout(j *Junction, pos string, armPeers []map[string]bool) {
	distinctSet := map[string]bool{}
	armsSending := 0
	for _, peers := range armPeers {
		if len(peers) > 0 {
			armsSending++
		}
		for fq := range peers {
			distinctSet[fq] = true
		}
	}
	if armsSending >= 2 && len(distinctSet) >= 2 {
		distinct := make([]string, 0, len(distinctSet))
		for fq := range distinctSet {
			distinct = append(distinct, fq)
		}
		sort.Strings(distinct)
		j.Fanouts = append(j.Fanouts, Fanout{Pos: pos, Arms: armsSending, Peers: distinct})
	}
}

// bodyReads collects remote-qualified reads of a body formula (wait/verify/
// if/case conditions): in-process they are fine, across a bridge they
// evaluate Unknown.
func (m *Model) bodyReads(j *Junction, pos string, f formula.Formula) {
	if f == nil {
		return
	}
	rs := plan.FormulaReadSet(j.Info, f)
	for _, o := range rs.Origins {
		if !o.Remote || o.Junction == "" {
			continue
		}
		j.BodyReads = append(j.BodyReads, GuardRead{
			Pos:    pos,
			Origin: o,
			Target: m.resolveQualifier(o.Junction),
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
