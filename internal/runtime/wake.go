package runtime

import (
	"strings"

	"csaw/internal/dsl"
	"csaw/internal/kv"
	"csaw/internal/plan"
)

// watch is what a guard, InvokeWhenReady and a compiled wait block on: one
// wake channel armed on every table the formula reads — the junction's own,
// the current incarnation of each junction a qualified read names, and the
// liveness cells (System.live) of the instances it names — so nothing polls.
// A migration wakes it through the old table's WakeAll and a start through
// the liveness cell; woke then re-arms on each new incarnation. A junction at
// another location is watched all the same, so the migration that brings the
// two together wakes the reader. A formula that reads only its own table arms
// its one subscription and nothing else.
type watch struct {
	own   *kv.Subscription // on the own table; its channel is the watch's
	live  *kv.Subscription // nil when the formula names no instance
	peers []peerWatch
}

// peerWatch is one qualified read: of key at junction inst::jn (no key for
// @running), or, idx-qualified (P[$v]), of P[e] for v's current element e.
// sub is armed on incarnation at.
type peerWatch struct {
	inst, jn, key   string
	base, idx, elem string // elem: when sub was bound
	at              *Junction
	sub             *kv.Subscription
}

// newWatch builds the watch of a formula whose reads are rs, own those of the
// junction's own table.
func (j *Junction) newWatch(own *kv.Keys, rs *plan.ReadSet) watch {
	w := watch{own: kv.NewSubscription(own)}
	var insts []string
	for _, o := range rs.Origins {
		if o.Junction == "" {
			continue // local, or an unqualified @-predicate, which reads Unknown for good
		}
		p := peerWatch{key: o.Key}
		p.inst, p.jn, _ = strings.Cut(o.Junction, "::")
		if o.Liveness {
			p.key = "" // binds no key, but hears the table's WakeAll
		} else if base, v, idxed := dsl.SplitIdxProp(o.Key); idxed {
			p.key, p.base, p.idx = "", base, v
		}
		w.peers = append(w.peers, p)
		insts = append(insts, p.inst)
	}
	if insts != nil {
		w.live = w.own.Share(j.sys.live.Bind(insts, nil))
	}
	return w
}

func (w *watch) ch() <-chan struct{} { return w.own.Ch() }

// arm registers the watch on every table its formula reads.
func (w *watch) arm(j *Junction) {
	j.table.Arm(w.own)
	if w.live != nil {
		j.sys.live.Arm(w.live)
	}
	w.woke(j)
}

// woke re-arms, after a wake, the reads whose incarnation or idx element
// changed.
func (w *watch) woke(j *Junction) {
	for i := range w.peers {
		p := &w.peers[i]
		at, elem := j.sys.junctionQuiet(p.inst, p.jn), p.elem
		if p.idx != "" {
			elem = j.idxElem(p.idx)
		}
		if at == p.at && elem == p.elem {
			continue
		}
		if p.at != nil {
			p.at.table.Unsubscribe(p.sub)
		}
		if p.at, p.elem = at, elem; at != nil {
			key := p.key
			if elem != "" {
				key = dsl.IndexedName(p.base, elem) // plan.Family's key for the element
			}
			p.sub = w.own.Share(at.table.Bind([]string{key}, nil))
			at.table.Arm(p.sub)
		}
	}
}

// disarm unregisters the watch everywhere; arm may register it again.
func (w *watch) disarm(j *Junction) {
	j.table.Unsubscribe(w.own)
	if w.live != nil {
		j.sys.live.Unsubscribe(w.live)
	}
	for i := range w.peers {
		if p := &w.peers[i]; p.at != nil {
			p.at.table.Unsubscribe(p.sub)
			p.at = nil
		}
	}
}
