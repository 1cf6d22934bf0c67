// The cost pass suite: anti-pattern diagnostics over the traffic model,
// registered through the same analysis framework (and suppression plumbing)
// as the vet passes. All three passes are placement-aware: the same program
// grades differently under different instance→location assignments, which is
// the point — the findings say what a deployment will pay, not what the
// code says.
package cost

import (
	"fmt"
	"strings"

	"csaw/internal/analysis"
	"csaw/internal/plan"
)

// Passes returns the cost suite in canonical order.
func Passes() []*analysis.Pass {
	return []*analysis.Pass{Poll, Fanouts, PingPongs}
}

// Poll flags guards (and body formulas) whose remote-qualified reads defeat
// event scheduling: keyed subscriptions cannot wake on another junction's
// table or on liveness, so the scheduler keeps a poll fallback — and across
// a transport bridge such reads never evaluate definitely true at all.
var Poll = &analysis.Pass{
	Name: "costpoll",
	Doc:  "guards poll-bound by remote-qualified reads; cross-location reads that can never wake",
	Run: func(ctx *analysis.Context) []analysis.Diagnostic {
		m := Build(ctx.Program)
		var ds []analysis.Diagnostic
		for _, fq := range m.Order {
			j := m.Junctions[fq]
			for _, gr := range j.GuardReads {
				ds = append(ds, pollDiag(ctx, j, gr, true)...)
			}
			for _, gr := range j.BodyReads {
				ds = append(ds, pollDiag(ctx, j, gr, false)...)
			}
		}
		return ds
	},
}

// pollDiag grades one remote-qualified read. guard selects the harsher
// wording: a poll-bound guard costs scheduler wakeups forever, a body
// formula only stalls its own firing.
func pollDiag(ctx *analysis.Context, j *Junction, gr GuardRead, guard bool) []analysis.Diagnostic {
	o := gr.Origin
	if o.Junction == "" && !o.Liveness {
		return nil
	}
	here := ctx.Location(j.Info.Inst)
	cross := false
	peer := o.Junction
	if gr.Target != nil {
		cross = ctx.Location(gr.Target.Inst) != here
		peer = gr.Target.FQ
	}
	what := fmt.Sprintf("proposition %q of %s", o.Key, peer)
	if o.Liveness {
		what = fmt.Sprintf("liveness predicate %q of %s", o.Key, peer)
	}
	switch {
	case cross && guard:
		return []analysis.Diagnostic{{
			Severity: analysis.SevError,
			Pos:      gr.Pos,
			Msg: what + " is read across locations: over a transport bridge the read evaluates " +
				unknownWord(o) + ", so the guard can never become definitely true — co-locate the instances or pass the fact by update",
		}}
	case cross:
		return []analysis.Diagnostic{{
			Severity: analysis.SevError,
			Pos:      gr.Pos,
			Msg: what + " is read across locations: over a transport bridge the read evaluates " +
				unknownWord(o) + ", so this condition can never become definitely true — co-locate the instances or pass the fact by update",
		}}
	case guard && o.Liveness:
		return []analysis.Diagnostic{{
			Severity: analysis.SevWarning,
			Pos:      gr.Pos,
			Msg:      "guard reads " + what + ": liveness changes emit no KV updates, so the junction is poll-bound — pace the poll with a backoff if this is a watchdog",
		}}
	case guard && gr.Target != nil && gr.Target.Inst != j.Info.Inst:
		return []analysis.Diagnostic{{
			Severity: analysis.SevWarning,
			Pos:      gr.Pos,
			Msg:      "guard reads " + what + ": keyed subscriptions cannot wake on another instance's table, so the junction is poll-bound — prefer having the peer assert into this junction",
		}}
	case guard:
		return []analysis.Diagnostic{{
			Severity: analysis.SevWarning,
			Pos:      gr.Pos,
			Msg:      "guard reads " + what + ": junction-qualified reads bypass keyed subscriptions, so the junction is poll-bound",
		}}
	default:
		return []analysis.Diagnostic{{
			Severity: analysis.SevInfo,
			Pos:      gr.Pos,
			Msg:      "condition reads " + what + ": re-evaluated by polling, not woken by updates",
		}}
	}
}

// unknownWord names the three-valued outcome a bridged read collapses to:
// liveness of a non-local instance reads False, table reads read Unknown.
func unknownWord(o plan.ReadOrigin) string {
	if o.Liveness {
		return "False"
	}
	return "Unknown"
}

// Fanouts flags par statements whose arms update several distinct peers.
// The runtime sends a par's arms as one delivery group per destination, so
// fanning the arms out across peers pays one frame per peer per wave where
// a single peer table would pay one frame total.
var Fanouts = &analysis.Pass{
	Name: "costfanout",
	Doc:  "par-arm fan-out across distinct peers defeating batch coalescing",
	Run: func(ctx *analysis.Context) []analysis.Diagnostic {
		m := Build(ctx.Program)
		var ds []analysis.Diagnostic
		for _, fq := range m.Order {
			for _, f := range m.Junctions[fq].Fanouts {
				ds = append(ds, analysis.Diagnostic{
					Severity: analysis.SevInfo,
					Pos:      f.Pos,
					Msg: fmt.Sprintf("par arms update %d distinct peers (%s): batch coalescing packs frames per destination only — a shared peer table would coalesce the wave into one frame",
						len(f.Peers), strings.Join(f.Peers, ", ")),
				})
			}
		}
		return ds
	},
}

// PingPongs flags bodies holding multiple wait-separated exchanges with the
// same peer instance: each round pays a full ack round trip, and across
// locations the latency serializes into the firing.
var PingPongs = &analysis.Pass{
	Name: "costpingpong",
	Doc:  "multi-round cross-instance exchanges inside one firing",
	Run: func(ctx *analysis.Context) []analysis.Diagnostic {
		m := Build(ctx.Program)
		var ds []analysis.Diagnostic
		for _, fq := range m.Order {
			j := m.Junctions[fq]
			here := ctx.Location(j.Info.Inst)
			for _, pp := range j.PingPongs {
				sev := analysis.SevInfo
				note := "each round pays an ack round trip"
				if peer := m.Junctions[pp.Peer]; peer != nil && ctx.Location(peer.Info.Inst) != here {
					sev = analysis.SevWarning
					note = "the peer is at another location, so every round pays wire latency"
				}
				ds = append(ds, analysis.Diagnostic{
					Severity: sev,
					Pos:      pp.Pos,
					Msg: fmt.Sprintf("firing exchanges %d wait-separated rounds with %s: %s — consider folding the rounds into one update or moving the protocol into the peer",
						pp.Rounds, pp.Peer, note),
				})
			}
		}
		return ds
	},
}
