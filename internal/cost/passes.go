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
)

// Passes returns the cost suite in canonical order.
func Passes() []*analysis.Pass {
	return []*analysis.Pass{CrossReads, Fanouts, PingPongs}
}

// CrossReads flags guards and body conditions that read another junction's
// table or liveness across locations: over a transport bridge such a read
// never evaluates definitely true. At one location the runtime watches the
// table it reads, so the read costs nothing here. The pass keeps the name
// costpoll, which suppressions and goldens refer to.
var CrossReads = &analysis.Pass{
	Name: "costpoll",
	Doc:  "cross-location reads that can never wake",
	Run: func(ctx *analysis.Context) []analysis.Diagnostic {
		m := Build(ctx.Program)
		var ds []analysis.Diagnostic
		for _, fq := range m.Order {
			j := m.Junctions[fq]
			what := "the guard"
			for _, reads := range [][]GuardRead{j.GuardReads, j.BodyReads} {
				for _, gr := range reads {
					if gr.Target == nil || ctx.Location(gr.Target.Inst) == ctx.Location(j.Info.Inst) {
						continue
					}
					// Over a bridge a proposition reads Unknown and liveness False.
					read, value := fmt.Sprintf("proposition %q of %s", gr.Origin.Key, gr.Target.FQ), "Unknown"
					if gr.Origin.Liveness {
						read, value = fmt.Sprintf("liveness predicate %q of %s", gr.Origin.Key, gr.Target.FQ), "False"
					}
					ds = append(ds, analysis.Diagnostic{
						Severity: analysis.SevError,
						Pos:      gr.Pos,
						Msg: read + " is read across locations: over a transport bridge the read evaluates " + value +
							", so " + what + " can never become definitely true — co-locate the instances or pass the fact by update",
					})
				}
				what = "this condition"
			}
		}
		return ds
	},
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
