package patterns

import (
	"bytes"
	"time"

	"csaw/internal/analysis"
	"csaw/internal/dsl"
)

// CatalogueEntry is one §5/§7 architecture in the built-in catalogue,
// constructed with inert host hooks so tools can analyze structure without
// behaviour. Suppressions mute analyzer findings that are deliberate
// properties of the pattern, each with its recorded reason.
type CatalogueEntry struct {
	Name         string
	Doc          string
	Build        func() *dsl.Program
	Suppressions []analysis.Suppression
	// CheckVerdict is the expected bounded-model-checker verdict for the
	// entry ("clean", "clean-bounded", "deadlock", "invariant", "liveness");
	// csawc -check-all fails when the computed verdict drifts from it.
	CheckVerdict string
	// CheckNote records why a non-"clean" verdict is expected.
	CheckNote string
	// CostPlacement is the reference deployment the cost suite prices the
	// entry under: instance→location, mirroring how the pattern is meant to
	// be split across machines. CostPins marks the instances that placement
	// fixes (the optimizer may relocate the rest).
	CostPlacement map[string]string
	CostPins      map[string]bool
	// CostSuppressions mute cost-pass findings that are deliberate
	// properties of the pattern. They are separate from Suppressions
	// because the two suites run under different pass sets and a
	// suppression naming a pass outside its run is itself flagged.
	CostSuppressions []analysis.Suppression
	// CostVerdict is the expected cost-suite verdict ("clean", "findings",
	// "error"); csawc -cost-all fails when the computed verdict drifts.
	CostVerdict string
	// CostNote records why a non-"clean" cost verdict is expected.
	CostNote string
}

// Catalogue returns the built-in architecture catalogue in stable order.
// cmd/csawc serves it, and the analyzer's self-application tests vet every
// entry.
func Catalogue() []CatalogueEntry {
	nopSrc := func(dsl.HostCtx) ([]byte, error) { return []byte{}, nil }
	nopSink := func(dsl.HostCtx, []byte) error { return nil }
	nopHandle := func(_ dsl.HostCtx, b []byte) ([]byte, error) { return bytes.Clone(b), nil }
	t := time.Second

	return []CatalogueEntry{
		{
			Name: "snapshot",
			Doc:  "state snapshot from an acting to an auditing component (§5, Fig. 3)",
			Build: func() *dsl.Program {
				return Snapshot(SnapshotConfig{Timeout: t, Capture: nopSrc, Apply: nopSink})
			},
			CheckVerdict: "clean",
			// The snapshot exists to cross a machine boundary: Act is the
			// application host, Aud the audit host, both fixed.
			CostPlacement: map[string]string{ActInstance: "app", AudInstance: "audit"},
			CostPins:      map[string]bool{ActInstance: true, AudInstance: true},
			CostVerdict:   "clean",
		},
		{
			Name: "sharding",
			Doc:  "front junction routing requests to one of N backend shards (§7.1, Fig. 5)",
			Build: func() *dsl.Program {
				return Sharding(ShardingConfig{
					N: 4, Timeout: t,
					Choose:         func(dsl.HostCtx) (int, error) { return 0, nil },
					CaptureRequest: nopSrc, HandleRequest: nopHandle, DeliverResponse: nopSink,
				})
			},
			CheckVerdict: "clean",
			// The router and the first two shards are fixed (edge ingress and
			// provisioned core capacity); Bck3/Bck4 are free, and the
			// optimizer should pull them next to the router.
			CostPlacement: map[string]string{
				FrontInstance: "edge",
				"Bck1":        "core", "Bck2": "core", "Bck3": "core", "Bck4": "core",
			},
			CostPins:    map[string]bool{FrontInstance: true, "Bck1": true, "Bck2": true},
			CostVerdict: "clean",
		},
		{
			Name: "parallel-sharding",
			Doc:  "front junction engaging a subset of backends in parallel (§7.1, Fig. 6)",
			Build: func() *dsl.Program {
				return ParallelSharding(ParallelShardingConfig{
					N: 3, Timeout: t,
					ChooseSet:      func(dsl.HostCtx) ([]int, error) { return []int{0, 1, 2}, nil },
					CaptureRequest: nopSrc, HandleRequest: nopHandle,
				})
			},
			Suppressions: []analysis.Suppression{{
				Pass:   "kvlifecycle",
				Match:  `subset "tgt" is populated but never consulted`,
				Reason: "Fig. 6 ➌ fidelity: the subset mirrors the paper's tgt ⊆ Backs; the unrolled engage loop consults membership through the Engage[b̃] propositions instead",
			}, {
				Pass:   "kvlifecycle",
				Match:  `data "m" is written but never read`,
				Reason: "Fig. 6 computes but never delivers responses: each back-end retains its reply in m for host-side consumption only",
			}},
			CheckVerdict: "clean-bounded",
			CheckNote:    "the 3-backend parallel engage with host havocs saturates the default state cap; no violation in the explored prefix",
			CostPlacement: map[string]string{
				FrontInstance: "edge",
				"Bck1":        "core", "Bck2": "core", "Bck3": "core",
			},
			CostPins: map[string]bool{
				FrontInstance: true, "Bck1": true, "Bck2": true, "Bck3": true,
			},
			CostSuppressions: []analysis.Suppression{{
				Pass:   "costfanout",
				Match:  "Fnt::junction/body[3]",
				Reason: "Fig. 6 fans the request out to the chosen backend *set* by definition; the arms target distinct shards, so per-destination coalescing is inherently unavailable",
			}},
			CostVerdict: "clean",
		},
		{
			Name: "caching",
			Doc:  "front junction memoizing backend responses (§7.2, Fig. 7)",
			Build: func() *dsl.Program {
				return Caching(CachingConfig{
					Timeout:        t,
					CheckCacheable: func(dsl.HostCtx) (bool, error) { return true, nil },
					LookupCache:    func(dsl.HostCtx) (bool, error) { return false, nil },
					CaptureRequest: nopSrc, DeliverResponse: nopSink,
					UpdateCache: func(dsl.HostCtx) error { return nil },
					ComputeF:    nopHandle,
				})
			},
			CheckVerdict: "clean",
			// The cache fronts requests at the edge precisely so that hits
			// avoid the trip to the core-side function.
			CostPlacement: map[string]string{CacheInstance: "edge", FunInstance: "core"},
			CostPins:      map[string]bool{CacheInstance: true, FunInstance: true},
			CostVerdict:   "clean",
		},
		{
			Name: "failover",
			Doc:  "front with N warm-standby backends and stateful failover (§7.3, Fig. 10)",
			Build: func() *dsl.Program {
				return Failover(FailoverConfig{
					N: 2, Timeout: t,
					InitialState: nopSrc, PrepareRequest: nopSrc,
					ApplyStateAtFront: nopSink, ApplyStateAtBack: nopSink,
					HandleRequest: nopHandle, DeliverResponse: nopSink, CaptureState: nopSrc,
				})
			},
			CheckVerdict: "liveness",
			CheckNote:    "the request-driven junctions (f::c, the backends' serve) fire only on client requests beyond the default environment budget; no safety violation within the bound",
			// Warm-standby failover keeps the front and every replica on one
			// site: the replicas exist for crash tolerance, not distribution.
			CostPlacement: map[string]string{FrontEnd: "site", "b1": "site", "b2": "site"},
			CostPins:      map[string]bool{FrontEnd: true, "b1": true, "b2": true},
			CostSuppressions: []analysis.Suppression{{
				Pass:   "costfanout",
				Match:  "f::c/body[7]",
				Reason: "engaging every warm replica in parallel is the §7.3 design: the arms must target distinct backends",
			}, {
				Pass:   "costpingpong",
				Match:  "wait-separated rounds",
				Reason: "Fig. 10's stateful hand-off acknowledges the state transfer and the request separately per backend; the extra round is the protocol, and both ends are pinned to one site",
			}},
			CostVerdict: "clean",
		},
		{
			Name: "watched-failover",
			Doc:  "primary/standby pair under a liveness watchdog (§7.4, Fig. 12)",
			Build: func() *dsl.Program {
				return WatchedFailover(WatchedFailoverConfig{
					Timeout:        t,
					PrepareRequest: nopSrc, HandleRequest: nopHandle, DeliverResponse: nopSink,
				})
			},
			Suppressions: []analysis.Suppression{{
				Pass:   "kvlifecycle",
				Match:  `proposition "nofailover" is written remotely`,
				Reason: "Fig. 16 fidelity: the watchdog asserts nofailover at both the primary and f; only f consults it, but the declaration at o is required for the watchdog's assert to be deliverable",
			}},
			CheckVerdict: "liveness",
			CheckNote:    "the watchdog's recovery junctions are guarded on instance crashes (¬@running) and crash faults are outside the checker's transition relation",
			// The arbiter must observe the others' liveness in-process, so
			// the whole quartet is pinned to one site.
			CostPlacement: map[string]string{
				WatchedFront: "site", Watchdog: "site",
				PrimaryBackend: "site", StandbyBackend: "site",
			},
			CostPins: map[string]bool{
				WatchedFront: true, Watchdog: true,
				PrimaryBackend: true, StandbyBackend: true,
			},
			CostVerdict: "findings",
			CostNote:    "the front sends each request to the primary and the standby in one par (costfanout): two distinct peers by design (§7.4); the watchdogs' @running guards and the backends' Reply probes are same-site reads, woken by the liveness and peer tables they read",
		},
	}
}

// CatalogueEntryByName finds an entry by name.
func CatalogueEntryByName(name string) (CatalogueEntry, bool) {
	for _, e := range Catalogue() {
		if e.Name == name {
			return e, true
		}
	}
	return CatalogueEntry{}, false
}
