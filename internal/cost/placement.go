// Greedy placement optimization over instance→location assignments: price
// the cross-location update traffic of the model's edge matrix under a
// placement, then move unpinned instances one at a time to whichever
// location cuts the most predicted traffic, until no move helps.
//
// Guard reads weigh in as hard colocation pressure: a guard that reads
// another instance's table in-process stops evaluating definitely true the
// moment a bridge separates them, so splitting such a pair is priced far
// above any bandwidth the split could save.
package cost

import (
	"sort"

	"csaw/internal/analysis"
)

// guardSplitPenalty prices separating a guard-read pair. It only needs to
// dominate realistic per-drive update totals (activations cap at 64), so any
// bandwidth saving loses to a broken guard.
const guardSplitPenalty = 1e6

// CrossTraffic totals the location-crossing updates per drive unit of the
// model under a placement. Nil placement means co-located: zero.
func CrossTraffic(m *Model, placement map[string]string) float64 {
	total := 0.0
	for _, e := range m.Edges {
		if m.crossEdge(e, placement) {
			total += e.PerDrive
		}
	}
	return total
}

// objective is CrossTraffic plus the guard-split penalty per guard-read edge
// forced across locations — what the optimizer actually minimizes.
func objective(m *Model, placement map[string]string) float64 {
	total := CrossTraffic(m, placement)
	for _, e := range m.Edges {
		if e.GuardRead && m.crossEdge(e, placement) {
			total += guardSplitPenalty
		}
	}
	return total
}

// Optimize greedily relocates unpinned instances across the location set
// until no single move lowers the objective. It returns the final placement
// and the applied moves in order, each Delta the change in plain
// cross-location updates per drive (negative = saved). The input placement
// is not mutated; locations defaults to the distinct locations present in
// it. Pinned instances never move.
func Optimize(m *Model, placement map[string]string, pins map[string]bool, locations []string) (map[string]string, []analysis.PlacementMove) {
	cur := map[string]string{}
	for inst, loc := range placement {
		cur[inst] = loc
	}
	if len(locations) == 0 {
		seen := map[string]bool{}
		for _, loc := range cur {
			if !seen[loc] {
				seen[loc] = true
				locations = append(locations, loc)
			}
		}
	}
	locs := append([]string(nil), locations...)
	sort.Strings(locs)
	var insts []string
	for _, inst := range m.Prog.Prog.InstanceNames() {
		if !pins[inst] {
			insts = append(insts, inst)
		}
	}
	sort.Strings(insts)

	var moves []analysis.PlacementMove
	for iter := 0; iter < 100; iter++ {
		base := objective(m, cur)
		bestObj := base
		var bestInst, bestLoc string
		for _, inst := range insts {
			from := cur[inst]
			for _, loc := range locs {
				if loc == from {
					continue
				}
				cur[inst] = loc
				if obj := objective(m, cur); obj < bestObj {
					bestObj, bestInst, bestLoc = obj, inst, loc
				}
				cur[inst] = from
			}
		}
		if bestInst == "" {
			break
		}
		before := CrossTraffic(m, cur)
		move := analysis.PlacementMove{Instance: bestInst, From: cur[bestInst], To: bestLoc}
		cur[bestInst] = bestLoc
		move.Delta = round3(CrossTraffic(m, cur) - before)
		moves = append(moves, move)
	}
	return cur, moves
}
