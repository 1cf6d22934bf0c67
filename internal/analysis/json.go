// Machine-readable report encoding shared by every csawc JSON mode
// (-json with -vet, -check or -cost): one ArchReport per analyzed
// architecture, a stable schema downstream tooling can decode without knowing
// which tool produced it.
package analysis

import (
	"encoding/json"
	"fmt"
	"io"
)

// ArchReport is the per-architecture element of csawc's JSON output: the
// architecture name, a build/validation error (exclusive with findings), and
// the findings themselves in the Diagnostic schema. The model checker reports
// through the same shape (its violations rendered as pass "check"
// diagnostics), so the consumers of every -json mode share one decoder.
type ArchReport struct {
	Arch        string                 `json:"arch"`
	Error       string                 `json:"error,omitempty"`
	Diagnostics []Diagnostic           `json:"diagnostics"`
	Suppressed  []SuppressedDiagnostic `json:"suppressed,omitempty"`
	// Cost carries the static traffic model when the report was produced by
	// the cost suite (csawc -cost -json); nil otherwise.
	Cost *CostReport `json:"cost,omitempty"`
}

// CostReport is the serialized form of the internal/cost traffic model: the
// per-junction firing economics, the cross-junction update matrix, and (when
// the optimizer ran) the suggested placement moves.
type CostReport struct {
	// Placement is the instance→location assignment the model was priced
	// under; empty means everything co-located.
	Placement map[string]string `json:"placement,omitempty"`
	Junctions []JunctionCost    `json:"junctions"`
	Edges     []EdgeCost        `json:"edges"`
	// CrossUpdatesPerDrive totals the location-crossing remote updates per
	// drive unit (one invocation round of the root junctions).
	CrossUpdatesPerDrive float64 `json:"cross_updates_per_drive"`
	// Moves are the optimizer's suggested relocations in application order;
	// CrossAfterMoves is the predicted cross-location total once all are
	// applied. Both are absent when the optimizer did not run or found
	// nothing to improve.
	Moves           []PlacementMove `json:"moves,omitempty"`
	CrossAfterMoves float64         `json:"cross_after_moves,omitempty"`
}

// JunctionCost is the static per-junction traffic summary.
type JunctionCost struct {
	FQ string `json:"fq"`
	// Guard classifies how the junction schedules: "invoked" (unguarded or
	// manual) or "event" (guarded: woken when a table or liveness cell the
	// guard reads changes).
	Guard string `json:"guard"`
	// Activation is the predicted firings per drive unit.
	Activation float64 `json:"activation"`
	// UpdatesPerFiring counts remote updates (asserts/retracts/writes to
	// other instances) sent per firing; each costs one message plus an ack.
	UpdatesPerFiring float64 `json:"updates_per_firing"`
	// FramesPerFiring estimates wire frames after par-arm coalescing packs
	// same-destination updates into delivery groups.
	FramesPerFiring float64 `json:"frames_per_firing"`
	// RoundsPerFiring counts the wait-separated sequential remote exchanges
	// per firing — the ack-latency chain an invocation must traverse.
	RoundsPerFiring int `json:"rounds_per_firing"`
}

// EdgeCost is one directed cross-junction update flow.
type EdgeCost struct {
	From string `json:"from"`
	To   string `json:"to"`
	// UpdatesPerFiring is the remote updates From sends To per firing of
	// From; UpdatesPerDrive scales it by From's activation.
	UpdatesPerFiring float64 `json:"updates_per_firing"`
	UpdatesPerDrive  float64 `json:"updates_per_drive"`
	// GuardRead marks an edge induced by From's *guard* reading To's table
	// or liveness (a must-colocate constraint: such reads evaluate Unknown
	// over a transport bridge).
	GuardRead bool `json:"guard_read,omitempty"`
	// Cross is true when the two junctions' instances are placed at
	// different locations.
	Cross bool `json:"cross,omitempty"`
}

// PlacementMove is one suggested instance relocation.
type PlacementMove struct {
	Instance string `json:"instance"`
	From     string `json:"from"`
	To       string `json:"to"`
	// Delta is the predicted change in cross-location updates per drive
	// (negative = traffic saved).
	Delta float64 `json:"delta"`
}

// EncodeReports writes reports as indented JSON.
func EncodeReports(w io.Writer, reports []ArchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}

// DecodeReports reads what EncodeReports wrote.
func DecodeReports(r io.Reader) ([]ArchReport, error) {
	var reports []ArchReport
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&reports); err != nil {
		return nil, fmt.Errorf("analysis: decode reports: %w", err)
	}
	return reports, nil
}
