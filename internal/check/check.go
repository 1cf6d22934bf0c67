// Package check is a bounded explicit-state model checker for validated
// C-Saw programs. It explores the reachable configuration space of an
// architecture — junction schedulings, intra-junction parallel interleavings,
// remote update delivery, wait admission, deadline timeouts, and a bounded
// hostile environment that may assert externally-writable propositions — and
// reports three classes of violation:
//
//   - deadlock: a state with at least one blocked wait and no enabled
//     transition of any kind (ignoring environment budget exhaustion, so a
//     starved budget never manufactures a deadlock);
//   - invariant: a user-declared program invariant (dsl.Program.Invariant)
//     evaluating to definitely-false in a quiescent state;
//   - liveness: a guarded junction that never fired in any explored state
//     (diagnostic severity — within the bound, not a proof).
//
// The abstraction is exact for the architecture state the paper makes
// explicit (§4, §6): propositions are concrete booleans, named data is
// ternary presence (defined/undef), idx and subset variables are concrete.
// Host blocks are havoc: every combination of writes to their declared
// write-set V⃗ is explored (capped at maxHavoc), and host blocks
// never fail. Timing is abstracted: an otherwise[t] deadline with a wait
// blocked below it, in its own strand or a par arm under it, may expire at any
// moment.
//
// The checker steps the ops the runtime's executor compiles (plan.Compile)
// with plan's frame machine (plan.FrameMachine), which makes every control
// decision — signals, failures, scopes, transaction rollback, otherwise,
// case terminators (plan.CaseMachine), par joins and deadline expiry — so the
// checker keeps only the leaf statements, which mirror the executor op by op,
// including local-priority pending drops and wait admission sets. Two
// abstractions remain: remote updates are stepped one statement at a time (the executor's
// group sends are not modeled), and threads of a stopped instance keep
// executing (their sends fail, as at runtime) rather than being killed
// asynchronously.
//
// A state is one word slice laid out once per program from plan's declaration
// order: each instance's running and started bits, the environment budget,
// then per junction a bit per prop and per data, a pending-present and a
// pending-value bit per prop, a pending-present bit per data, each idx's
// element number and each subset's defined and member bits. A clone copies
// the slice and shares the threads until it acts on one. The state key is the
// slice verbatim followed by the threads in canonical tree order, as varints
// and length-prefixed strings. It is exact, not a hash: hash compaction lets
// two distinct states collide and silently prunes one, which would weaken
// every verdict from "no violation in the explored states" to "probably".
//
// Partial-order reduction: actions classified invisible — control flow,
// reads and writes of keys no other junction observes and no sibling branch
// races on (the race keys come from the §8 event-structure conflict relation
// via analysis.EventRaces) — are fused into their predecessor, so only
// genuinely racing actions produce interleavings.
//
// Every violation carries a minimized counterexample schedule. Replay
// re-executes a schedule against the real runtime (drivers disabled) and
// confirms the violation holds there.
package check

import (
	"fmt"
	"sort"
	"strings"

	"csaw/internal/dsl"
	"csaw/internal/plan"
)

// Options bounds the exploration.
type Options struct {
	// Bound is the maximum schedule length (transitions per path).
	// Default 48.
	Bound int
	// MaxEnv is the environment budget: how many times the environment may
	// act (inject an externally-writable proposition or invoke an unguarded
	// junction). Default 2; negative turns the environment off.
	MaxEnv int
}

const (
	// maxStates caps the number of distinct states explored.
	maxStates = 20000
	// maxHavoc caps the write combinations explored per host block.
	maxHavoc = 16
)

func (o *Options) fill() {
	if o.Bound <= 0 {
		o.Bound = 48
	}
	if o.MaxEnv < 0 {
		o.MaxEnv = 0
	} else if o.MaxEnv == 0 {
		o.MaxEnv = 2
	}
}

// ViolationKind classifies a finding.
type ViolationKind uint8

const (
	// Deadlock: blocked waits with no enabled transition.
	Deadlock ViolationKind = iota + 1
	// Invariant: a declared invariant is definitely false at quiescence.
	Invariant
	// Liveness: a guarded junction never fired within the bound.
	Liveness
)

// String renders the kind keyword.
func (k ViolationKind) String() string {
	switch k {
	case Deadlock:
		return "deadlock"
	case Invariant:
		return "invariant"
	case Liveness:
		return "liveness"
	default:
		return fmt.Sprintf("violation(%d)", uint8(k))
	}
}

// StepKind labels one transition of a counterexample schedule.
type StepKind uint8

const (
	// StepSchedule: a guarded junction's guard passed and its body started.
	StepSchedule StepKind = iota + 1
	// StepInvoke: the environment invoked an unguarded junction.
	StepInvoke
	// StepAbsorb: a scheduling attempt applied pending updates but the guard
	// stayed unsatisfied.
	StepAbsorb
	// StepResume: a blocked wait's formula became true and the thread resumed.
	StepResume
	// StepTimeout: an otherwise[t] deadline expired with a wait blocked below
	// it: the waits below it failed and control moves to its handler.
	StepTimeout
	// StepStrand: one thread ran a visible action (plus fused invisible ones).
	StepStrand
	// StepInject: the environment asserted an externally-writable proposition.
	StepInject
)

// String renders the step kind keyword.
func (k StepKind) String() string {
	switch k {
	case StepSchedule:
		return "schedule"
	case StepInvoke:
		return "invoke"
	case StepAbsorb:
		return "absorb"
	case StepResume:
		return "resume"
	case StepTimeout:
		return "timeout"
	case StepStrand:
		return "strand"
	case StepInject:
		return "inject"
	default:
		return fmt.Sprintf("step(%d)", uint8(k))
	}
}

// Step is one transition of a counterexample schedule. The sequence of steps
// from the initial state deterministically reproduces the violating state.
type Step struct {
	Kind StepKind `json:"kind"`
	// Junction is the acting fully-qualified junction.
	Junction string `json:"junction,omitempty"`
	// Thread identifies the acting thread for strand/resume steps, and for a
	// timeout the thread whose otherwise frame expired.
	Thread int `json:"thread,omitempty"`
	// Key is the injected proposition for inject steps.
	Key string `json:"key,omitempty"`
	// Choice disambiguates nondeterministic actions (a host havoc label, a
	// timeout frame index).
	Choice string `json:"choice,omitempty"`
	// Blocks marks schedule/invoke steps whose scheduling is still blocked on
	// a wait when the violation is reached (Replay must invoke asynchronously).
	Blocks bool `json:"blocks,omitempty"`
}

// String renders the step compactly.
func (s Step) String() string {
	var b strings.Builder
	b.WriteString(s.Kind.String())
	if s.Junction != "" {
		b.WriteString(" " + s.Junction)
	}
	if s.Key != "" {
		b.WriteString(" " + s.Key)
	}
	if s.Choice != "" {
		b.WriteString(" [" + s.Choice + "]")
	}
	if s.Blocks {
		b.WriteString(" (blocks)")
	}
	return b.String()
}

// Violation is one confirmed finding with its counterexample schedule
// (liveness findings are diagnostic and carry no schedule).
type Violation struct {
	Kind ViolationKind `json:"kind"`
	// Junction is the witness junction (a blocked junction for deadlocks, the
	// never-firing junction for liveness).
	Junction string `json:"junction,omitempty"`
	// Invariant is the violated invariant's name.
	Invariant string `json:"invariant,omitempty"`
	// Detail is the human-readable description.
	Detail string `json:"detail"`
	// Trace is the minimized counterexample schedule.
	Trace []Step `json:"trace,omitempty"`
}

// String renders the violation headline.
func (v Violation) String() string {
	switch v.Kind {
	case Invariant:
		return fmt.Sprintf("invariant %q violated: %s", v.Invariant, v.Detail)
	case Liveness:
		return fmt.Sprintf("liveness: %s: %s", v.Junction, v.Detail)
	default:
		return fmt.Sprintf("deadlock: %s", v.Detail)
	}
}

// Result is the outcome of one bounded exploration.
type Result struct {
	Violations []Violation `json:"violations"`
	// States and Transitions count distinct explored states and transitions.
	States      int `json:"states"`
	Transitions int `json:"transitions"`
	// Truncated reports that the bound, state cap, or a per-action cap cut
	// the exploration short: absence of violations is then relative to the
	// explored prefix.
	Truncated bool `json:"truncated"`
	// Unsupported lists constructs the checker over- or under-approximated.
	Unsupported []string `json:"unsupported,omitempty"`
}

// VerdictOf collapses a result to the csawc -check verdict keyword: the worst
// violation kind found, or "clean-bounded" when the exploration was truncated
// ("no violation" is then relative to the explored prefix), or "clean".
func VerdictOf(res *Result) string {
	has := func(k ViolationKind) bool {
		for _, v := range res.Violations {
			if v.Kind == k {
				return true
			}
		}
		return false
	}
	switch {
	case has(Deadlock):
		return "deadlock"
	case has(Invariant):
		return "invariant"
	case has(Liveness):
		return "liveness"
	case res.Truncated:
		return "clean-bounded"
	default:
		return "clean"
	}
}

// Check compiles p (plan.Compile, which checks it) and explores its reachable
// configuration space within the given bounds. The returned error is non-nil
// only for invalid programs; violations are reported in the Result.
func Check(p *dsl.Program, opts Options) (*Result, error) {
	opts.fill()
	pp, err := plan.Compile(p)
	if err != nil {
		return nil, err
	}
	c := newChecker(pp, opts)
	res := c.explore()
	for note := range c.unsup {
		res.Unsupported = append(res.Unsupported, note)
	}
	sort.Strings(res.Unsupported)
	return res, nil
}
