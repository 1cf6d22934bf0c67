// Package dsl implements the C-Saw domain-specific language as a Go EDSL.
//
// The package covers the complete syntax of Table 1 in the paper —
// expressions E, case terminators T, formulas F/G (provided by package
// formula), and symbol kinds V — together with the declaration forms
// (init prop / init data / guard / set / subset / idx / for-derived
// proposition families), functions-as-templates, and compile-time `for`
// unrolling. Programs built with this package are checked for the paper's
// well-formedness rules (Validate's shape rules here, every name in
// plan.Compile) and executed by package runtime; package events gives them
// event-structure semantics.
//
// Host-language code (the paper's ⌊H⌉{V⃗} form) is represented by Go
// closures receiving a HostCtx; the V⃗ write-set is enforced at runtime.
package dsl

import (
	"fmt"
	"strings"
	"time"

	"csaw/internal/formula"
)

// Terminator is the T metavariable of Table 1: how a case arm ends.
type Terminator uint8

const (
	// TermBreak leaves the case expression.
	TermBreak Terminator = iota
	// TermNext retries the case but can only match after the arm that
	// succeeded.
	TermNext
	// TermReconsider branches to the containing case expression if a
	// different match is made, otherwise the expression fails.
	TermReconsider
)

// String renders the terminator keyword.
func (t Terminator) String() string {
	switch t {
	case TermBreak:
		return "break"
	case TermNext:
		return "next"
	case TermReconsider:
		return "reconsider"
	default:
		return fmt.Sprintf("terminator(%d)", t)
	}
}

// JunctionRef names a communication target. Exactly one of the fields is
// used:
//   - Instance+Junction: a fully-qualified junction ι::γ,
//   - Idx: an idx/cursor variable that resolves at runtime to a set element
//     naming a junction (paper Fig. 5, line ➌),
//   - MeJunction / MeInstance: the special me::junction and
//     me::instance::<junction> references (paper §6).
type JunctionRef struct {
	Instance string
	Junction string
	Idx      string
	// MeJunction refers to the containing junction (illegal as a
	// communication target, used in formulas/props).
	MeJunction bool
	// MeInstance, when set with Junction, refers to junction Junction of the
	// containing instance (me::instance::J).
	MeInstance bool
}

// J builds a fully-qualified junction reference ι::γ.
func J(instance, junction string) JunctionRef {
	return JunctionRef{Instance: instance, Junction: junction}
}

// ByIdx builds a junction reference resolved at runtime through an idx
// variable.
func ByIdx(idx string) JunctionRef { return JunctionRef{Idx: idx} }

// MeJ is the special me::junction reference.
func MeJ() JunctionRef { return JunctionRef{MeJunction: true} }

// MeI builds the me::instance::<junction> reference.
func MeI(junction string) JunctionRef { return JunctionRef{MeInstance: true, Junction: junction} }

// Local is the empty target of "assert [] P": the update applies only to the
// local table.
func Local() JunctionRef { return JunctionRef{} }

// IsLocal reports whether the reference is the empty (local) target.
func (r JunctionRef) IsLocal() bool {
	return r.Instance == "" && r.Junction == "" && r.Idx == "" && !r.MeJunction && !r.MeInstance
}

// String renders the reference in the paper's notation.
func (r JunctionRef) String() string {
	switch {
	case r.MeJunction:
		return "me::junction"
	case r.MeInstance:
		return "me::instance::" + r.Junction
	case r.Idx != "":
		return r.Idx
	case r.IsLocal():
		return ""
	default:
		return r.Instance + "::" + r.Junction
	}
}

// PropRef names a proposition, possibly indexed: Base or Base[Index]. Index
// is either a concrete set element (after for-unrolling) or an idx variable
// resolved at runtime.
type PropRef struct {
	Base  string
	Index string
	// IndexIsVar marks Index as an idx variable needing runtime resolution
	// rather than a concrete element.
	IndexIsVar bool
}

// PR builds an unindexed proposition reference.
func PR(base string) PropRef { return PropRef{Base: base} }

// PRAt builds a proposition reference with a concrete index, e.g.
// Backend[b1::serve].
func PRAt(base, elem string) PropRef { return PropRef{Base: base, Index: elem} }

// PRIdx builds a proposition reference indexed by an idx variable resolved
// at runtime, e.g. Work[tgt].
func PRIdx(base, idxVar string) PropRef {
	return PropRef{Base: base, Index: idxVar, IndexIsVar: true}
}

// String renders the reference.
func (p PropRef) String() string {
	if p.Index == "" {
		return p.Base
	}
	return p.Base + "[" + p.Index + "]"
}

// IndexedName returns the flat table key for a concrete index value.
func IndexedName(base, elem string) string { return base + "[" + elem + "]" }

// HostCtx is the interface host-language blocks use to interact with their
// junction's state. Only the names listed in the block's write-set V⃗ may be
// written; arbitrary junction state may be read (paper §4).
type HostCtx interface {
	// Data reads a named-data slot from the local table (deserialized bytes).
	Data(name string) ([]byte, error)
	// Prop reads a proposition from the local table.
	Prop(name string) (bool, error)
	// Save writes a named-data slot. The name must be in the block's V⃗.
	Save(name string, payload []byte) error
	// SetProp writes a proposition. The name must be in V⃗.
	SetProp(name string, v bool) error
	// SetIdx assigns an idx variable to an element of its underlying set.
	// The idx name must be in V⃗.
	SetIdx(name, elem string) error
	// SetSubset replaces the membership of a subset variable. The subset
	// name must be in V⃗ and every element must belong to the parent set.
	SetSubset(name string, elems []string) error
	// App returns the application-specific context the instance was started
	// with (the bridge to non-architecture logic).
	App() any
	// Instance returns the containing instance's name.
	Instance() string
	// Junction returns the containing junction's fully-qualified name.
	Junction() string
}

// HostFunc is the body of a ⌊H⌉{V⃗} block.
type HostFunc func(ctx HostCtx) error

// SourceFunc produces the serialized payload for a save(..., n) statement.
type SourceFunc func(ctx HostCtx) ([]byte, error)

// SinkFunc consumes the payload for a restore(n, ...) statement. The payload
// is the junction table's own bytes of n, lent for the call: read-only, and
// valid only until the sink returns. A sink that keeps any of them, or hands
// them to something that does, copies them first.
type SinkFunc func(ctx HostCtx, payload []byte) error

// Expr is the E metavariable of Table 1.
type Expr interface {
	exprNode()
	String() string
}

// Host is ⌊H⌉{V⃗}: a host-language block. Label identifies the block in
// diagnostics and event structures (e.g. "H1", "Choose"). Writes is V⃗.
type Host struct {
	Label  string
	Writes []string
	Fn     HostFunc
}

func (Host) exprNode() {}

// String implements Expr.
func (h Host) String() string {
	if len(h.Writes) == 0 {
		return "⌊" + h.Label + "⌉"
	}
	return "⌊" + h.Label + "⌉{" + strings.Join(h.Writes, ",") + "}"
}

// Scope is ⟨E⟩: a fate scope. If part of the body fails the whole scope
// fails; KV changes made before the failure persist (no rollback).
type Scope struct{ Body []Expr }

func (Scope) exprNode() {}

// String implements Expr.
func (s Scope) String() string { return "⟨" + seqString(s.Body) + "⟩" }

// Txn is ⟨|E|⟩: a transaction block. On failure the KV table rolls back to
// the state at block entry. Host blocks are not allowed inside (roll-back is
// undefined for them, paper §6 "Functions and brackets").
type Txn struct{ Body []Expr }

func (Txn) exprNode() {}

// String implements Expr.
func (t Txn) String() string { return "⟨|" + seqString(t.Body) + "|⟩" }

// Return leaves the nearest enclosing fate scope; at junction top level it
// leaves the junction (paper §6 "More on branching").
type Return struct{}

func (Return) exprNode() {}

// String implements Expr.
func (Return) String() string { return "return" }

// Skip is the no-op; it can only succeed.
type Skip struct{}

func (Skip) exprNode() {}

// String implements Expr.
func (Skip) String() string { return "skip" }

// Retry branches back to the beginning of the junction; it can only be
// invoked a bounded number of times within a single scheduling (the bound is
// the junction's RetryLimit).
type Retry struct{}

func (Retry) exprNode() {}

// String implements Expr.
func (Retry) String() string { return "retry" }

// Break leaves the containing case expression (terminator position or,
// inside an unrolled for, exits the loop early).
type Break struct{}

func (Break) exprNode() {}

// String implements Expr.
func (Break) String() string { return "break" }

// Next retries the containing case, matching only arms after the current one.
type Next struct{}

func (Next) exprNode() {}

// String implements Expr.
func (Next) String() string { return "next" }

// Reconsider re-enters the containing case expression if a different match
// is made; otherwise the expression fails (paper §6).
type Reconsider struct{}

func (Reconsider) exprNode() {}

// String implements Expr.
func (Reconsider) String() string { return "reconsider" }

// Write is write(γ, n): push the named data n to junction γ's table. n must
// have been generated by save (i.e. be defined).
type Write struct {
	Data string
	To   JunctionRef
}

func (Write) exprNode() {}

// String implements Expr.
func (w Write) String() string { return fmt.Sprintf("write(%s, %s)", w.Data, w.To) }

// Wait is wait [n⃗] F: block until formula F is true, admitting remote
// updates to the propositions of F and the data keys n⃗ while blocked.
type Wait struct {
	Data []string
	Cond formula.Formula
}

func (Wait) exprNode() {}

// String implements Expr.
func (w Wait) String() string {
	return fmt.Sprintf("wait [%s] %s", strings.Join(w.Data, ","), w.Cond)
}

// Save is save(..., n): capture host state into named data n. From produces
// the serialized payload.
type Save struct {
	Data string
	From SourceFunc
}

func (Save) exprNode() {}

// String implements Expr.
func (s Save) String() string { return fmt.Sprintf("save(…, %s)", s.Data) }

// Restore is restore(n, ...): push the value of named data n back into host
// state through Into. Restoring undef is an error. Writes is the V⃗ of the
// host block that typically follows a restore (restore(n,...); ⌊H⌉{V⃗}): the
// sink may write those junction names through its HostCtx.
type Restore struct {
	Data   string
	Into   SinkFunc
	Writes []string
}

func (Restore) exprNode() {}

// String implements Expr.
func (r Restore) String() string { return fmt.Sprintf("restore(%s, …)", r.Data) }

// Seq is E1; E2; ...: sequential composition.
type Seq []Expr

func (Seq) exprNode() {}

// String implements Expr.
func (s Seq) String() string { return seqString(s) }

// Par is E1 + E2 + ...: parallel composition; all branches must succeed.
type Par []Expr

func (Par) exprNode() {}

// String implements Expr.
func (p Par) String() string {
	parts := make([]string, len(p))
	for i, e := range p {
		parts[i] = e.String()
	}
	return strings.Join(parts, " + ")
}

// ParN is ∥n E⃗: replicated parallel composition — n concurrent copies of
// each body expression.
type ParN struct {
	N    int
	Body []Expr
}

func (ParN) exprNode() {}

// String implements Expr.
func (p ParN) String() string { return fmt.Sprintf("∥%d %s", p.N, seqString(p.Body)) }

// Otherwise is E1 otherwise[t] E2: timed failure handling. E1 runs with
// deadline t (t == 0 means no deadline, failure-only handling); if E1 fails
// or times out, E2 runs.
type Otherwise struct {
	Try     Expr
	Timeout time.Duration
	Handler Expr
}

func (Otherwise) exprNode() {}

// String implements Expr.
func (o Otherwise) String() string {
	if o.Timeout > 0 {
		return fmt.Sprintf("%s otherwise[%s] %s", o.Try, o.Timeout, o.Handler)
	}
	return fmt.Sprintf("%s otherwise %s", o.Try, o.Handler)
}

// Start is start ι: launch an instance. Once started, an instance cannot be
// started again until stopped. Args carries the application context handed
// to the instance's junctions.
type Start struct {
	Instance string
	// Args is an opaque application context made available to the started
	// instance's host blocks via HostCtx.App.
	Args any
}

func (Start) exprNode() {}

// String implements Expr.
func (s Start) String() string { return "start " + s.Instance }

// Stop is stop ι: stop a running instance. A stopped instance cannot be
// stopped again.
type Stop struct{ Instance string }

func (Stop) exprNode() {}

// String implements Expr.
func (s Stop) String() string { return "stop " + s.Instance }

// Assert is assert [γ] P: set proposition P true in the local table and — if
// γ is non-local — push the assertion to γ's table.
type Assert struct {
	Target JunctionRef
	Prop   PropRef
}

func (Assert) exprNode() {}

// String implements Expr.
func (a Assert) String() string { return fmt.Sprintf("assert [%s] %s", a.Target, a.Prop) }

// Retract is retract [γ] P: the dual of Assert.
type Retract struct {
	Target JunctionRef
	Prop   PropRef
}

func (Retract) exprNode() {}

// String implements Expr.
func (r Retract) String() string { return fmt.Sprintf("retract [%s] %s", r.Target, r.Prop) }

// Verify is verify G: assert a safety condition. Evaluation is ternary — if
// the formula needs f@P and f is not running, verify errors (paper §6
// "Junction safety conditions").
type Verify struct{ Cond formula.Formula }

func (Verify) exprNode() {}

// String implements Expr.
func (v Verify) String() string { return "verify " + v.Cond.String() }

// Keep discards pending parallel KV updates for the listed names (paper §6
// "Junction state").
type Keep struct {
	Props []string
	Data  []string
}

func (Keep) exprNode() {}

// String implements Expr.
func (k Keep) String() string {
	return fmt.Sprintf("keep props[%s] data[%s]", strings.Join(k.Props, ","), strings.Join(k.Data, ","))
}

// If is the conditional sugar used throughout the paper's examples
// ("if F then E1 else E2"); Else may be nil.
type If struct {
	Cond formula.Formula
	Then Expr
	Else Expr
}

func (If) exprNode() {}

// String implements Expr.
func (i If) String() string {
	s := fmt.Sprintf("if %s then %s", i.Cond, i.Then)
	if i.Else != nil {
		s += " else " + i.Else.String()
	}
	return s
}

// CaseArm is one F ⇒ E; T arm of a case expression.
type CaseArm struct {
	Cond formula.Formula
	Body []Expr
	Term Terminator
}

// Case is the case { F1 ⇒ E1; T1 ... otherwise ⇒ En } expression. Otherwise
// is mandatory per Table 1's grammar; validity constraints (non-empty, not
// only otherwise, no next on the final arm) are enforced by Validate.
type Case struct {
	Arms      []CaseArm
	Otherwise []Expr
}

func (Case) exprNode() {}

// String implements Expr.
func (c Case) String() string {
	var b strings.Builder
	b.WriteString("case { ")
	for _, a := range c.Arms {
		fmt.Fprintf(&b, "%s ⇒ %s; %s ", a.Cond, seqString(a.Body), a.Term)
	}
	fmt.Fprintf(&b, "otherwise ⇒ %s }", seqString(c.Otherwise))
	return b.String()
}

// IdxAssign assigns an idx variable from DSL code (most assignments happen
// through host blocks, but patterns occasionally need a deterministic
// pre-assignment, e.g. initializing a cursor).
type IdxAssign struct {
	Idx  string
	Elem string
}

func (IdxAssign) exprNode() {}

// String implements Expr.
func (i IdxAssign) String() string { return fmt.Sprintf("%s := %s", i.Idx, i.Elem) }

func seqString(body []Expr) string {
	parts := make([]string, len(body))
	for i, e := range body {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}
