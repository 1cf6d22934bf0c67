package dsl

import (
	"fmt"
	"sort"
	"time"

	"csaw/internal/formula"
)

// Decl is a junction declaration (the "| ..." prefix lines of a definition).
type Decl interface {
	declNode()
	String() string
}

// InitProp is "init prop P" / "init prop ¬P": declares proposition Name with
// initial value Init.
type InitProp struct {
	Name string
	Init bool
}

func (InitProp) declNode() {}

// String implements Decl.
func (d InitProp) String() string {
	if d.Init {
		return "init prop " + d.Name
	}
	return "init prop ¬" + d.Name
}

// InitData is "init data n": declares a named-data slot initialized to undef.
type InitData struct{ Name string }

func (InitData) declNode() {}

// String implements Decl.
func (d InitData) String() string { return "init data " + d.Name }

// DeclSet is "set S": a compile-time-fixed finite set. Elements are strings
// (set elements may reference instances/junctions or plain data, paper §6
// "Parameters, data types, indexing").
type DeclSet struct {
	Name  string
	Elems []string
}

func (DeclSet) declNode() {}

// String implements Decl.
func (d DeclSet) String() string { return fmt.Sprintf("set %s = %v", d.Name, d.Elems) }

// DeclSubset is "subset X of S": a runtime-defined subset of a declared set,
// populated by host code. Initialized to undef (empty and unset).
type DeclSubset struct {
	Name string
	Of   string
}

func (DeclSubset) declNode() {}

// String implements Decl.
func (d DeclSubset) String() string { return fmt.Sprintf("subset %s of %s", d.Name, d.Of) }

// DeclIdx is "idx X of S": a choice function over set (or subset) S,
// assigned by host code. Initialized to undef.
type DeclIdx struct {
	Name string
	Of   string
}

func (DeclIdx) declNode() {}

// String implements Decl.
func (d DeclIdx) String() string { return fmt.Sprintf("idx %s of %s", d.Name, d.Of) }

// JunctionDef is one junction definition: declarations, an optional
// scheduling guard, and a body. RetryLimit bounds the retry statement within
// a single scheduling (paper §6: retry "can only be invoked a fixed number
// of times within a single scheduling of a junction").
type JunctionDef struct {
	Name       string
	Decls      []Decl
	Guard      formula.Formula
	Body       []Expr
	RetryLimit int
	// Manual suppresses the runtime's automatic driver loop for a guarded
	// junction: the application schedules it explicitly (the paper's "a
	// junction's execution is scheduled by the instance's application
	// logic", §4).
	Manual bool
}

// InstanceType is a τ: a named set of junction definitions.
type InstanceType struct {
	Name      string
	Junctions map[string]*JunctionDef
	order     []string
}

// Junction adds (or replaces) a junction definition on the type.
func (t *InstanceType) Junction(name string, def *JunctionDef) *InstanceType {
	def.Name = name
	if def.RetryLimit == 0 {
		def.RetryLimit = 1
	}
	if _, exists := t.Junctions[name]; !exists {
		t.order = append(t.order, name)
	}
	t.Junctions[name] = def
	return t
}

// JunctionNames returns the junction names in declaration order.
func (t *InstanceType) JunctionNames() []string {
	return append([]string(nil), t.order...)
}

// Function is a DSL function definition. Functions are templates expanded at
// compile time (paper §6 "Functions and brackets"); in the EDSL the
// expansion is a Go call producing the inlined body, wrapped in a fate scope.
type Function struct {
	Name   string
	Expand func(args ...string) []Expr
}

// Invariant is a user-declared safety property over the whole architecture:
// a ternary formula that must never evaluate to definitely-false in a
// quiescent configuration (no junction body mid-flight). Propositions must be
// junction-qualified ("inst::junction" or a bare single-junction instance)
// since an invariant has no owning junction to resolve local names against.
type Invariant struct {
	Name string
	Cond formula.Formula
}

// Program is a complete C-Saw architecture description: instance types, the
// instance set with their types, the special main body, and the function
// catalogue.
type Program struct {
	Types      map[string]*InstanceType
	Instances  map[string]string // instance name -> type name
	Main       []Expr
	Functions  map[string]*Function
	Invariants []Invariant

	typeOrder     []string
	instanceOrder []string
}

// NewProgram creates an empty program.
func NewProgram() *Program {
	return &Program{
		Types:     map[string]*InstanceType{},
		Instances: map[string]string{},
		Functions: map[string]*Function{},
	}
}

// Type declares (or fetches) an instance type.
func (p *Program) Type(name string) *InstanceType {
	if t, ok := p.Types[name]; ok {
		return t
	}
	t := &InstanceType{Name: name, Junctions: map[string]*JunctionDef{}}
	p.Types[name] = t
	p.typeOrder = append(p.typeOrder, name)
	return t
}

// Instance declares an instance of a type.
func (p *Program) Instance(name, typeName string) *Program {
	if _, exists := p.Instances[name]; !exists {
		p.instanceOrder = append(p.instanceOrder, name)
	}
	p.Instances[name] = typeName
	return p
}

// SetMain sets the body of the special main definition.
func (p *Program) SetMain(body ...Expr) *Program {
	p.Main = body
	return p
}

// Invariant declares a named safety property checked by the bounded model
// checker (csawc -check) at every quiescent configuration.
func (p *Program) Invariant(name string, cond formula.Formula) *Program {
	p.Invariants = append(p.Invariants, Invariant{Name: name, Cond: cond})
	return p
}

// Func registers a function template.
func (p *Program) Func(name string, expand func(args ...string) []Expr) *Program {
	p.Functions[name] = &Function{Name: name, Expand: expand}
	return p
}

// CallF expands a registered function template at build time, wrapping the
// body in a fate scope (functions are "named equivalents of the ⟨E⟩ syntax",
// paper §6).
func (p *Program) CallF(name string, args ...string) Expr {
	f, ok := p.Functions[name]
	if !ok {
		panic(fmt.Sprintf("dsl: call of undefined function %q", name))
	}
	return Scope{Body: f.Expand(args...)}
}

// TypeNames returns the declared type names in declaration order.
func (p *Program) TypeNames() []string { return append([]string(nil), p.typeOrder...) }

// InstanceNames returns the declared instance names in declaration order.
func (p *Program) InstanceNames() []string { return append([]string(nil), p.instanceOrder...) }

// InstancesOfType returns the instances of a given type, sorted.
func (p *Program) InstancesOfType(typeName string) []string {
	var out []string
	for inst, tn := range p.Instances {
		if tn == typeName {
			out = append(out, inst)
		}
	}
	sort.Strings(out)
	return out
}

// --- Builder helpers -------------------------------------------------------

// Def builds a junction definition from declarations followed by the body.
func Def(decls []Decl, body ...Expr) *JunctionDef {
	return &JunctionDef{Decls: decls, Body: body, RetryLimit: 1}
}

// Decls gathers declarations.
func Decls(ds ...Decl) []Decl { return ds }

// Guarded attaches a scheduling guard to a junction definition.
func (d *JunctionDef) Guarded(g formula.Formula) *JunctionDef {
	d.Guard = g
	return d
}

// WithRetryLimit sets the retry bound.
func (d *JunctionDef) WithRetryLimit(n int) *JunctionDef {
	d.RetryLimit = n
	return d
}

// ManuallyScheduled marks the junction as application-scheduled even when it
// has a guard.
func (d *JunctionDef) ManuallyScheduled() *JunctionDef {
	d.Manual = true
	return d
}

// OtherwiseT composes E1 otherwise[t] E2.
func OtherwiseT(try Expr, t time.Duration, handler Expr) Expr {
	return Otherwise{Try: try, Timeout: t, Handler: handler}
}

// Arm builds a case arm.
func Arm(cond formula.Formula, term Terminator, body ...Expr) CaseArm {
	return CaseArm{Cond: cond, Body: body, Term: term}
}

// --- Template-based recursion (`for` unrolling, paper §6) ------------------

// ForOp is the operator parameter of the `for ñ ∈ N⃗ op I[ñ]` sugar.
type ForOp uint8

const (
	// OpSeq is sequential composition (;).
	OpSeq ForOp = iota
	// OpPar is parallel composition (+).
	OpPar
	// OpOtherwise is right-nested otherwise[t] chaining.
	OpOtherwise
)

// ForExpr unrolls `for e ∈ elems op body(e)` into the right-associated
// expression tree the paper specifies. Empty sets evaluate to skip; the
// OpOtherwise form takes the timeout to use at each chaining step.
func ForExpr(op ForOp, elems []string, timeout time.Duration, body func(elem string) Expr) Expr {
	if len(elems) == 0 {
		return Skip{}
	}
	if len(elems) == 1 {
		return body(elems[0])
	}
	rest := ForExpr(op, elems[1:], timeout, body)
	head := body(elems[0])
	switch op {
	case OpSeq:
		return Seq{head, Scope{Body: []Expr{rest}}}
	case OpPar:
		return Par{head, rest}
	case OpOtherwise:
		return Otherwise{Try: head, Timeout: timeout, Handler: Scope{Body: []Expr{rest}}}
	default:
		panic(fmt.Sprintf("dsl: unknown for-op %d", op))
	}
}

// ForAll unrolls `for e ∈ elems ∧ f(e)`. The empty set yields ¬false (true),
// per the paper's empty-set rules.
func ForAll(elems []string, f func(elem string) formula.Formula) formula.Formula {
	if len(elems) == 0 {
		return formula.TrueF()
	}
	out := f(elems[0])
	for _, e := range elems[1:] {
		out = formula.And(out, f(e))
	}
	return out
}

// ForAny unrolls `for e ∈ elems ∨ f(e)`. The empty set yields false.
func ForAny(elems []string, f func(elem string) formula.Formula) formula.Formula {
	if len(elems) == 0 {
		return formula.FalseF{}
	}
	out := f(elems[0])
	for _, e := range elems[1:] {
		out = formula.Or(out, f(e))
	}
	return out
}

// ForProps unrolls `for t ∈ elems init prop ¬Base[t]` into one InitProp per
// element (paper Fig. 10 line ➊: "formation of a set from another set").
func ForProps(base string, elems []string, init bool) []Decl {
	out := make([]Decl, len(elems))
	for i, e := range elems {
		out[i] = InitProp{Name: IndexedName(base, e), Init: init}
	}
	return out
}

// ForArms unrolls a `for` inside a case expression into one arm per element.
func ForArms(elems []string, arm func(elem string) CaseArm) []CaseArm {
	out := make([]CaseArm, len(elems))
	for i, e := range elems {
		out[i] = arm(e)
	}
	return out
}
