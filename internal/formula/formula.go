// Package formula implements the propositional formula sub-language of the
// C-Saw DSL (metavariables F and G in Table 1 of the paper).
//
// Formulas guard junction scheduling, wait statements, verify statements and
// case arms. The package provides three-valued (ternary) evaluation — needed
// because a formula may refer to the state of a junction that is not running
// (paper §6, "Junction safety conditions") — and conversion to disjunctive
// normal form, which the event-structure semantics use to decompose a formula
// into sets of primitive read events (paper §8.3).
package formula

import (
	"fmt"
	"sort"
	"strings"
)

// Truth is a three-valued truth value. Unknown arises when a formula refers
// to a proposition of a junction that is not running.
type Truth int8

const (
	// False is definite falsehood.
	False Truth = iota
	// True is definite truth.
	True
	// Unknown means the value cannot be determined (remote junction down).
	Unknown
)

// String returns tt, ff or ?? following the paper's notation.
func (t Truth) String() string {
	switch t {
	case True:
		return "tt"
	case False:
		return "ff"
	default:
		return "??"
	}
}

// FromBool converts a Go bool to a definite Truth.
func FromBool(b bool) Truth {
	if b {
		return True
	}
	return False
}

// Not negates a ternary truth value (Kleene logic).
func (t Truth) Not() Truth {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// And combines two ternary truth values with Kleene conjunction.
func (t Truth) And(o Truth) Truth {
	if t == False || o == False {
		return False
	}
	if t == True && o == True {
		return True
	}
	return Unknown
}

// Or combines two ternary truth values with Kleene disjunction.
func (t Truth) Or(o Truth) Truth {
	if t == True || o == True {
		return True
	}
	if t == False && o == False {
		return False
	}
	return Unknown
}

// Formula is a propositional formula over named propositions.
//
//	F ::= P | false | ¬F | F1 ∧ F2 | F1 ∨ F2 | F1 → F2
//
// A proposition may optionally be qualified with a junction name (the γ@F
// form of metavariable G), in which case it is read from that junction's
// table rather than the local one.
type Formula interface {
	// Eval evaluates the formula against an environment.
	Eval(env Env) Truth
	// String renders the formula using the paper's concrete syntax.
	String() string
	// walk visits every node in the formula tree.
	walk(func(Formula))
}

// Env resolves proposition values during evaluation. junction is empty for
// local (unqualified) propositions.
type Env interface {
	// Prop returns the ternary value of proposition name at the given
	// junction ("" = local junction).
	Prop(junction, name string) Truth
}

// EnvFunc adapts a function to the Env interface.
type EnvFunc func(junction, name string) Truth

// Prop implements Env.
func (f EnvFunc) Prop(junction, name string) Truth { return f(junction, name) }

// MapEnv is an Env backed by a map of local proposition values. Missing
// propositions evaluate to Unknown; remote propositions evaluate to Unknown.
type MapEnv map[string]bool

// Prop implements Env.
func (m MapEnv) Prop(junction, name string) Truth {
	if junction != "" {
		return Unknown
	}
	v, ok := m[name]
	if !ok {
		return Unknown
	}
	return FromBool(v)
}

// Prop is an atomic proposition, optionally scoped to a junction (the γ@P
// form). Junction=="" means the proposition is read from the local table.
type Prop struct {
	Junction string
	Name     string
}

// P constructs a local proposition.
func P(name string) Prop { return Prop{Name: name} }

// At constructs a junction-qualified proposition γ@P.
func At(junction, name string) Prop { return Prop{Junction: junction, Name: name} }

// Eval implements Formula.
func (p Prop) Eval(env Env) Truth { return env.Prop(p.Junction, p.Name) }

// String implements Formula. A name that starts with '@' (the liveness
// proposition "@running") already carries the separator.
func (p Prop) String() string {
	switch {
	case p.Junction == "":
		return p.Name
	case strings.HasPrefix(p.Name, "@"):
		return p.Junction + p.Name
	}
	return p.Junction + "@" + p.Name
}

func (p Prop) walk(f func(Formula)) { f(p) }

// FalseF is the literal false formula.
type FalseF struct{}

// Eval implements Formula.
func (FalseF) Eval(Env) Truth { return False }

// String implements Formula.
func (FalseF) String() string { return "false" }

func (ff FalseF) walk(f func(Formula)) { f(ff) }

// TrueF is ¬false, provided as a convenience. The paper derives truth as
// ¬false (see the empty-set ∧ loop case, §6).
func TrueF() Formula { return NotF{FalseF{}} }

// NotF is logical negation.
type NotF struct{ F Formula }

// Not negates a formula.
func Not(f Formula) Formula { return NotF{f} }

// Eval implements Formula.
func (n NotF) Eval(env Env) Truth { return n.F.Eval(env).Not() }

// String implements Formula.
func (n NotF) String() string { return "¬" + paren(n.F) }

func (n NotF) walk(f func(Formula)) { f(n); n.F.walk(f) }

// AndF is conjunction.
type AndF struct{ L, R Formula }

// And builds a right-nested conjunction of one or more formulas.
func And(fs ...Formula) Formula { return fold(fs, func(l, r Formula) Formula { return AndF{l, r} }) }

// Eval implements Formula.
func (a AndF) Eval(env Env) Truth { return a.L.Eval(env).And(a.R.Eval(env)) }

// String implements Formula.
func (a AndF) String() string { return paren(a.L) + " ∧ " + paren(a.R) }

func (a AndF) walk(f func(Formula)) { f(a); a.L.walk(f); a.R.walk(f) }

// OrF is disjunction.
type OrF struct{ L, R Formula }

// Or builds a right-nested disjunction of one or more formulas.
func Or(fs ...Formula) Formula { return fold(fs, func(l, r Formula) Formula { return OrF{l, r} }) }

// Eval implements Formula.
func (o OrF) Eval(env Env) Truth { return o.L.Eval(env).Or(o.R.Eval(env)) }

// String implements Formula.
func (o OrF) String() string { return paren(o.L) + " ∨ " + paren(o.R) }

func (o OrF) walk(f func(Formula)) { f(o); o.L.walk(f); o.R.walk(f) }

// ImpliesF is material implication F1 → F2 ≡ ¬F1 ∨ F2.
type ImpliesF struct{ L, R Formula }

// Implies builds an implication.
func Implies(l, r Formula) Formula { return ImpliesF{l, r} }

// Eval implements Formula.
func (i ImpliesF) Eval(env Env) Truth { return i.L.Eval(env).Not().Or(i.R.Eval(env)) }

// String implements Formula.
func (i ImpliesF) String() string { return paren(i.L) + " → " + paren(i.R) }

func (i ImpliesF) walk(f func(Formula)) { f(i); i.L.walk(f); i.R.walk(f) }

func fold(fs []Formula, op func(l, r Formula) Formula) Formula {
	switch len(fs) {
	case 0:
		// For ∧ the empty fold is ¬false and for ∨ it is false (paper §6,
		// template recursion over the empty set). Callers that need that
		// distinction use the For* helpers in package dsl; here we reject.
		panic("formula: fold of zero formulas")
	case 1:
		return fs[0]
	default:
		return op(fs[0], fold(fs[1:], op))
	}
}

func paren(f Formula) string {
	switch f.(type) {
	case Prop, FalseF, NotF:
		return f.String()
	default:
		return "(" + f.String() + ")"
	}
}

// Props returns every distinct proposition mentioned in the formula, in a
// deterministic order.
func Props(f Formula) []Prop {
	seen := map[Prop]bool{}
	var out []Prop
	f.walk(func(n Formula) {
		if p, ok := n.(Prop); ok && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Junction != out[j].Junction {
			return out[i].Junction < out[j].Junction
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Literal is a possibly-negated proposition, the atom of a DNF clause.
type Literal struct {
	Prop    Prop
	Negated bool
}

// String renders the literal in concrete syntax.
func (l Literal) String() string {
	if l.Negated {
		return "¬" + l.Prop.String()
	}
	return l.Prop.String()
}

// Clause is a conjunction of literals. An empty clause is trivially true.
type Clause []Literal

// String renders the clause.
func (c Clause) String() string {
	if len(c) == 0 {
		return "⊤"
	}
	parts := make([]string, len(c))
	for i, l := range c {
		parts[i] = l.String()
	}
	return strings.Join(parts, " ∧ ")
}

// Eval evaluates the clause under an environment with Kleene conjunction.
func (c Clause) Eval(env Env) Truth {
	t := True
	for _, l := range c {
		v := l.Prop.Eval(env)
		if l.Negated {
			v = v.Not()
		}
		t = t.And(v)
	}
	return t
}

// DNF is a disjunction of clauses. An empty DNF is false.
type DNF []Clause

// String renders the DNF.
func (d DNF) String() string {
	if len(d) == 0 {
		return "false"
	}
	parts := make([]string, len(d))
	for i, c := range d {
		parts[i] = "(" + c.String() + ")"
	}
	return strings.Join(parts, " ∨ ")
}

// Eval evaluates the DNF under an environment with Kleene disjunction.
func (d DNF) Eval(env Env) Truth {
	if len(d) == 0 {
		return False
	}
	t := False
	for _, c := range d {
		t = t.Or(c.Eval(env))
	}
	return t
}

// ToDNF converts a formula to disjunctive normal form, as required by the
// event-structure semantics (paper §8.3): push negations to the leaves,
// eliminate implications, then distribute ∧ over ∨. Contradictory clauses
// (P ∧ ¬P) are dropped and duplicate literals within a clause are merged.
func ToDNF(f Formula) DNF {
	d := nnfToDNF(f, false)
	out := make(DNF, 0, len(d))
	for _, c := range d {
		if simplified, ok := simplifyClause(c); ok {
			out = append(out, simplified)
		}
	}
	return dedupeClauses(out)
}

// nnfToDNF converts a formula to DNF while pushing negation inward. neg
// tracks whether the current subformula appears under an odd number of
// negations.
func nnfToDNF(f Formula, neg bool) DNF {
	switch n := f.(type) {
	case Prop:
		return DNF{Clause{{Prop: n, Negated: neg}}}
	case FalseF:
		if neg {
			return DNF{Clause{}} // ¬false = true: one empty (trivially true) clause.
		}
		return DNF{} // false: no clauses.
	case NotF:
		return nnfToDNF(n.F, !neg)
	case AndF:
		if neg { // ¬(A ∧ B) = ¬A ∨ ¬B
			return append(nnfToDNF(n.L, true), nnfToDNF(n.R, true)...)
		}
		return distribute(nnfToDNF(n.L, false), nnfToDNF(n.R, false))
	case OrF:
		if neg { // ¬(A ∨ B) = ¬A ∧ ¬B
			return distribute(nnfToDNF(n.L, true), nnfToDNF(n.R, true))
		}
		return append(nnfToDNF(n.L, false), nnfToDNF(n.R, false)...)
	case ImpliesF:
		// A → B = ¬A ∨ B.
		return nnfToDNF(OrF{NotF{n.L}, n.R}, neg)
	default:
		panic(fmt.Sprintf("formula: unknown node %T", f))
	}
}

// distribute computes the cross product of two DNFs: (A ∨ B) ∧ (C ∨ D) =
// AC ∨ AD ∨ BC ∨ BD.
func distribute(l, r DNF) DNF {
	out := make(DNF, 0, len(l)*len(r))
	for _, cl := range l {
		for _, cr := range r {
			merged := make(Clause, 0, len(cl)+len(cr))
			merged = append(merged, cl...)
			merged = append(merged, cr...)
			out = append(out, merged)
		}
	}
	return out
}

// simplifyClause merges duplicate literals and reports false if the clause is
// contradictory (contains both P and ¬P).
func simplifyClause(c Clause) (Clause, bool) {
	polarity := map[Prop]bool{}
	var out Clause
	for _, l := range c {
		if prev, ok := polarity[l.Prop]; ok {
			if prev != l.Negated {
				return nil, false // contradiction
			}
			continue // duplicate
		}
		polarity[l.Prop] = l.Negated
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Prop.Junction != b.Prop.Junction {
			return a.Prop.Junction < b.Prop.Junction
		}
		if a.Prop.Name != b.Prop.Name {
			return a.Prop.Name < b.Prop.Name
		}
		return !a.Negated && b.Negated
	})
	if out == nil {
		out = Clause{}
	}
	return out, true
}

func dedupeClauses(d DNF) DNF {
	seen := map[string]bool{}
	out := make(DNF, 0, len(d))
	for _, c := range d {
		key := c.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, c)
	}
	return out
}
