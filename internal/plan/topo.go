package plan

import (
	"fmt"
	"sort"
	"strings"
)

// Edge is one directed communication path between two fully-qualified
// junctions ("inst::junction" → "inst::junction").
type Edge struct {
	From string
	To   string
}

// Topology is the directed graph produced by the paper's Topo function
// (§8.7): nodes are junctions, edges indicate communication from one
// junction to another via assert/retract/write.
type Topology struct {
	Nodes []string
	Edges []Edge
}

// Topo computes the communication topology of the program from its lowered
// updates, per §8.7:
//
//	Topo = ⋃_{ι∈Instances} ⋃_{γ∈Junctions(ι)} {(γ,γ′) | γ′ ∈ Topoγ(Eγ)}
//
// An update through an idx variable contributes one edge per element of the
// idx's universe (the static over-approximation of the runtime choice
// function). An update a junction aims at itself (me::junction, or an
// element naming it) stays in its own table and draws no edge.
func (p *Program) Topo() Topology {
	nodeSet := map[string]bool{}
	edgeSet := map[Edge]bool{}
	for _, j := range p.Juncs {
		nodeSet[j.FQ] = true
		Walk(j.Body.Ops, func(o *Op, _ []*Op) {
			if o.Ref == nil {
				return
			}
			for _, t := range p.Targets(o) {
				if t != j {
					nodeSet[t.FQ] = true
					edgeSet[Edge{From: j.FQ, To: t.FQ}] = true
				}
			}
		})
	}

	topo := Topology{}
	for n := range nodeSet {
		topo.Nodes = append(topo.Nodes, n)
	}
	sort.Strings(topo.Nodes)
	for e := range edgeSet {
		topo.Edges = append(topo.Edges, e)
	}
	sort.Slice(topo.Edges, func(i, j int) bool {
		if topo.Edges[i].From != topo.Edges[j].From {
			return topo.Edges[i].From < topo.Edges[j].From
		}
		return topo.Edges[i].To < topo.Edges[j].To
	})
	return topo
}

// Dot renders the topology in Graphviz DOT format.
func (t Topology) Dot() string {
	var b strings.Builder
	b.WriteString("digraph topology {\n  rankdir=LR;\n")
	for _, n := range t.Nodes {
		fmt.Fprintf(&b, "  %q;\n", n)
	}
	for _, e := range t.Edges {
		fmt.Fprintf(&b, "  %q -> %q;\n", e.From, e.To)
	}
	b.WriteString("}\n")
	return b.String()
}

// HasEdge reports whether the topology contains the given edge.
func (t Topology) HasEdge(from, to string) bool {
	for _, e := range t.Edges {
		if e.From == from && e.To == to {
			return true
		}
	}
	return false
}
