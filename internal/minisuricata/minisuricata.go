// Package minisuricata is a from-scratch network-security-monitoring engine
// standing in for the Suricata evaluation target (paper §2): it implements
// the graph-based packet-handling abstraction ("reminiscent of Click") —
// packet analysis and threat-detection tasks interconnected in a processing
// graph — plus a 5-tuple flow table, signature rules, engine-state
// snapshot/restore for the checkpoint/fail-over architectures, and the
// 5-tuple hashing used for flow-level packet steering across back-end
// engines.
package minisuricata

import (
	"bytes"
	"errors"
	"fmt"

	"csaw/internal/serial"
	"csaw/internal/workload"
)

// Verdict is the outcome of processing one packet.
type Verdict uint8

// Verdicts.
const (
	// Pass lets the packet through.
	Pass Verdict = iota
	// Alert flags the packet and lets it through.
	Alert
	// Drop discards the packet.
	Drop
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Pass:
		return "pass"
	case Alert:
		return "alert"
	case Drop:
		return "drop"
	default:
		return fmt.Sprintf("verdict(%d)", v)
	}
}

// Context carries per-packet state through the graph.
type Context struct {
	Engine  *Engine
	Flow    *FlowState
	Alerts  []string
	verdict Verdict
}

// Node is one vertex of the processing graph. Process returns the output
// port to route the packet to; port -1 terminates the pipeline with the
// context's current verdict.
type Node interface {
	Name() string
	Process(ctx *Context, p *workload.Packet) int
}

// Graph is the Click-like packet-processing graph: named nodes and
// port-indexed edges.
type Graph struct {
	nodes map[string]Node
	order []string
	edges map[string]map[int]string
	entry string
}

// NewGraph creates an empty graph.
func NewGraph() *Graph {
	return &Graph{nodes: map[string]Node{}, edges: map[string]map[int]string{}}
}

// AddNode registers a node; the first node added is the entry point.
func (g *Graph) AddNode(n Node) *Graph {
	name := n.Name()
	if _, dup := g.nodes[name]; !dup {
		g.order = append(g.order, name)
	}
	g.nodes[name] = n
	if g.entry == "" {
		g.entry = name
	}
	return g
}

// Connect wires from's output port to the node named to.
func (g *Graph) Connect(from string, port int, to string) *Graph {
	m, ok := g.edges[from]
	if !ok {
		m = map[int]string{}
		g.edges[from] = m
	}
	m[port] = to
	return g
}

// Validate checks the graph: entry exists, every edge endpoint exists, and
// the graph is acyclic (packets cannot loop).
func (g *Graph) Validate() error {
	if g.entry == "" {
		return errors.New("minisuricata: empty graph")
	}
	for from, ports := range g.edges {
		if _, ok := g.nodes[from]; !ok {
			return fmt.Errorf("minisuricata: edge from unknown node %q", from)
		}
		for port, to := range ports {
			if _, ok := g.nodes[to]; !ok {
				return fmt.Errorf("minisuricata: edge %s:%d to unknown node %q", from, port, to)
			}
		}
	}
	// Cycle check via DFS over all ports.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var dfs func(string) error
	dfs = func(n string) error {
		color[n] = grey
		for _, to := range g.edges[n] {
			switch color[to] {
			case grey:
				return fmt.Errorf("minisuricata: cycle through %q", to)
			case white:
				if err := dfs(to); err != nil {
					return err
				}
			}
		}
		color[n] = black
		return nil
	}
	for _, n := range g.order {
		if color[n] == white {
			if err := dfs(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// FlowState is the tracked state of one 5-tuple flow.
type FlowState struct {
	Key     string
	Packets uint64
	Bytes   uint64
	Alerts  uint64
}

// Rule is one detection signature: a payload substring with an identifier.
type Rule struct {
	ID      int
	Pattern string
	Msg     string
}

// Stats aggregates engine counters.
type Stats struct {
	Packets uint64
	Bytes   uint64
	Alerts  uint64
	Dropped uint64
}

// engineImage is the serialized engine state for checkpointing.
type engineImage struct {
	Flows []FlowState
	Stats Stats
}

// Engine is one single-threaded processing engine (one Suricata worker).
type Engine struct {
	graph *Graph
	rules []Rule
	flows map[string]*FlowState
	stats Stats
}

// NewEngine builds an engine over the given graph and rule set. The graph
// must validate.
func NewEngine(g *Graph, rules []Rule) (*Engine, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Engine{graph: g, rules: rules, flows: map[string]*FlowState{}}, nil
}

// DefaultGraph builds the standard decode → flow → detect → output chain.
func DefaultGraph() *Graph {
	g := NewGraph()
	g.AddNode(&DecodeNode{}).AddNode(&FlowNode{}).AddNode(&DetectNode{}).AddNode(&OutputNode{})
	g.Connect("decode", 0, "flow")
	g.Connect("flow", 0, "detect")
	g.Connect("detect", 0, "output")
	return g
}

// DefaultRules match the synthetic trace's suspicious payloads.
func DefaultRules() []Rule {
	return []Rule{
		{ID: 1, Pattern: "EVIL", Msg: "synthetic malware beacon"},
		{ID: 2, Pattern: "/etc/passwd", Msg: "credential file access"},
	}
}

// NewDefaultEngine is the common construction.
func NewDefaultEngine() *Engine {
	e, err := NewEngine(DefaultGraph(), DefaultRules())
	if err != nil {
		panic(err) // DefaultGraph is statically valid
	}
	return e
}

// ProcessPacket runs one packet through the graph and returns its verdict.
func (e *Engine) ProcessPacket(p *workload.Packet) Verdict {
	ctx := &Context{Engine: e}
	cur := e.graph.entry
	for {
		node := e.graph.nodes[cur]
		port := node.Process(ctx, p)
		if port < 0 {
			break
		}
		next, ok := e.graph.edges[cur][port]
		if !ok {
			break
		}
		cur = next
	}
	e.stats.Packets++
	e.stats.Bytes += uint64(p.Len)
	switch ctx.verdict {
	case Alert:
		e.stats.Alerts++
	case Drop:
		e.stats.Dropped++
	}
	return ctx.verdict
}

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// Flows returns the number of tracked flows.
func (e *Engine) Flows() int { return len(e.flows) }

// FlowStats returns a copy of one flow's state.
func (e *Engine) FlowStats(key string) (FlowState, bool) {
	f, ok := e.flows[key]
	if !ok {
		return FlowState{}, false
	}
	return *f, true
}

// Snapshot serializes the engine state (flow table + counters) — the
// continuous-checkpoint primitive of the availability+diagnostics use-case
// (paper §2).
func (e *Engine) Snapshot() ([]byte, error) {
	img := engineImage{Stats: e.stats}
	img.Flows = make([]FlowState, 0, len(e.flows))
	for _, f := range e.flows {
		img.Flows = append(img.Flows, *f)
	}
	return serial.Marshal(img)
}

// Restore replaces the engine state from a snapshot.
func (e *Engine) Restore(data []byte) error {
	var img engineImage
	if err := serial.Unmarshal(data, &img); err != nil {
		return err
	}
	e.stats = img.Stats
	e.flows = make(map[string]*FlowState, len(img.Flows))
	for i := range img.Flows {
		f := img.Flows[i]
		e.flows[f.Key] = &f
	}
	return nil
}

// ShardFor hashes a packet's 5-tuple onto one of n back-ends — the
// packet-steering policy layer of the Suricata sharding reconfiguration
// (paper §10.1: "The 5-tuple of each packet ... is hashed to determine which
// of four back-end Suricata instances should process it").
func ShardFor(p *workload.Packet, n int) int {
	if n <= 0 {
		return 0
	}
	return int(workload.Djb2(p.Flow.FiveTupleKey())) % n
}

// --- standard nodes ------------------------------------------------------------

// DecodeNode validates basic packet well-formedness.
type DecodeNode struct{}

// Name implements Node.
func (*DecodeNode) Name() string { return "decode" }

// Process implements Node.
func (*DecodeNode) Process(ctx *Context, p *workload.Packet) int {
	if p.Len <= 0 || p.Len > 65535 {
		ctx.verdict = Drop
		return -1
	}
	return 0
}

// FlowNode tracks per-5-tuple flow state.
type FlowNode struct{}

// Name implements Node.
func (*FlowNode) Name() string { return "flow" }

// Process implements Node.
func (*FlowNode) Process(ctx *Context, p *workload.Packet) int {
	key := p.Flow.FiveTupleKey()
	f, ok := ctx.Engine.flows[key]
	if !ok {
		f = &FlowState{Key: key}
		ctx.Engine.flows[key] = f
	}
	f.Packets++
	f.Bytes += uint64(p.Len)
	ctx.Flow = f
	return 0
}

// DetectNode matches the rule set against packet payloads.
type DetectNode struct{}

// Name implements Node.
func (*DetectNode) Name() string { return "detect" }

// Process implements Node.
func (*DetectNode) Process(ctx *Context, p *workload.Packet) int {
	for _, r := range ctx.Engine.rules {
		if bytes.Contains(p.Payload, []byte(r.Pattern)) {
			ctx.Alerts = append(ctx.Alerts, r.Msg)
			ctx.verdict = Alert
			if ctx.Flow != nil {
				ctx.Flow.Alerts++
			}
		}
	}
	return 0
}

// OutputNode terminates the pipeline.
type OutputNode struct{}

// Name implements Node.
func (*OutputNode) Name() string { return "output" }

// Process implements Node.
func (*OutputNode) Process(ctx *Context, p *workload.Packet) int { return -1 }
