// Package callgraph builds caller→callee graphs from gprof arc records and
// implements instrumentation-site promotion — the paper's named improvement
// path ("we have ongoing experiments with using the call-graph profile data
// to improve the results", §IV; "extending the discovery analysis to use the
// call-graph structure might be a way to improve it and select our site,
// which is higher up in the call graph", §VI-B).
//
// Promotion walks a selected site upward along unique-caller chains: a
// function with exactly one caller is, for instrumentation purposes,
// equivalent to that caller (every execution is on the caller's behalf), and
// the caller is usually the more meaningful source-level name. Walks stop at
// roots (functions nobody calls, e.g. main), at fan-in (multiple callers),
// at hot callers (called much more often than the site, the utility-function
// smell Algorithm 1 avoids), and after three steps.
package callgraph

import (
	"sort"

	"github.com/incprof/incprof/internal/profile"
)

// Node is one function in the call graph.
type Node struct {
	Name string
	// Callers maps caller name to arc count (calls of this node by that
	// caller).
	Callers map[string]int64
	// Callees maps callee name to arc count.
	Callees map[string]int64
}

// InCalls returns the total number of times the node was called.
func (n *Node) InCalls() int64 {
	var t int64
	for _, c := range n.Callers {
		t += c
	}
	return t
}

// Graph is a call graph with arc counts.
type Graph struct {
	nodes map[string]*Node
}

// FromArcs builds a graph from gprof arc records; duplicate arcs accumulate.
func FromArcs(arcs []profile.Arc) *Graph {
	g := &Graph{nodes: make(map[string]*Node)}
	for _, a := range arcs {
		g.node(a.Caller).Callees[a.Callee] += a.Count
		g.node(a.Callee).Callers[a.Caller] += a.Count
	}
	return g
}

// FromSnapshot builds a graph from a snapshot's arcs.
func FromSnapshot(s *profile.Sample) *Graph { return FromArcs(s.Arcs) }

func (g *Graph) node(name string) *Node {
	n, ok := g.nodes[name]
	if !ok {
		n = &Node{Name: name, Callers: make(map[string]int64), Callees: make(map[string]int64)}
		g.nodes[name] = n
	}
	return n
}

// Node returns the named node, or nil if the function never appears in an
// arc.
func (g *Graph) Node(name string) *Node { return g.nodes[name] }

// Names returns all function names in the graph, sorted.
func (g *Graph) Names() []string {
	out := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Roots returns functions with no callers (entry points), sorted.
func (g *Graph) Roots() []string {
	var out []string
	for name, n := range g.nodes {
		if len(n.Callers) == 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// UniqueCaller returns the node's sole caller and true when it has exactly
// one.
func (g *Graph) UniqueCaller(name string) (string, bool) {
	n := g.nodes[name]
	if n == nil || len(n.Callers) != 1 {
		return "", false
	}
	for caller := range n.Callers {
		return caller, true
	}
	return "", false
}

// The promotion walk's bounds.
const (
	// maxHops bounds the walk length.
	maxHops = 3
	// maxCallRatio rejects a promotion when the caller is called more than
	// this factor as often as the current function (a busier parent is a
	// worse heartbeat site): the caller must be called no more often than
	// the site.
	maxCallRatio = 1.0
)

// PromoteOptions tunes site promotion.
type PromoteOptions struct {
	// Exclude rejects specific functions as promotion targets (e.g.
	// "main", MPI wrappers). Roots are always excluded.
	Exclude func(name string) bool
}

// Promote walks fn upward along unique-caller chains and returns the
// highest acceptable ancestor; it returns fn itself when no promotion
// applies.
func (g *Graph) Promote(fn string, opts PromoteOptions) string {
	cur := fn
	for hop := 0; hop < maxHops; hop++ {
		caller, ok := g.UniqueCaller(cur)
		if !ok {
			break
		}
		callerNode := g.nodes[caller]
		if len(callerNode.Callers) == 0 {
			// The caller is a root (main): instrumenting it tells
			// you nothing about phases.
			break
		}
		if opts.Exclude != nil && opts.Exclude(caller) {
			break
		}
		curCalls := g.nodes[cur].InCalls()
		callerCalls := callerNode.InCalls()
		if curCalls > 0 && float64(callerCalls) > maxCallRatio*float64(curCalls) {
			break
		}
		cur = caller
	}
	return cur
}
