package lint

import (
	"go/token"
	"sort"
	"strings"
)

// LockOrder flags cycles in the whole-program lock-acquisition-order
// graph — the cross-file deadlock class lockheld cannot see. Every
// function summary (summary.go) records the order edges its body
// establishes: "class B acquired while class A is held", including the
// edge formed when a function holding A calls a helper whose summary
// says it acquires B. The analyzer assembles those edges into one graph
// per invocation and reports every edge that lies on a cycle, at the
// position that established it — so a cloud→cluster nesting and the
// inverse cluster→cloud nesting each get a finding in their own file,
// and a //lint:allow waiver attaches to the exact acquisition site.
//
// Lock classes abstract instances: all values of a struct field (e.g.
// cloud.Server.mu) are one class. Self-edges (re-acquiring the same
// class, e.g. RLock on a shared table from two levels) are lockheld's
// and the runtime's business, not an order violation, and are skipped.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "lock classes must be acquired in a globally consistent order (no cycles across functions or packages)\n\n" +
		"Builds the whole-program lock-order graph from the interprocedural function\n" +
		"summaries and flags every acquisition edge that participates in a cycle,\n" +
		"including edges formed by calling a lock-taking helper while holding a lock.",
	Run: runLockOrder,
}

// lockGraph is the whole-program acquisition-order graph, built once per
// invocation and cached on the Program.
type lockGraph struct {
	// edges maps from-class -> to-class -> the witness that established
	// the edge (first establishment in deterministic function order).
	edges map[string]map[string]*lockEdgeSite
	// cyclic holds the set of classes on some cycle (non-trivial SCCs of
	// the class graph).
	cyclic map[string]bool
}

// lockEdgeSite records where an order edge was established and by whom.
type lockEdgeSite struct {
	pos token.Pos
	pkg string // PkgPath owning the position — the package that reports it
	fn  string // display name of the establishing function
}

func runLockOrder(pass *Pass) error {
	if pass.Prog == nil {
		return nil
	}
	g := pass.Prog.lockOrderGraph()
	// Report, in this package only, every edge on a cycle.
	type finding struct {
		site     *lockEdgeSite
		from, to string
	}
	var findings []finding
	for _, from := range sortedKeys(g.edges) {
		if !g.cyclic[from] {
			continue
		}
		for _, to := range sortedKeys(g.edges[from]) {
			if !g.cyclic[to] || !onCommonCycle(g, from, to) {
				continue
			}
			site := g.edges[from][to]
			if site.pkg != pass.PkgPath {
				continue
			}
			findings = append(findings, finding{site, from, to})
		}
	}
	for _, f := range findings {
		cycle := g.cyclePath(f.from, f.to)
		pass.Reportf(f.site.pos,
			"lock order cycle: %s acquires %s while holding %s, but elsewhere the order is reversed (cycle: %s); pick one global order",
			f.site.fn, f.to, f.from, cycle)
	}
	return nil
}

// lockOrderGraph builds (once) and returns the Program's lock graph.
func (p *Program) lockOrderGraph() *lockGraph {
	if p.lockGraph != nil {
		return p.lockGraph
	}
	g := &lockGraph{edges: make(map[string]map[string]*lockEdgeSite), cyclic: make(map[string]bool)}
	for _, n := range p.order { // deterministic (position) order: first establisher wins
		for _, key := range sortedKeys(n.sum.lockEdges) {
			parts := strings.SplitN(key, "\x00", 2)
			from, to := parts[0], parts[1]
			if g.edges[from] == nil {
				g.edges[from] = make(map[string]*lockEdgeSite)
			}
			if g.edges[from][to] == nil {
				g.edges[from][to] = &lockEdgeSite{
					pos: n.sum.lockEdges[key].pos,
					pkg: n.pkg.PkgPath,
					fn:  funcDisplayName(n.fn),
				}
			}
		}
	}
	g.markCycles()
	p.lockGraph = g
	return g
}

// markCycles marks every class that can reach itself through one or more
// edges (i.e. lies on a directed cycle).
func (g *lockGraph) markCycles() {
	for _, start := range sortedKeys(g.edges) {
		if g.reaches(start, start) {
			g.cyclic[start] = true
		}
	}
}

// reaches reports whether dst is reachable from src via one or more
// edges.
func (g *lockGraph) reaches(src, dst string) bool {
	seen := make(map[string]bool)
	var stack []string
	for next := range g.edges[src] {
		stack = append(stack, next)
	}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c == dst {
			return true
		}
		if seen[c] {
			continue
		}
		seen[c] = true
		for next := range g.edges[c] {
			stack = append(stack, next)
		}
	}
	return false
}

// onCommonCycle reports whether the edge from→to closes a cycle: to can
// reach from again.
func onCommonCycle(g *lockGraph, from, to string) bool {
	return g.reaches(to, from)
}

// cyclePath renders one concrete cycle through the edge from→to, for
// the diagnostic: "A -> B -> A".
func (g *lockGraph) cyclePath(from, to string) string {
	// BFS from `to` back to `from` for a shortest return path.
	type hop struct {
		class string
		prev  *hop
	}
	queue := []*hop{{class: to}}
	seen := map[string]bool{to: true}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if h.class == from {
			// The prev chain reads from→…→to; reverse it to render the
			// forward return path, then prefix the edge's own tail.
			var back []string
			for x := h; x != nil; x = x.prev {
				back = append(back, x.class)
			}
			for i, j := 0, len(back)-1; i < j; i, j = i+1, j-1 {
				back[i], back[j] = back[j], back[i]
			}
			parts := append([]string{from}, back...)
			return strings.Join(parts, " -> ")
		}
		for _, next := range sortedKeys(g.edges[h.class]) {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, &hop{class: next, prev: h})
			}
		}
	}
	return from + " -> " + to + " -> ... -> " + from
}

// sortedKeys returns the map's keys in sorted order (deterministic
// iteration over a map of edges — detcheck's own rule, honored here).
func sortedKeys[V any](m map[string]V) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
