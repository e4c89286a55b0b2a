package lint

// HotAlloc guards the zero-alloc steady-state claims that the
// AllocsPerRun tests pin at runtime (DP relaxation/commit, neural
// epoch kernels): any function reachable from a `//lint:hot`-marked
// function must not contain allocation sites — make/new/append, slice
// and map composite literals, and fmt calls (which box their operands
// into interfaces).
//
// Findings land at the exact allocation site, in the package that owns
// it, so a `//lint:allow hotalloc <reason>` waiver attaches precisely
// (the canonical waiver: a cold-start path inside a hot-reachable
// function that the steady state never takes). A hot-reachable callee
// in another package reports in its own package — the whole-repo run
// sees every site exactly once.
//
// Out of reach, by design: allocations behind dynamic calls (function
// values, interface methods — the summaries mark callers Dynamic
// instead), and struct VALUE literals (stack-allocated unless escape
// analysis decides otherwise, which a source-only linter cannot see).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "functions reachable from //lint:hot loops must not allocate\n\n" +
		"Walks the call graph from //lint:hot-annotated functions (DP relaxation,\n" +
		"neural row kernels) and flags every reachable allocation site: make/new/append,\n" +
		"slice and map literals, fmt boxing. Pin the steady state statically, before the\n" +
		"AllocsPerRun tests catch it at runtime.",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	if pass.Prog == nil {
		return nil
	}
	reach := pass.Prog.hotReachable()
	if len(reach) == 0 {
		return nil
	}
	for _, n := range pass.Prog.order {
		if n.pkg.PkgPath != pass.PkgPath {
			continue
		}
		root, ok := reach[n]
		if !ok {
			continue
		}
		via := ""
		if root != funcDisplayName(n.fn) {
			via = " (reachable from //lint:hot " + root + ")"
		}
		for _, site := range n.sum.sites.allocs {
			pass.Reportf(site.pos,
				"%s in %s%s: hot-path functions must not allocate; hoist the allocation to setup or scratch state",
				site.what, funcDisplayName(n.fn), via)
		}
	}
	return nil
}

// hotReachable returns (building once) the set of functions reachable
// from a //lint:hot root, each mapped to the display name of the first
// root (in deterministic position order) that reaches it.
func (p *Program) hotReachable() map[*fnode]string {
	if p.hotReach != nil {
		return p.hotReach
	}
	reach := make(map[*fnode]string)
	for _, n := range p.order {
		if !n.sum.hot {
			continue
		}
		root := funcDisplayName(n.fn)
		stack := []*fnode{n}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, seen := reach[cur]; seen {
				continue
			}
			reach[cur] = root
			for _, cs := range cur.calls {
				if cs.target != nil {
					stack = append(stack, cs.target)
				}
			}
		}
	}
	p.hotReach = reach
	return reach
}
