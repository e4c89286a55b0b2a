package lint

// CtxProp is the transitive completion of ctxcheck: in the serving
// packages, a function that HAS the request context (a context.Context
// or *http.Request parameter) must not reach a blocking operation
// through a call chain that drops it. ctxcheck polices the entry
// discipline (handlers use the *Ctx DP entrypoints, no fresh root
// contexts mid-chain); ctxprop walks the summaries to find the chains
// where the deadline cannot possibly arrive — a ctx-less helper that
// (transitively) parks on a channel, sleeps, or performs HTTP.
//
// The finding is reported at the call site where the context is
// dropped — the first edge from a ctx-carrying function into a ctx-less
// blocking chain — because that is where the fix goes: thread the ctx
// one level further. The witness chain names the operation at the
// bottom.
//
// Deliberately NOT findings:
//   - sync.WaitGroup/Cond waits: joining workers that carry the ctx
//     themselves (par.ForEach) is the blessed bounded fan-out shape;
//   - blocking inside `go` statements and function literals: the spawned
//     goroutine parks, not the request path (goleak polices joins);
//   - ctx-carrying callees: whatever they block on is their own
//     finding, in their own package, at their own dropping call site.
var CtxProp = &Analyzer{
	Name: "ctxprop",
	Doc: "request-path call chains must thread the context all the way to every blocking operation\n\n" +
		"Flags call sites in the serving packages where a function holding a\n" +
		"context.Context (or *http.Request) calls into a context-less chain that may\n" +
		"block on channels, select, time.Sleep or HTTP — the deadline cannot reach the\n" +
		"block. Reported at the dropping call site, with the chain to the operation.",
	Run: runCtxProp,
}

// ctxPropScopes are the path segments where deadline propagation is a
// serving-contract requirement.
var ctxPropScopes = []string{"cloud", "cloudd"}

func runCtxProp(pass *Pass) error {
	if pass.Prog == nil || !anyPathSegment(pass.PkgPath, ctxPropScopes) {
		return nil
	}
	for _, n := range pass.Prog.order {
		if n.pkg.PkgPath != pass.PkgPath || !n.sum.hasCtx {
			continue
		}
		reported := make(map[int]bool) // dedupe by call-site offset
		for _, cs := range n.calls {
			if cs.noBlock || cs.target == nil {
				continue
			}
			callee := cs.target.sum
			if callee.unguarded == nil || callee.hasCtx {
				continue
			}
			if reported[int(cs.pos)] {
				continue
			}
			reported[int(cs.pos)] = true
			chain := pass.Prog.chainString(cs.callee, callee.unguarded)
			pass.Reportf(cs.pos,
				"%s holds the request context but calls %s, a context-less chain that may block (%s via %s); thread ctx through %s so the deadline reaches the block",
				funcDisplayName(n.fn), funcDisplayName(cs.callee),
				callee.unguarded.what, chain, funcDisplayName(cs.callee))
		}
	}
	return nil
}
