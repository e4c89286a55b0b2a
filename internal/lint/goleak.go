package lint

import (
	"go/ast"
	"go/token"
)

// GoLeak flags goroutines launched from request-path functions with no
// visible join or cancellation edge. A handler that fires
// `go doWork()` and returns leaks one goroutine per request — at the
// fleet traffic the ROADMAP targets that is an unbounded background
// population no deadline can reap (the pattern PR 3 closed by hand in
// the DP workers, now enforced mechanically).
//
// A goroutine body counts as joined/cancellable when it contains any of:
//
//   - a WaitGroup Done (directly or deferred) — the launcher Waits,
//   - a send on, close of, or receive from a channel — a rendezvous the
//     launcher (or a drain path) observes,
//   - a select statement or a ctx.Done()-style call — a stop signal.
//
// Only `go func(){...}()` literals are analyzed: a named function's body
// is outside this intra-procedural pass, so `go helper()` is not judged
// (and not flagged).
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc: "request-path goroutines need a join or cancellation edge\n\n" +
		"Flags go-statement function literals inside handler/middleware/ctx-carrying\n" +
		"functions whose body has no WaitGroup.Done, channel send/close/receive, or\n" +
		"select/ctx stop edge reachable.",
	Run: runGoLeak,
}

func runGoLeak(pass *Pass) error {
	inspectRequestPaths(pass, func(n ast.Node, inRequestPath bool) {
		g, ok := n.(*ast.GoStmt)
		if !ok || !inRequestPath {
			return
		}
		if lit, ok := g.Call.Fun.(*ast.FuncLit); ok && !hasJoinOrCancelEdge(lit.Body) {
			pass.Reportf(g.Pos(),
				"goroutine launched in a request-path function without a join or cancellation edge: add a WaitGroup.Done, a channel rendezvous, or a ctx-derived stop")
		}
	})
	return nil
}

// hasJoinOrCancelEdge scans a goroutine body (nested literals included —
// an edge anywhere in the tree is taken as the launcher's discipline)
// for evidence the goroutine is joined or cancellable.
func hasJoinOrCancelEdge(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			// range over a channel is a receive; range over other types
			// is not evidence, but distinguishing needs type info the
			// caller has — a plain range is common enough that treating
			// it as evidence would mask real leaks, so only the explicit
			// forms above count. Nothing to do here.
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "close" {
					found = true
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Done" || fun.Sel.Name == "Wait" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
