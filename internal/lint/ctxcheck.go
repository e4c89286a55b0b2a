package lint

import (
	"go/ast"
	"go/types"
)

// CtxCheck enforces PR 3's cancellation contract in the cloud layer
// (internal/cloud and cmd/cloudd):
//
//  1. DP entry points must be the context-aware ones — dp.OptimizeCtx /
//     dp.SweepDeparturesCtx — never the context-free dp.Optimize /
//     dp.SweepDepartures, which would detach a solve from the request
//     deadline and keep it burning after the client is gone.
//  2. Handler and middleware code must not mint fresh root contexts with
//     context.Background() or context.TODO(): the request context carries
//     the deadline, and a fresh root silently discards it. The check
//     applies to any function that handles HTTP traffic (parameters
//     include http.ResponseWriter / *http.Request), builds handlers
//     (results include http.Handler / http.HandlerFunc), or already
//     receives a context.Context — plus every function literal nested in
//     one. Top-level plumbing such as main() or a graceful-shutdown
//     drain is deliberately out of scope.
var CtxCheck = &Analyzer{
	Name: "ctxcheck",
	Doc: "cloud request paths must stay on context-aware DP calls and never mint root contexts\n\n" +
		"Flags dp.Optimize/dp.SweepDepartures anywhere in internal/cloud or cmd/cloudd, and\n" +
		"context.Background()/context.TODO() inside handler or middleware call chains.",
	Run: runCtxCheck,
}

func runCtxCheck(pass *Pass) error {
	if !pathHasSegments(pass.PkgPath, "internal/cloud") && !pathHasSegments(pass.PkgPath, "cmd/cloudd") {
		return nil
	}
	inspectRequestPaths(pass, func(n ast.Node, inRequestPath bool) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		pkgPath, funcName, ok := pkgFuncOf(pass.TypesInfo, call)
		if !ok {
			return
		}
		if lastSegment(pkgPath) == "dp" && (funcName == "Optimize" || funcName == "SweepDepartures") {
			pass.Reportf(call.Pos(),
				"context-free dp.%s in cloud code: call dp.%sCtx so the request deadline cancels the solve",
				funcName, funcName)
		}
		if pkgPath == "context" && (funcName == "Background" || funcName == "TODO") && inRequestPath {
			pass.Reportf(call.Pos(),
				"context.%s() minted inside a handler/middleware chain discards the request deadline; thread the request context instead",
				funcName)
		}
	})
	return nil
}

// inspectRequestPaths walks every non-test file of the pass, calling
// visit on each node with whether the walk is inside a function (or a
// literal nested in one) whose signature marks a request path.
// Function declarations and literals themselves are not visited.
func inspectRequestPaths(pass *Pass, visit func(n ast.Node, inRequestPath bool)) {
	depth := 0 // enclosing request-path functions
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		var sig *types.Signature
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.FuncDecl:
			if fn, ok := pass.TypesInfo.Defs[n.Name].(*types.Func); ok {
				sig = fn.Type().(*types.Signature)
			}
			body = n.Body
		case *ast.FuncLit:
			sig, _ = pass.TypesInfo.Types[n].Type.(*types.Signature)
			body = n.Body
		default:
			visit(n, depth > 0)
			return true
		}
		marks := sig != nil && isRequestPathSignature(sig)
		if marks {
			depth++
		}
		if body != nil {
			ast.Inspect(body, walk)
		}
		if marks {
			depth--
		}
		return false
	}
	for _, f := range pass.Files {
		if !isTestFile(pass.Fset, f.Pos()) {
			ast.Inspect(f, walk)
		}
	}
}

// isRequestPathSignature reports whether a function signature marks
// request-path code: it serves HTTP (ResponseWriter/Request parameters),
// constructs handlers or middleware (Handler/HandlerFunc results), or
// already carries a context.Context and so has no business creating a
// fresh root.
func isRequestPathSignature(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		switch types.TypeString(sig.Params().At(i).Type(), nil) {
		case "net/http.ResponseWriter", "*net/http.Request", "context.Context":
			return true
		}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		switch types.TypeString(sig.Results().At(i).Type(), nil) {
		case "net/http.Handler", "net/http.HandlerFunc":
			return true
		}
	}
	return false
}
