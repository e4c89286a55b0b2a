package lint

import (
	"go/ast"
	"go/types"
)

// ErrFlow flags error results silently discarded at the wire and
// serving boundaries — gob/json Encode and Decode, Body.Close, Write,
// Flush — in the packages where an ignored error turns a corrupt table
// into a poisoned cache (internal/dp/wire.go, internal/cloud/peer.go,
// internal/cloud/server.go and their neighbours, DESIGN.md §13).
//
// The rule is narrow by design:
//
//   - only a bare expression statement discards implicitly; an explicit
//     `_ = w.Close()` is a visible, deliberate decision and passes,
//   - `defer resp.Body.Close()` passes: the deferred error is
//     unobservable at the defer site and the read path already consumed
//     the body's error channel,
//   - only calls whose result set includes an error are candidates, and
//     only for the sink names above — fmt.Fprint* to os.Stdout/os.Stderr
//     stays usable for diagnostics.
var ErrFlow = &Analyzer{
	Name: "errflow",
	Doc: "wire-boundary errors must be handled or explicitly discarded\n\n" +
		"Flags bare statements dropping the error from Encode/Decode/Close/Write/\n" +
		"WriteString/Flush (and fmt.Fprint* to non-terminal writers) in the dp, cloud,\n" +
		"cluster and neural packages; `_ =` and deferred closes pass.",
	Run: runErrFlow,
}

// errFlowScopes: packages that own wire formats or serve traffic.
var errFlowScopes = []string{
	"internal/dp", "internal/cloud", "internal/cluster", "internal/neural",
	"cmd/cloudd", "cmd/evload",
}

// errFlowSinks are the method names whose dropped error loses data.
var errFlowSinks = map[string]bool{
	"Close": true, "Encode": true, "Decode": true,
	"Write": true, "WriteString": true, "Flush": true,
}

func runErrFlow(pass *Pass) error {
	if !anyPathSegment(pass.PkgPath, errFlowScopes) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := streamSink(pass.TypesInfo, call, errFlowSinks); ok && callReturnsError(pass, call) {
				pass.Reportf(call.Pos(),
					"error from %s silently discarded at a wire boundary: handle it, or discard explicitly with `_ =` so the decision is visible",
					name)
			}
			return true
		})
	}
	return nil
}

// callReturnsError reports whether the call's result set includes an
// error (hash.Hash.Write does — its contract says it never fails, but an
// explicit `_, _ =` documents that the caller knows).
func callReturnsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.TypesInfo.Types[call].Type
	if t == nil {
		return false
	}
	switch t := t.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	return types.TypeString(t, nil) == "error"
}
