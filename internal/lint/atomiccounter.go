package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicCounter enforces the concurrency contract around internal/par
// and internal/metrics:
//
//  1. Code running concurrently — a function literal handed to
//     par.ForEach, or the body of a go statement — must not write bare
//     captured variables. The blessed patterns are sync/atomic, the
//     metrics API, a mutex held around the write, or par's own
//     index-addressed contract ("each fn(i) writes only slot i"), which
//     is why slice/array element writes are allowed while captured map
//     writes (never index-safe) are not.
//  2. metrics.Counter / metrics.LabeledCounter values must be mutated
//     through their methods everywhere; overwriting one wholesale
//     (s.requests = metrics.Counter{}) resets it non-atomically and
//     copies its internal lock.
//
// The mutex heuristic is deliberately simple: a worker body that calls
// .Lock() before the write is trusted (the race detector in `make race`
// remains the ground truth); everything else must be atomic or
// index-addressed.
var AtomicCounter = &Analyzer{
	Name: "atomiccounter",
	Doc: "concurrent workers must mutate shared state via sync/atomic, the metrics API, or index-addressed slots\n\n" +
		"Flags bare captured-variable writes (and captured map writes) inside par.ForEach\n" +
		"workers and go-statement bodies, and wholesale overwrites of metrics counters.",
	Run: runAtomicCounter,
}

func runAtomicCounter(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isParForEach(pass, n) && len(n.Args) == 3 {
					if lit, ok := n.Args[2].(*ast.FuncLit); ok {
						checkWorkerBody(pass, lit, "par.ForEach worker")
					}
				}
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkWorkerBody(pass, lit, "goroutine")
				}
			case *ast.AssignStmt:
				checkCounterOverwrite(pass, n)
			}
			return true
		})
	}
	return nil
}

// isParForEach matches calls to the par package's ForEach (by final
// import-path segment, so fixtures can provide their own par package).
func isParForEach(pass *Pass, call *ast.CallExpr) bool {
	pkgPath, funcName, ok := pkgFuncOf(pass.TypesInfo, call)
	return ok && lastSegment(pkgPath) == "par" && funcName == "ForEach"
}

// checkWorkerBody flags writes to captured state inside a concurrently
// executed function literal.
func checkWorkerBody(pass *Pass, lit *ast.FuncLit, kind string) {
	lockSeen := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // nested literals are the inner worker's business
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Lock" {
				lockSeen = true
			}
		case *ast.IncDecStmt:
			checkWorkerWrite(pass, lit, n.X, lockSeen, kind)
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				checkWorkerWrite(pass, lit, lhs, lockSeen, kind)
			}
		}
		return true
	})
}

// checkWorkerWrite applies the write rules to one assignment target.
func checkWorkerWrite(pass *Pass, lit *ast.FuncLit, target ast.Expr, lockHeld bool, kind string) {
	if lockHeld {
		return // mutex discipline assumed; `make race` keeps it honest
	}
	target = unparen(target)
	if idx, ok := target.(*ast.IndexExpr); ok {
		// Index-addressed slice/array slots are par's contract; maps are
		// not index-safe and fall through to the captured-write check.
		if !isMap(pass.TypesInfo, idx.X) {
			return
		}
		target = idx.X
	}
	root := rootIdent(target)
	if root == nil {
		return
	}
	obj := pass.TypesInfo.Uses[root]
	if obj == nil {
		obj = pass.TypesInfo.Defs[root]
	}
	if obj == nil || isDeclaredWithin(obj, lit) {
		return
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return
	}
	pass.Reportf(target.Pos(),
		"captured %q written inside a %s without synchronization: use sync/atomic, the metrics API, a mutex, or an index-addressed slot",
		root.Name, kind)
}

// checkCounterOverwrite flags wholesale assignment to a metrics counter.
func checkCounterOverwrite(pass *Pass, assign *ast.AssignStmt) {
	if assign.Tok != token.ASSIGN {
		return
	}
	for _, lhs := range assign.Lhs {
		t := pass.TypesInfo.Types[lhs].Type
		if t == nil {
			continue
		}
		name := types.TypeString(t, nil)
		if strings.HasSuffix(name, "metrics.Counter") || strings.HasSuffix(name, "metrics.LabeledCounter") {
			pass.Reportf(lhs.Pos(),
				"metrics counter overwritten wholesale; counters are mutated only through their API (Inc/Add)")
		}
	}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// isMap reports whether e has map type.
func isMap(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// rootIdent walks to the base identifier of an lvalue chain:
// (*p).f.g[i] → p.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// isDeclaredWithin reports whether obj's declaration lies inside the
// function literal (parameters included): such writes are worker-local.
func isDeclaredWithin(obj types.Object, lit *ast.FuncLit) bool {
	return obj.Pos() >= lit.Pos() && obj.Pos() <= lit.Body.End()
}
