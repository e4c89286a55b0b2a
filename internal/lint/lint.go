package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// All returns the full analyzer suite in the order cmd/evlint runs it.
func All() []*Analyzer {
	return []*Analyzer{
		CtxCheck, UnitCheck, FloatEq,
		DetCheck, ErrFlow, PurityCert,
	}
}

// ByName resolves an analyzer by its pragma/CLI name.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// pathHasSegments reports whether the slash-separated import path
// contains want ("internal/cloud", "dp", …) as a run of complete
// segments. Matching by segments, not substrings, lets fixture packages
// under testdata/src mimic real packages by path shape — e.g.
// "ctxcheck/internal/cloud/api" scopes like "evvo/internal/cloud".
func pathHasSegments(path, want string) bool {
	return strings.Contains("/"+path+"/", "/"+want+"/")
}

// anyPathSegment reports whether path matches any of scopes by
// pathHasSegments.
func anyPathSegment(path string, scopes []string) bool {
	for _, s := range scopes {
		if pathHasSegments(path, s) {
			return true
		}
	}
	return false
}

// lastSegment returns the final slash-separated element of path.
func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
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

// exprText renders an expression the way it appears in source, for
// diagnostics ("enc.Encode", "out").
func exprText(e ast.Expr) string {
	return types.ExprString(e)
}
