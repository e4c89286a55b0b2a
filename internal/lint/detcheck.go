package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetCheck enforces the repo's determinism contract (DESIGN.md §6, §12,
// §13, §14) in the numeric and serving packages — dp, neural, cloud,
// cluster, metrics — where every degraded path must return bit-identical
// plans and every wire artifact must fingerprint identically run to run:
//
//  1. Ranging over a map while appending to, or float-accumulating into,
//     state declared outside the loop — or while serializing entries —
//     produces run-to-run-varying output (Go randomizes map iteration
//     order). The blessed fix is `for _, k := range stable.SortedKeys(m)`
//     (internal/stable). Commutative folds are exempt: integer += tallies
//     and map→map copies do not observe order.
//  2. Top-level math/rand sources seeded from the clock
//     (rand.New(rand.NewSource(time.Now().UnixNano()))) make whole-process
//     behaviour nondeterministic; sources must take an explicit seed.
//  3. Calls to math/rand's package-level functions draw from the global,
//     effectively clock-seeded stream; thread a seeded *rand.Rand.
//  4. The pure solver packages (dp, neural, queue) must not read the wall
//     clock: time.Now() there makes a solve depend on when it ran.
//     Timestamps enter as parameters.
var DetCheck = &Analyzer{
	Name: "detcheck",
	Doc: "map-order, rand-seed, and wall-clock nondeterminism must stay out of the numeric and serving packages\n\n" +
		"Flags order-dependent accumulation/serialization inside map ranges (use\n" +
		"stable.SortedKeys), clock-seeded or global math/rand sources, and time.Now()\n" +
		"in pure solver packages (dp, neural, queue).",
	Run: runDetCheck,
}

// detCheckScopes are the packages where map-order and rand hazards are
// correctness bugs, matched as complete path segments so fixture packages
// mimic real ones by shape.
var detCheckScopes = []string{"dp", "neural", "cloud", "cluster", "metrics"}

// detPureSolvers are packages whose output must be a pure function of
// their inputs: no wall-clock reads at all.
var detPureSolvers = map[string]bool{"dp": true, "neural": true, "queue": true}

// globalRandFns are math/rand package-level functions that draw from the
// shared global source.
var globalRandFns = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
}

// runDetCheck reports rules 1 (folds), 3 and 4 from the direct sites the
// summary layer scanned (scanSites): each function's own, plus those of
// the package-level var initializers, scanned here with the same
// classifier. Map-range serialization and clock-seeded top-level
// sources are matched locally.
func runDetCheck(pass *Pass) error {
	inScope := anyPathSegment(pass.PkgPath, detCheckScopes)
	pureSolver := detPureSolvers[lastSegment(pass.PkgPath)]
	if pass.Prog == nil || !inScope && !pureSolver {
		return nil
	}
	report := func(ds *directSites) {
		if inScope {
			for _, h := range ds.effects[effMapOrder] {
				if strings.HasPrefix(h.what, "append") {
					pass.Reportf(h.pos,
						"append into %q while ranging a map accumulates in nondeterministic order; iterate stable.SortedKeys (internal/stable) or sort the result where it is built",
						h.arg)
				} else {
					pass.Reportf(h.pos,
						"float accumulation into %q while ranging a map is order-sensitive (FP addition does not commute bit-exactly); iterate stable.SortedKeys (internal/stable)",
						h.arg)
				}
			}
			for _, r := range ds.effects[effRand] {
				pass.Reportf(r.pos,
					"rand.%s draws from the global math/rand source (clock-seeded, process-wide): thread a seeded *rand.Rand instead",
					r.arg)
			}
		}
		if pureSolver {
			for _, c := range ds.effects[effTime] {
				if c.arg == "Now" {
					pass.Reportf(c.pos,
						"time.Now() in pure solver package %s makes the solve depend on when it ran; take the timestamp as a parameter",
						lastSegment(pass.PkgPath))
				}
			}
		}
	}
	for _, n := range pass.Prog.order {
		if n.pkg.PkgPath == pass.PkgPath {
			report(&n.sum.sites)
		}
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				if inScope {
					checkTopLevelRand(pass, gd)
				}
				ds := scanSites(pass.TypesInfo, gd)
				report(&ds)
			}
		}
		if inScope {
			ast.Inspect(f, func(n ast.Node) bool {
				if rng, ok := n.(*ast.RangeStmt); ok && isMap(pass.TypesInfo, rng.X) {
					checkMapRangeSerialization(pass, rng)
				}
				return true
			})
		}
	}
	return nil
}

// checkTopLevelRand flags package-level vars whose initializer builds a
// math/rand source from the wall clock.
func checkTopLevelRand(pass *Pass, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, val := range vs.Values {
			usesRandNew, usesClock := false, false
			ast.Inspect(val, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				pkgPath, funcName, ok := pkgFuncOf(pass.TypesInfo, call)
				if !ok {
					return true
				}
				if pkgPath == "math/rand" && (funcName == "New" || funcName == "NewSource") {
					usesRandNew = true
				}
				if pkgPath == "time" && funcName == "Now" {
					usesClock = true
				}
				return true
			})
			if usesRandNew && usesClock {
				pass.Reportf(val.Pos(),
					"top-level math/rand source seeded from the clock: every run draws a different stream; seed explicitly or inject the source")
			}
		}
	}
}

// checkMapRangeSerialization flags entries written to an ordered
// stream inside a range over a map.
func checkMapRangeSerialization(pass *Pass, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if name, ok := streamSink(pass.TypesInfo, call, serializationMethods); ok {
				pass.Reportf(call.Pos(),
					"%s inside a map range serializes entries in nondeterministic order; iterate stable.SortedKeys first (internal/stable)",
					name)
			}
		}
		return true
	})
}

// serializationMethods are the method sinks that emit entries to an
// ordered stream: encoder Encode, writer Write/WriteString.
var serializationMethods = map[string]bool{"Encode": true, "Write": true, "WriteString": true}

// streamSink matches a call that writes to an output stream and names it
// for the diagnostic: fmt.Fprint/Fprintf/Fprintln to a writer other than
// os.Stdout/os.Stderr (terminal output, where neither entry order nor a
// lost error matters), or a method call — not a pkg.Func — named in
// methods ("enc.Encode"). detcheck and errflow differ only in methods.
func streamSink(info *types.Info, call *ast.CallExpr, methods map[string]bool) (string, bool) {
	if pkgPath, funcName, ok := pkgFuncOf(info, call); ok {
		if pkgPath == "fmt" && (funcName == "Fprint" || funcName == "Fprintf" || funcName == "Fprintln") &&
			len(call.Args) > 0 && !isStdStream(call.Args[0]) {
			return "fmt." + funcName, true
		}
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !methods[sel.Sel.Name] {
		return "", false
	}
	if _, isFn := info.Uses[sel.Sel].(*types.Func); !isFn {
		return "", false
	}
	return exprText(sel.X) + "." + sel.Sel.Name, true
}

// isStdStream matches os.Stdout / os.Stderr.
func isStdStream(e ast.Expr) bool {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "os" && (sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr")
}
