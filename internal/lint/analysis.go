// Package lint is the repo's custom static-analysis suite: a small,
// self-contained reimplementation of the golang.org/x/tools/go/analysis
// surface (Analyzer / Pass / Diagnostic) on top of the standard library
// only, because this module builds offline with no third-party deps.
//
// The analyzers mechanically enforce invariants that earlier PRs
// established by convention:
//
//   - ctxcheck: cloud request paths must use the context-aware DP entry
//     points and must not mint fresh root contexts inside handler or
//     middleware chains (PR 3's cancellation contract).
//   - unitcheck: the SI-unit identifier-suffix convention (Sec, MS, Kmh,
//     Ah, …) must not be mixed across incompatible units, and raw
//     conversion constants (3.6, 3600, 1000) belong in internal/units.
//   - floateq: no ==/!= on floating-point operands in the numeric
//     packages (bit-identical parallel relaxation, PR 1, depends on
//     disciplined float handling).
//
// The other three guard the wire and determinism contracts (DESIGN.md
// §14/§15). detcheck reads the per-function sites the summary layer
// scans once (summary.go); puritycert reads the interprocedural
// summaries built on the call graph (callgraph.go):
//
//   - detcheck: no order-dependent accumulation or serialization inside
//     map ranges (use stable.SortedKeys), no clock-seeded or global
//     math/rand sources, no wall-clock reads in pure solver packages.
//   - errflow: wire-boundary errors (Encode/Decode/Close/Write/Flush)
//     are handled or discarded explicitly with `_ =`, never silently.
//   - puritycert: the DP and neural solver entrypoints carry
//     `//lint:certify pure` and reach no wall-clock, global-rand,
//     map-order or global-write effect through any static call chain.
//
// Concurrency hazards — racy counters, locks held across blocking
// calls, lock order, leaked goroutines — are left to the race detector
// and the chaos and goroutine-settle tests (DESIGN.md §10 records the
// history audit behind that split).
//
// Findings can be suppressed, narrowly, with a pragma on the same line or
// the line above:
//
//	//lint:allow <analyzer> <reason>
//
// Suppressions are not silent: the runner returns them and cmd/evlint
// prints a summary so every waiver stays visible in CI logs.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static-analysis pass. The shape mirrors
// golang.org/x/tools/go/analysis so the suite can migrate to the real
// framework wholesale if the dependency ever becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow pragmas. By convention it is a single lowercase word.
	Name string
	// Doc is a one-line summary followed, optionally, by a blank line and
	// a longer description.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// ShortDoc returns the first line of the analyzer's documentation.
func (a *Analyzer) ShortDoc() string {
	if i := strings.IndexByte(a.Doc, '\n'); i >= 0 {
		return a.Doc[:i]
	}
	return a.Doc
}

// A Pass provides one analyzer run with a single type-checked package and
// a sink for diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's parsed non-test sources.
	Files []*ast.File
	// PkgPath is the package's import path. Analyzers use it (not the
	// package name) to scope themselves: fixture packages under
	// testdata/src mimic real paths by suffix.
	PkgPath   string
	Pkg       *types.Package
	TypesInfo *types.Info
	// Prog is the whole-invocation interprocedural view (call graph +
	// function summaries, callgraph.go/summary.go), built once per Run
	// and shared by every analyzer and package. Intra-procedural
	// analyzers ignore it.
	Prog *Program
	// report receives every diagnostic, pre-suppression.
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding from one analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
	// Allowed is set by the runner when a //lint:allow pragma suppressed
	// the finding; Reason carries the pragma's justification text.
	Allowed bool
	Reason  string
}

// A Result is the outcome of running a set of analyzers over a set of
// packages: active findings (fail the build) and allowed findings
// (suppressed by pragma, reported in the summary).
type Result struct {
	Fset    *token.FileSet
	Active  []Diagnostic
	Allowed []Diagnostic
}

// Run applies every analyzer to every package, applies //lint:allow
// pragmas, and returns the partitioned findings sorted by position.
func Run(analyzers []*Analyzer, pkgs []*Package) (*Result, error) {
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("lint: no packages to analyze")
	}
	res := &Result{Fset: pkgs[0].Fset}
	// One interprocedural build per invocation, shared by all analyzers
	// over all packages — the graph walk and summary fixpoint are paid
	// once, not once per (package, analyzer) pair. programBuilds lets the
	// tests pin this single-build contract.
	prog := BuildProgram(pkgs)
	programBuilds++
	for _, pkg := range pkgs {
		allows := collectAllows(pkg.Fset, pkg.Syntax)
		for _, a := range analyzers {
			var diags []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				PkgPath:   pkg.PkgPath,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Prog:      prog,
				report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
			for _, d := range diags {
				if reason, ok := allows.match(pkg.Fset, a.Name, d.Pos); ok {
					d.Allowed, d.Reason = true, reason
					res.Allowed = append(res.Allowed, d)
				} else {
					res.Active = append(res.Active, d)
				}
			}
		}
	}
	sortDiags(res.Fset, res.Active)
	sortDiags(res.Fset, res.Allowed)
	return res, nil
}

func sortDiags(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return ds[i].Analyzer < ds[j].Analyzer
	})
}

// programBuilds counts BuildProgram invocations made by Run, so tests
// can assert the one-build-per-invocation contract (ISSUE 10 satellite:
// one load + one graph build, N analyzers).
var programBuilds int

// isTestFile reports whether the file containing pos is a _test.go file.
// Analyzers use it to scope themselves to production code.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
