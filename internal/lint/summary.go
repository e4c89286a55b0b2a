package lint

// Bottom-up per-function summaries over the call graph (callgraph.go),
// computed SCC by SCC in callees-first order with a fixpoint iteration
// inside cycles. Each summary records the nondeterministic effects a
// function may observe — wall-clock reads, global math/rand draws,
// order-dependent folds inside map ranges, package-level variable
// mutation — every one carrying a witness chain (the call path to the
// root cause) so puritycert can explain a transitive finding
// end-to-end.
//
// The facts a body establishes by itself come from one scan per
// function (scanSites), which keeps every site with its position:
// detcheck reports those lists directly, and the summaries fold them
// into first-witness facts.
//
// The contract with consumers (DESIGN.md §15): facts are MAY facts and
// monotone — a call site unions the callee's summary into the caller —
// so fixpoints converge; dynamic calls (function values, interface
// methods) contribute no facts but set Dynamic, and puritycert
// documents how it treats that hole.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Effect kinds, in severity/report order.
const (
	effTime     = iota // wall-clock read (time.Now/Since/Until)
	effRand            // global math/rand stream
	effMapOrder        // order-dependent fold inside a map range
	effGlobal          // package-level variable mutation
	numEffects
)

var effectNames = [numEffects]string{"wall-clock", "global-rand", "map-order", "global-write"}

// A witness pins one fact to the place that established it: a source
// position inside the summarized function, a description of the root
// cause, and — when the fact arrived through a call — the callee whose
// summary supplied it. Chains are reconstructed by following via links
// through the callee summaries.
type witness struct {
	pos  token.Pos
	what string
	via  *types.Func // nil when the fact is established directly
}

// A Summary is the interprocedural fact set of one declared function.
type Summary struct {
	effects [numEffects]*witness

	// sites lists every fact the body establishes directly, scanned once
	// (scanSites); each fixpoint iteration folds the first of each list
	// into the witnesses above.
	sites directSites

	dynamic   bool // has call sites the graph could not resolve
	certified bool // carries //lint:certify pure
}

// summarize scans every node's body once for its direct sites, then
// computes the Summaries bottom-up over the SCC DAG.
func summarize(prog *Program) {
	for _, n := range prog.order {
		n.sum = newSummary(n)
	}
	for _, scc := range prog.sccs() {
		// Deterministic member order inside the component.
		sort.Slice(scc, func(i, j int) bool { return scc[i].decl.Pos() < scc[j].decl.Pos() })
		for {
			changed := false
			for _, n := range scc {
				if computeSummary(n) {
					changed = true
				}
			}
			if !changed || len(scc) == 1 {
				break
			}
		}
	}
}

func newSummary(n *fnode) *Summary {
	return &Summary{
		sites:     scanSites(n.pkg.TypesInfo, n.decl.Body),
		dynamic:   n.dynamicPos != token.NoPos,
		certified: declHasPragma(n.decl, "//lint:certify pure"),
	}
}

// computeSummary (re)derives n's facts from its direct sites and the
// CURRENT summaries of its callees, reporting whether anything new
// appeared — the fixpoint test inside an SCC. Facts only ever turn on,
// so the iteration terminates.
func computeSummary(n *fnode) bool {
	s := n.sum
	before := s.factKey()

	s.foldSites()
	for _, cs := range n.calls {
		if cs.target == nil {
			continue // out-of-Program callees are classified by scanSites
		}
		mergeCallee(s, cs, cs.target.sum)
		if cs.target.sum.dynamic {
			s.dynamic = true
		}
	}
	return s.factKey() != before
}

// factKey folds the boolean shape of the summary into a comparable
// string for fixpoint detection (witness positions excluded — they may
// legitimately move between iterations without new facts appearing).
func (s *Summary) factKey() string {
	var b strings.Builder
	for i := range s.effects {
		if s.effects[i] != nil {
			b.WriteByte(byte('0' + i))
		}
	}
	if s.dynamic {
		b.WriteByte('D')
	}
	return b.String()
}

// A site is one fact a body establishes directly, at one position.
type site struct {
	pos  token.Pos
	what string // witness text: "time.Now()", "writes package-level var x", …
	arg  string // the package function a call names ("Now"), or a map fold's lvalue ("out")
}

// directSites lists, by kind and in source order, every effect a syntax
// tree establishes without following calls.
type directSites struct {
	effects [numEffects][]site
}

// foldSites sets the first-witness facts the direct sites establish.
func (s *Summary) foldSites() {
	for kind, list := range s.sites.effects {
		if len(list) > 0 {
			s.setEffect(kind, list[0].pos, list[0].what, nil)
		}
	}
}

// scanSites is the suite's one classifier of per-site facts: a single
// walk of root recording every nondeterministic call, order-dependent
// map fold and package-level write. Function literals and go statements
// are walked like any other code: their effects belong to whoever wrote
// them.
func scanSites(info *types.Info, root ast.Node) directSites {
	var ds directSites
	ast.Inspect(root, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.RangeStmt:
			if isMap(info, nd.X) {
				ds.effects[effMapOrder] = append(ds.effects[effMapOrder], mapRangeHazards(info, nd)...)
			}
		case *ast.AssignStmt:
			for _, lhs := range nd.Lhs {
				ds.globalWrite(info, lhs)
			}
		case *ast.IncDecStmt:
			ds.globalWrite(info, nd.X)
		case *ast.CallExpr:
			ds.call(info, nd)
		}
		return true
	})
	return ds
}

// call records one call's direct nondeterministic effects: wall-clock
// reads and the global math/rand stream. In-Program callees are merged
// separately (mergeCallee); other external calls are assumed pure — the
// standard library is loaded API-only, and this table covers the calls
// that matter (DESIGN.md §15).
func (ds *directSites) call(info *types.Info, call *ast.CallExpr) {
	pkgPath, name, ok := pkgFuncOf(info, call)
	switch {
	case !ok:
	case pkgPath == "time" && (name == "Now" || name == "Since" || name == "Until"):
		ds.effects[effTime] = append(ds.effects[effTime], site{pos: call.Pos(), what: "time." + name + "()", arg: name})
	case pkgPath == "math/rand" && globalRandFns[name]:
		ds.effects[effRand] = append(ds.effects[effRand], site{pos: call.Pos(), what: "rand." + name + " (global source)", arg: name})
	}
}

// globalWrite records lhs when it writes a package-level variable.
func (ds *directSites) globalWrite(info *types.Info, lhs ast.Expr) {
	if pos, name, ok := writesPackageLevel(info, lhs); ok {
		ds.effects[effGlobal] = append(ds.effects[effGlobal], site{pos: pos, what: "writes package-level var " + name})
	}
}

// mergeCallee unions a resolved in-Program callee's summary into the
// caller at one call site.
func mergeCallee(s *Summary, cs callSite, callee *Summary) {
	for i, w := range callee.effects {
		if w != nil {
			s.setEffect(i, cs.pos, w.what, cs.callee)
		}
	}
}

func (s *Summary) setEffect(kind int, pos token.Pos, what string, via *types.Func) {
	if s.effects[kind] == nil {
		s.effects[kind] = &witness{pos: pos, what: what, via: via}
	}
}

// declHasPragma reports whether the declaration's doc comment contains a
// line starting with the given pragma.
func declHasPragma(decl *ast.FuncDecl, pragma string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.HasPrefix(c.Text, pragma) {
			return true
		}
	}
	return false
}

// writesPackageLevel reports whether an lvalue's root identifier is a
// package-level variable (blank assignments excluded).
func writesPackageLevel(info *types.Info, lhs ast.Expr) (token.Pos, string, bool) {
	root := rootIdent(unparen(lhs))
	if root == nil || root.Name == "_" {
		return token.NoPos, "", false
	}
	obj := info.Uses[root]
	if obj == nil {
		obj = info.Defs[root]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return token.NoPos, "", false
	}
	// Only direct writes to the variable itself (or an element/field
	// path rooted at it) count; writes through pointers read from it are
	// out of reach.
	return root.Pos(), v.Name(), true
}

// mapRangeHazards lists the order-dependent folds inside a range over a
// map: appends and float accumulation into state declared outside the
// loop observe iteration order. Integer tallies (commutative) and
// map-index copies (order-blind) stay silent — metrics.LabeledCounter's
// Total and Snapshot are the canonical clean cases.
func mapRangeHazards(info *types.Info, rng *ast.RangeStmt) []site {
	// outside: the lvalue's root is declared outside the range (a
	// loop-local accumulator, reset every iteration, cannot observe
	// cross-iteration order) and is not a map element.
	outside := func(lhs ast.Expr) bool {
		lhs = unparen(lhs)
		if idx, ok := lhs.(*ast.IndexExpr); ok && isMap(info, idx.X) {
			return false
		}
		root := rootIdent(lhs)
		if root == nil {
			return false
		}
		obj := info.Uses[root]
		if obj == nil {
			obj = info.Defs[root]
		}
		return obj != nil && (obj.Pos() < rng.Pos() || obj.Pos() > rng.End())
	}
	var out []site
	ast.Inspect(rng.Body, func(nd ast.Node) bool {
		assign, ok := nd.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range assign.Lhs {
			verb := ""
			switch assign.Tok {
			case token.ASSIGN:
				if i < len(assign.Rhs) {
					if call, ok := unparen(assign.Rhs[i]).(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
							verb = "append"
						}
					}
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
				if isFloat(info, lhs) {
					verb = "float accumulation"
				}
			}
			if verb != "" && outside(lhs) {
				out = append(out, site{pos: assign.Pos(), what: verb + " into " + exprText(lhs) + " while ranging a map", arg: exprText(lhs)})
			}
		}
		return true
	})
	return out
}

// pkgFuncOf resolves a call of the form pkg.Func to the imported
// package's path and the function name.
func pkgFuncOf(info *types.Info, call *ast.CallExpr) (pkgPath, funcName string, ok bool) {
	sel, ok2 := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok2 {
		return "", "", false
	}
	id, ok2 := sel.X.(*ast.Ident)
	if !ok2 {
		return "", "", false
	}
	pn, ok2 := info.Uses[id].(*types.PkgName)
	if !ok2 {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// chainString renders the witness chain starting at w inside fn:
// "dp.Optimize → dp.solve → dp.stamp: time.Now()". Cycles through
// recursive summaries are cut at the first repeat.
func (p *Program) chainString(fn *types.Func, w *witness) string {
	var parts []string
	parts = append(parts, funcDisplayName(fn))
	seen := map[*types.Func]bool{fn: true}
	for w != nil && w.via != nil && !seen[w.via] {
		seen[w.via] = true
		parts = append(parts, funcDisplayName(w.via))
		next := p.funcs[w.via]
		if next == nil || next.sum == nil {
			break
		}
		w = nextWitness(next.sum, w)
	}
	return strings.Join(parts, " -> ")
}

// nextWitness finds, in the callee summary, the witness matching the
// fact the caller's witness described (same what), so chains descend to
// the root cause.
func nextWitness(callee *Summary, w *witness) *witness {
	for _, cw := range callee.effects {
		if cw != nil && cw.what == w.what {
			return cw
		}
	}
	return nil
}

// FuncSummary is the exported, JSON-ready view of one Summary, dumped by
// `evlint -summaries` and uploaded as a CI artifact so the certification
// state of every function is inspectable per commit.
type FuncSummary struct {
	Func      string   `json:"func"`
	Package   string   `json:"package"`
	Effects   []string `json:"effects,omitempty"`
	Dynamic   bool     `json:"dynamic"`
	Certified bool     `json:"certified,omitempty"`
}

// Summaries returns every function's exported summary, sorted by
// package then function name, ready for JSON encoding.
func (p *Program) Summaries() []FuncSummary {
	out := make([]FuncSummary, 0, len(p.order))
	for _, n := range p.order {
		s := n.sum
		fs := FuncSummary{
			Func:      funcDisplayName(n.fn),
			Package:   n.pkg.PkgPath,
			Dynamic:   s.dynamic,
			Certified: s.certified,
		}
		for i, w := range s.effects {
			if w != nil {
				fs.Effects = append(fs.Effects, effectNames[i])
			}
		}
		out = append(out, fs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Package != out[j].Package {
			return out[i].Package < out[j].Package
		}
		return out[i].Func < out[j].Func
	})
	return out
}
