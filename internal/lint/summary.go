package lint

// Bottom-up per-function summaries over the call graph (callgraph.go),
// computed SCC by SCC in callees-first order with a fixpoint iteration
// inside cycles. Each summary records four families of facts, every one
// carrying a witness chain (the call path to the root cause) so the
// analyzers built on top can explain a transitive finding end-to-end:
//
//   - effects: nondeterministic inputs the function may observe — wall
//     clock reads, global math/rand draws, order-dependent folds inside
//     map ranges, package-level variable mutation;
//   - lock sets: which lock classes the function may acquire, and the
//     lock→lock acquisition-order edges it establishes (lock B taken
//     while A is held), tracked flow-sensitively with the walker in
//     flow.go so early-exit unlocks stay precise; the same walk lists
//     every parking operation reached while a lock may be held;
//   - blocking: whether the function may park — channel operations,
//     selects without a default, time.Sleep, HTTP round trips — plus the
//     ctxprop-specific refinement "blocks with no context.Context
//     parameter anywhere on the path" (unguarded blocking);
//   - allocation: whether the function may allocate on the hot path —
//     make/new/append, slice, map and pointer composite literals, and
//     fmt calls (interface boxing).
//
// The facts a body establishes by itself come from one scan per
// function (scanSites), which keeps every site with its position:
// detcheck and hotalloc report those lists directly, and the summaries
// fold them into first-witness facts.
//
// The contract with consumers (DESIGN.md §15): facts are MAY facts and
// monotone — a call site unions the callee's summary into the caller —
// so fixpoints converge; dynamic calls (function values, interface
// methods) contribute no facts but set Dynamic, and each analyzer
// documents how it treats that hole.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
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
	// blocking: any parking operation, sync.WaitGroup/Cond waits
	// included (the join discipline lockheld already polices).
	blocking *witness
	// unguarded: the ctxprop refinement — the function may park on a
	// channel/select/sleep/HTTP op and has NO context.Context parameter,
	// or calls such a function; the deadline cannot reach the block.
	// Functions WITH a ctx parameter never propagate this upward: the
	// drop (if any) is reported inside them, where the ctx went missing.
	unguarded *witness
	allocs    *witness

	// acquires: lock classes the function may take at some point during
	// a call (transitively), each with the witness that first saw it.
	acquires map[string]*witness
	// lockEdges: acquisition-order edges "B taken while A held", keyed
	// A\x00B, with the position that established the edge.
	lockEdges map[string]*witness

	// sites lists every fact the body establishes directly, scanned once
	// (scanSites); each fixpoint iteration folds the first of each list
	// into the witnesses above.
	sites directSites
	// heldBlocks: every parking operation the lock walk reached while a
	// lock may be held, in walk order — lockheld's findings.
	heldBlocks []heldBlock

	hasCtx    bool // signature carries context.Context or *http.Request
	dynamic   bool // has call sites the graph could not resolve
	certified bool // carries //lint:certify pure
	hot       bool // carries //lint:hot
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
				if computeSummary(prog, n) {
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
	s := &Summary{
		sites:     scanSites(n.pkg.TypesInfo, n.decl.Body),
		acquires:  make(map[string]*witness),
		lockEdges: make(map[string]*witness),
		hasCtx:    signatureCarriesCtx(n.fn),
		certified: declHasPragma(n.decl, "//lint:certify pure"),
		hot:       declHasPragma(n.decl, "//lint:hot"),
	}
	if n.dynamicPos != token.NoPos {
		s.dynamic = true
	}
	return s
}

// computeSummary (re)derives n's facts from its direct sites and the
// CURRENT summaries of its callees, reporting whether anything new
// appeared — the fixpoint test inside an SCC. Facts only ever turn on,
// so the iteration terminates.
func computeSummary(prog *Program, n *fnode) bool {
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

	lockWalk(prog, n)

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
	if s.blocking != nil {
		b.WriteByte('B')
	}
	if s.unguarded != nil {
		b.WriteByte('U')
	}
	if s.allocs != nil {
		b.WriteByte('A')
	}
	if s.dynamic {
		b.WriteByte('D')
	}
	keys := make([]string, 0, len(s.acquires)+len(s.lockEdges))
	for k := range s.acquires {
		keys = append(keys, "a"+k)
	}
	for k := range s.lockEdges {
		keys = append(keys, "e"+k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte(';')
	}
	return b.String()
}

// A site is one fact a body establishes directly, at one position.
type site struct {
	pos  token.Pos
	what string // witness text: "channel send", "time.Now()", "make", …
	arg  string // the package function a call names ("Now"), or a map fold's lvalue ("out")
	join bool   // a blocking site that is a sync WaitGroup/Cond wait
}

// directSites lists, by kind and in source order, every fact a syntax
// tree establishes without following calls.
type directSites struct {
	effects [numEffects][]site
	blocks  []site
	allocs  []site
}

// foldSites sets the first-witness facts the direct sites establish.
// Sync waits are blocking but never unguarded: a join on workers that
// carry the ctx themselves is the blessed fan-out shape (par.ForEach).
func (s *Summary) foldSites() {
	for kind, list := range s.sites.effects {
		if len(list) > 0 {
			s.setEffect(kind, list[0].pos, list[0].what, nil)
		}
	}
	for _, b := range s.sites.blocks {
		s.setBlocking(b.pos, b.what, nil)
		if !b.join {
			s.setUnguarded(b.pos, b.what, nil)
		}
	}
	if len(s.sites.allocs) > 0 {
		s.setAlloc(s.sites.allocs[0].pos, s.sites.allocs[0].what, nil)
	}
}

// scanSites is the suite's one classifier of per-site facts: a single
// walk of root recording every parking operation, allocation,
// nondeterministic call, order-dependent map fold and package-level
// write. Function literals, a go statement's spawned call and a select's
// comm clauses count for effects and allocations (they belong to whoever
// wrote them) but not for blocking: a literal or a spawned call parks
// its own goroutine, and a comm operation parks only through its select.
// A go statement's function value and arguments are evaluated by the
// caller, so they keep the enclosing mode: `go g(<-ch)` parks the caller.
func scanSites(info *types.Info, root ast.Node) directSites {
	var ds directSites
	var scan func(node ast.Node, noBlock bool)
	scan = func(node ast.Node, noBlock bool) {
		ast.Inspect(node, func(nd ast.Node) bool {
			if what, join, ok := parkingOp(info, nd); ok && !noBlock {
				ds.blocks = append(ds.blocks, site{pos: nd.Pos(), what: what, join: join})
			}
			switch nd := nd.(type) {
			case *ast.FuncLit:
				scan(nd.Body, true)
				return false
			case *ast.GoStmt:
				ds.call(info, nd.Call)
				scan(nd.Call.Fun, noBlock)
				for _, arg := range nd.Call.Args {
					scan(arg, noBlock)
				}
				return false
			case *ast.SelectStmt:
				for _, c := range nd.Body.List {
					cc := c.(*ast.CommClause)
					if cc.Comm != nil {
						scan(cc.Comm, true)
					}
					for _, st := range cc.Body {
						scan(st, noBlock)
					}
				}
				return false
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
			case *ast.CompositeLit:
				if what, ok := allocatingLiteral(info, nd); ok {
					ds.allocs = append(ds.allocs, site{pos: nd.Pos(), what: what})
				}
			case *ast.CallExpr:
				ds.call(info, nd)
			}
			return true
		})
	}
	scan(root, false)
	return ds
}

// builtinAllocs names the allocating builtins.
var builtinAllocs = map[string]string{"append": "append growth", "make": "make", "new": "new"}

// call records one call's direct allocations and nondeterministic
// effects: allocating builtins, fmt (interface boxing), wall-clock reads
// and the global math/rand stream. In-Program callees are merged
// separately (mergeCallee); other external calls are assumed pure and
// allocation-free — the standard library is loaded API-only, and this
// table covers the calls that matter (DESIGN.md §15).
func (ds *directSites) call(info *types.Info, call *ast.CallExpr) {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := info.Uses[id].(*types.Builtin); isB {
			if what := builtinAllocs[b.Name()]; what != "" {
				ds.allocs = append(ds.allocs, site{pos: call.Pos(), what: what})
			}
			return
		}
	}
	pkgPath, name, ok := pkgFuncOf(info, call)
	switch {
	case !ok:
	case pkgPath == "time" && (name == "Now" || name == "Since" || name == "Until"):
		ds.effects[effTime] = append(ds.effects[effTime], site{pos: call.Pos(), what: "time." + name + "()", arg: name})
	case pkgPath == "math/rand" && globalRandFns[name]:
		ds.effects[effRand] = append(ds.effects[effRand], site{pos: call.Pos(), what: "rand." + name + " (global source)", arg: name})
	case pkgPath == "fmt":
		ds.allocs = append(ds.allocs, site{pos: call.Pos(), what: "fmt." + name + " (interface boxing)"})
	}
}

// globalWrite records lhs when it writes a package-level variable.
func (ds *directSites) globalWrite(info *types.Info, lhs ast.Expr) {
	if pos, name, ok := writesPackageLevel(info, lhs); ok {
		ds.effects[effGlobal] = append(ds.effects[effGlobal], site{pos: pos, what: "writes package-level var " + name})
	}
}

// parkingOp classifies one node as an operation that may park the
// goroutine — for the direct scan and the lock walk alike: channel
// sends and receives, range over a channel, a select without default,
// time.Sleep, HTTP round trips (the net/http helpers and http.Client
// methods), and sync WaitGroup/Cond waits (join).
func parkingOp(info *types.Info, nd ast.Node) (what string, join, ok bool) {
	switch nd := nd.(type) {
	case *ast.SendStmt:
		return "channel send", false, true
	case *ast.UnaryExpr:
		return "channel receive", false, nd.Op == token.ARROW
	case *ast.SelectStmt:
		return "select without default", false, !hasDefaultClause(nd.Body)
	case *ast.RangeStmt:
		if t := info.Types[nd.X].Type; t != nil {
			_, isChan := t.Underlying().(*types.Chan)
			return "range over channel", false, isChan
		}
	case *ast.CallExpr:
		if pkgPath, name, isPkgFn := pkgFuncOf(info, nd); isPkgFn {
			switch {
			case pkgPath == "time" && name == "Sleep":
				return "time.Sleep", false, true
			case pkgPath == "net/http" && blockingHTTPFns[name]:
				return "http." + name, false, true
			}
			return "", false, false
		}
		sel, isSel := unparen(nd.Fun).(*ast.SelectorExpr)
		if !isSel {
			return "", false, false
		}
		recv := receiverType(info, sel)
		switch name := sel.Sel.Name; {
		case name == "Wait" && isSyncWaitType(recv):
			return "sync " + exprText(sel.X) + ".Wait", true, true
		case (name == "Do" || blockingHTTPFns[name]) && recv != nil && types.TypeString(recv, nil) == "net/http.Client":
			return "http.Client." + name, false, true
		}
	}
	return "", false, false
}

// mergeCallee unions a resolved in-Program callee's summary into the
// caller at one call site.
func mergeCallee(s *Summary, cs callSite, callee *Summary) {
	for i, w := range callee.effects {
		if w != nil {
			s.setEffect(i, cs.pos, w.what, cs.callee)
		}
	}
	if callee.blocking != nil && !cs.noBlock {
		s.setBlocking(cs.pos, callee.blocking.what, cs.callee)
	}
	// The unguarded refinement stops at ctx boundaries: a callee WITH a
	// ctx parameter owns its own blocking discipline (and any drop
	// inside it is reported there by ctxprop).
	if callee.unguarded != nil && !callee.hasCtx && !cs.noBlock {
		s.setUnguarded(cs.pos, callee.unguarded.what, cs.callee)
	}
	if callee.allocs != nil {
		s.setAlloc(cs.pos, callee.allocs.what, cs.callee)
	}
	for class, w := range callee.acquires {
		if s.acquires[class] == nil {
			s.acquires[class] = &witness{pos: cs.pos, what: w.what, via: cs.callee}
		}
	}
	// lockEdges deliberately do NOT propagate: an order edge is a global
	// fact already, owned by the function whose body (or call-with-held-
	// lock) established it — lockorder assembles the whole-program graph
	// from every function's own edges, and keeping them local gives each
	// edge exactly one owning package to report (and waive) in.
}

func (s *Summary) setEffect(kind int, pos token.Pos, what string, via *types.Func) {
	if s.effects[kind] == nil {
		s.effects[kind] = &witness{pos: pos, what: what, via: via}
	}
}

func (s *Summary) setBlocking(pos token.Pos, what string, via *types.Func) {
	if s.blocking == nil {
		s.blocking = &witness{pos: pos, what: what, via: via}
	}
}

func (s *Summary) setUnguarded(pos token.Pos, what string, via *types.Func) {
	if s.hasCtx {
		return // a ctx parameter is in scope; drops are ctxprop's per-call-site business
	}
	if s.unguarded == nil {
		s.unguarded = &witness{pos: pos, what: what, via: via}
	}
}

func (s *Summary) setAlloc(pos token.Pos, what string, via *types.Func) {
	if s.allocs == nil {
		s.allocs = &witness{pos: pos, what: what, via: via}
	}
}

// A heldBlock is a parking operation the lock walk reached while locks
// may be held — one lockheld finding.
type heldBlock struct {
	pos   token.Pos
	what  string // parkingOp's text: "channel send", "sync g.wg.Wait", …
	locks string // the may-held lock expressions, sorted: "g.mu, g.rw"
}

// lockWalk runs the flow walker over n's body tracking the locks that
// may be held. It records the lock classes n acquires and the order
// edges it establishes (lockorder), and every parking operation reached
// with a lock held (lockheld). Callee acquisitions (from the current
// summaries) establish edges too: holding A while calling a function
// that takes B is an A→B edge even though no Lock() appears here. Held
// sets never depend on callee summaries, so each walk rebuilds the same
// heldBlocks list.
func lockWalk(prog *Program, n *fnode) {
	v := &lockVisitor{prog: prog, info: n.pkg.TypesInfo, s: n.sum}
	n.sum.heldBlocks = n.sum.heldBlocks[:0]
	walkFlow(n.decl.Body, v)
	// Function literals hold no caller locks at entry (they run on their
	// own activation), but their own acquisitions, edges and held blocks
	// belong to this declaration. Every literal, nested ones included,
	// gets its own walk from an empty held set.
	ast.Inspect(n.decl.Body, func(nd ast.Node) bool {
		if lit, ok := nd.(*ast.FuncLit); ok {
			walkFlow(lit.Body, v)
		}
		return true
	})
}

// lockVisitor is lockWalk's flowVisitor. A held fact is keyed by the
// lock expression and its class, "g.mu\x00cloud.group.mu": the
// expression names the lock in lockheld's message and lets an Unlock
// release only the receiver it names; the class forms order edges.
type lockVisitor struct {
	prog *Program
	info *types.Info
	s    *Summary
}

// transfer checks what stmt evaluates itself. A go or defer statement's
// call runs elsewhere or at exit (a deferred unlock keeps the lock held,
// so a later block still counts); only its function value and arguments
// are evaluated here, under whatever is held now.
func (v *lockVisitor) transfer(stmt ast.Stmt, held factSet) {
	v.parks(stmt, held)
	inspectShallow(headerExprs(stmt), func(nd ast.Node) bool {
		v.parks(nd, held)
		if call, ok := nd.(*ast.CallExpr); ok {
			v.transferCall(call, held)
		}
		return true
	})
}

func (v *lockVisitor) transferCall(call *ast.CallExpr, held factSet) {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && isMutexType(receiverType(v.info, sel)) {
		class, _ := lockClassOf(v.info, sel.X)
		key := exprText(sel.X) + "\x00" + class
		switch sel.Sel.Name {
		case "Lock", "RLock":
			v.acquire(class, call.Pos(), held, nil)
			if _, ok := held[key]; !ok {
				held[key] = call.Pos()
			}
		case "Unlock", "RUnlock":
			delete(held, key)
		}
		return
	}
	// A call to a summarized function that itself acquires locks
	// establishes order edges from everything held here. The class does
	// NOT become held: a summarized callee is assumed to release what it
	// takes (unbalanced lock helpers lose follow-on edges; a conservative
	// miss, never a false edge).
	callee := resolveCallee(v.info, call)
	if callee == nil {
		return
	}
	target := v.prog.funcs[callee]
	if target == nil || target.sum == nil {
		return
	}
	for _, class := range sortedKeys(target.sum.acquires) {
		v.acquire(class, call.Pos(), held, callee)
	}
}

// acquire records taking lock class `class` with `held` currently held:
// the class joins the summary's acquire set and every held→class pair
// becomes an order edge. An unresolved class ("") records nothing.
func (v *lockVisitor) acquire(class string, pos token.Pos, held factSet, via *types.Func) {
	if class == "" {
		return
	}
	if v.s.acquires[class] == nil {
		v.s.acquires[class] = &witness{pos: pos, what: class, via: via}
	}
	for key := range held {
		from := key[strings.IndexByte(key, 0)+1:]
		if from == "" || from == class {
			continue // re-entry is lockheld/runtime territory, not an order edge
		}
		edge := from + "\x00" + class
		if v.s.lockEdges[edge] == nil {
			v.s.lockEdges[edge] = &witness{pos: pos, what: from + " -> " + class, via: via}
		}
	}
}

// parks records nd as a held block when it may park while a lock may be
// held. Loop bodies are walked twice; the first record of a position
// stands.
func (v *lockVisitor) parks(nd ast.Node, held factSet) {
	if len(held) == 0 {
		return
	}
	what, _, ok := parkingOp(v.info, nd)
	if !ok {
		return
	}
	for _, b := range v.s.heldBlocks {
		if b.pos == nd.Pos() {
			return
		}
	}
	locks := make([]string, 0, len(held))
	for key := range held {
		locks = append(locks, key[:strings.IndexByte(key, 0)])
	}
	sort.Strings(locks)
	v.s.heldBlocks = append(v.s.heldBlocks, heldBlock{pos: nd.Pos(), what: what, locks: strings.Join(slices.Compact(locks), ", ")})
}

// lockClassOf canonicalizes a lock expression to a stable class name:
// field locks key by their defining struct ("cloud.Server.mu" — one
// class per field, all instances collapsed, the standard lock-class
// abstraction), package-level locks by package path and name, local
// locks by declaration position.
func lockClassOf(info *types.Info, expr ast.Expr) (string, bool) {
	expr = unparen(expr)
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		obj := info.Uses[e.Sel]
		if obj == nil {
			return "", false
		}
		// Field selection: qualify by the receiver's named type.
		t := info.Types[e.X].Type
		if t != nil {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return types.TypeString(named, shortPkgQualifier) + "." + e.Sel.Name, true
			}
		}
		if obj.Pkg() != nil {
			return lastSegment(obj.Pkg().Path()) + "." + e.Sel.Name, true
		}
		return e.Sel.Name, true
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return "", false
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return lastSegment(obj.Pkg().Path()) + "." + obj.Name(), true
		}
		// Local lock: class per declaration site.
		return "local." + obj.Name(), true
	}
	return "", false
}

func shortPkgQualifier(p *types.Package) string { return lastSegment(p.Path()) }

// receiverType returns the (pointer-stripped) type of a selector's
// receiver expression, or nil.
func receiverType(info *types.Info, sel *ast.SelectorExpr) types.Type {
	t := info.Types[sel.X].Type
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// signatureCarriesCtx reports whether the function can thread a request
// context: an explicit context.Context parameter, an *http.Request
// (whose Context() is the request's), or a receive-only done channel
// (`<-chan struct{}` — the shape of ctx.Done(), the idiomatic
// cancellation conduit for leaf helpers like cloud.sleepCtx).
func signatureCarriesCtx(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		switch types.TypeString(t, nil) {
		case "context.Context", "*net/http.Request", "<-chan struct{}":
			return true
		}
	}
	return false
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

// blockingHTTPFns are net/http package-level helpers that perform a full
// round trip.
var blockingHTTPFns = map[string]bool{"Get": true, "Post": true, "PostForm": true, "Head": true}

// allocatingLiteral classifies composite literals that always heap
// allocate: slice and map literals. Struct and array VALUE literals
// stay silent (they live on the stack unless escape analysis says
// otherwise, which a source-only linter cannot see); &T{...} is caught
// at the unary & — also out of reach without escape analysis, so only
// the guaranteed allocators are flagged.
func allocatingLiteral(info *types.Info, lit *ast.CompositeLit) (string, bool) {
	tv, ok := info.Types[lit]
	if !ok || tv.Type == nil {
		return "", false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		return "slice literal", true
	case *types.Map:
		return "map literal", true
	}
	return "", false
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
	for _, cw := range []*witness{callee.blocking, callee.unguarded, callee.allocs} {
		if cw != nil && cw.what == w.what {
			return cw
		}
	}
	if cw := callee.acquires[w.what]; cw != nil {
		return cw
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
	Blocks    bool     `json:"blocks"`
	Unguarded bool     `json:"unguardedBlock"`
	Allocates bool     `json:"allocates"`
	Acquires  []string `json:"acquires,omitempty"`
	LockEdges []string `json:"lockEdges,omitempty"`
	CtxParam  bool     `json:"ctxParam"`
	Dynamic   bool     `json:"dynamic"`
	Certified bool     `json:"certified,omitempty"`
	Hot       bool     `json:"hot,omitempty"`
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
			Blocks:    s.blocking != nil,
			Unguarded: s.unguarded != nil,
			Allocates: s.allocs != nil,
			CtxParam:  s.hasCtx,
			Dynamic:   s.dynamic,
			Certified: s.certified,
			Hot:       s.hot,
		}
		for i, w := range s.effects {
			if w != nil {
				fs.Effects = append(fs.Effects, effectNames[i])
			}
		}
		fs.Acquires = sortedKeys(s.acquires)
		for _, key := range sortedKeys(s.lockEdges) {
			fs.LockEdges = append(fs.LockEdges, strings.ReplaceAll(key, "\x00", " -> "))
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
