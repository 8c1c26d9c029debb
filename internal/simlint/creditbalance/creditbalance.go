// Package creditbalance checks that every staging-buffer acquire is
// balanced by a release on all paths out of the acquiring function.
//
// The simulator's compression engines stage payloads through
// gpusim.BufferPool (Get/Put) and raw device memory (Malloc or Reserve/Free); a
// buffer that misses its release on one error path silently shrinks the
// pool until staging falls back to cudaMalloc and the modeled overlap
// collapses — exactly the regression the paper's pooled-staging design
// exists to avoid. The analyzer tracks each local bound to an acquire
// call through the function's control flow and reports acquires that a
// path can leave behind neither released nor handed off.
//
// Interprocedural layer: a function that returns an acquired buffer
// (core's Engine.StageRecv) exports an acquires fact, so its callers
// inherit the obligation; a function that releases one of its
// parameters (Engine.ReleaseRecv, or any local Put/Free wrapper)
// exports a releases fact naming the parameter indices, so passing a
// tracked buffer to it counts as the release. Facts cross package
// boundaries through the shared fact store (and the .vetx files on the
// `go vet -vettool` path).
//
// Ownership hand-offs end tracking without a report: returning the
// buffer, storing it into a field/element/global, appending it to a
// slice, sending it on a channel, passing it to a goroutine, or
// capturing it in a closure all transfer the obligation to a structure
// the analyzer cannot see; the runtime accounting in gpusim remains the
// backstop there. A path ending in panic() is fatal by construction and
// carries no obligation.
//
// Suppress a finding with `//simlint:creditok <reason>` on the acquire
// line (or the acquiring function's doc comment).
package creditbalance

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"mpicomp/internal/simlint/analysis"
	"mpicomp/internal/simlint/callgraph"
)

const directive = "creditok"

// Analyzer is the creditbalance check.
var Analyzer = &analysis.Analyzer{
	Name: "creditbalance",
	Doc: "check that every staging-buffer acquire (BufferPool.Get, GPUDevice.Malloc/Reserve, or a function with an acquires fact) " +
		"is released on all paths — via Put/Free, a function with a releases fact, a defer, or an ownership hand-off; " +
		"suppress with //simlint:creditok <reason>",
	Requires:  []*analysis.Analyzer{callgraph.Analyzer},
	FactTypes: []analysis.Fact{(*acquiresFact)(nil), (*releasesFact)(nil)},
	Run:       run,
}

// acquiresFact marks a function whose (single) result is an acquired
// staging buffer the caller becomes responsible for.
type acquiresFact struct{}

func (*acquiresFact) AFact() {}

// releasesFact marks a function that releases the arguments at the
// given parameter indices (receiver excluded from the numbering).
type releasesFact struct {
	Params []int
}

func (*releasesFact) AFact() {}

// summary is the intra-package interprocedural knowledge about one
// declared function, computed to fixpoint before the path walk.
type summary struct {
	acquiresRet bool
	releases    map[int]bool
}

type checker struct {
	pass      *analysis.Pass
	graph     *callgraph.Graph
	summaries map[*types.Func]*summary
}

func run(pass *analysis.Pass) (any, error) {
	cb := &checker{
		pass:      pass,
		graph:     pass.ResultOf[callgraph.Analyzer].(*callgraph.Graph),
		summaries: make(map[*types.Func]*summary),
	}
	cb.buildSummaries()
	cb.exportFacts()

	// The pool/device implementation owns its buffers structurally
	// (free lists, arena bookkeeping); the balance obligation starts at
	// its callers.
	if analysis.PkgPathIs(pass.Pkg, "gpusim") {
		return nil, nil
	}

	for _, file := range pass.Files {
		// Test files reach the analyzer only on the vet-tool path (the
		// standalone loader skips them); keep the two modes agreeing.
		if analysis.IsTestFile(pass, file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			cb.checkScope(file, fd.Body)
		}
	}
	return nil, nil
}

// --- interprocedural summaries -------------------------------------

// buildSummaries iterates the package's functions to fixpoint: a
// helper that forwards its parameter to a releasing callee becomes a
// releaser itself, and a wrapper returning an acquiring callee's result
// becomes an acquirer.
func (cb *checker) buildSummaries() {
	for fn := range cb.graph.Nodes {
		cb.summaries[fn] = &summary{releases: make(map[int]bool)}
	}
	for changed := true; changed; {
		changed = false
		for fn, node := range cb.graph.Nodes {
			if cb.updateSummary(fn, node) {
				changed = true
			}
		}
	}
}

func (cb *checker) updateSummary(fn *types.Func, node *callgraph.Node) bool {
	s := cb.summaries[fn]
	changed := false
	params := paramIndex(cb.pass.TypesInfo, node.Decl)

	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callee := analysis.Callee(cb.pass.TypesInfo, n)
			for _, idx := range cb.releaseParams(callee) {
				if idx >= len(n.Args) {
					continue
				}
				obj := identVar(cb.pass.TypesInfo, n.Args[idx])
				if obj == nil {
					continue
				}
				if pidx, ok := params[obj]; ok && !s.releases[pidx] {
					s.releases[pidx] = true
					changed = true
				}
			}
		case *ast.ReturnStmt:
			if s.acquiresRet || len(n.Results) != 1 {
				return true
			}
			r := ast.Unparen(n.Results[0])
			if call, ok := r.(*ast.CallExpr); ok && cb.isAcquireCall(call) {
				s.acquiresRet = true
				changed = true
			} else if obj := identVar(cb.pass.TypesInfo, r); obj != nil && cb.acquiredLocal(node, obj) {
				s.acquiresRet = true
				changed = true
			}
		}
		return true
	})
	return changed
}

// acquiredLocal reports whether obj is somewhere in the function bound
// 1:1 to an acquire call's result.
func (cb *checker) acquiredLocal(node *callgraph.Node, obj *types.Var) bool {
	found := false
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		if !ok || len(a.Lhs) != len(a.Rhs) {
			return true
		}
		for i := range a.Lhs {
			call, ok := ast.Unparen(a.Rhs[i]).(*ast.CallExpr)
			if !ok || !cb.isAcquireCall(call) {
				continue
			}
			if lhsVar(cb.pass.TypesInfo, a.Lhs[i], a.Tok) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

func (cb *checker) exportFacts() {
	fns := make([]*types.Func, 0, len(cb.summaries))
	for fn := range cb.summaries {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
	for _, fn := range fns {
		s := cb.summaries[fn]
		if s.acquiresRet {
			cb.pass.ExportObjectFact(fn, &acquiresFact{})
		}
		if len(s.releases) > 0 {
			cb.pass.ExportObjectFact(fn, &releasesFact{Params: sortedParams(s.releases)})
		}
	}
}

// sortedParams flattens a release-parameter set into sorted indices.
func sortedParams(releases map[int]bool) []int {
	params := make([]int, 0, len(releases))
	for i := range releases {
		params = append(params, i)
	}
	sort.Ints(params)
	return params
}

// isAcquireCall reports whether the call's result is an acquired
// staging buffer: a pool/device root, a local function whose summary
// says so, or an imported function with an acquires fact.
func (cb *checker) isAcquireCall(call *ast.CallExpr) bool {
	return cb.isAcquireFn(analysis.Callee(cb.pass.TypesInfo, call))
}

func (cb *checker) isAcquireFn(f *types.Func) bool {
	if f == nil {
		return false
	}
	if recv := analysis.ReceiverNamed(f); recv != nil && recv.Obj().Pkg() != nil && analysis.PkgPathIs(recv.Obj().Pkg(), "gpusim") {
		switch recv.Obj().Name() + "." + f.Name() {
		case "BufferPool.Get", "GPUDevice.Malloc", "GPUDevice.Reserve":
			return true
		}
	}
	if s := cb.summaries[f]; s != nil {
		return s.acquiresRet
	}
	return cb.pass.ImportObjectFact(f, new(acquiresFact))
}

// releaseParams returns the parameter indices (receiver excluded) that
// calling f releases, or nil.
func (cb *checker) releaseParams(f *types.Func) []int {
	if f == nil {
		return nil
	}
	if recv := analysis.ReceiverNamed(f); recv != nil && recv.Obj().Pkg() != nil && analysis.PkgPathIs(recv.Obj().Pkg(), "gpusim") {
		switch recv.Obj().Name() + "." + f.Name() {
		case "BufferPool.Put":
			return []int{0}
		case "GPUDevice.Free":
			return []int{1}
		}
	}
	if s := cb.summaries[f]; s != nil {
		if len(s.releases) == 0 {
			return nil
		}
		return sortedParams(s.releases)
	}
	fact := new(releasesFact)
	if cb.pass.ImportObjectFact(f, fact) {
		return fact.Params
	}
	return nil
}

// --- path-sensitive balance walk -----------------------------------

// status is the possibility set of one tracked buffer on the paths
// reaching a program point.
type status uint8

const (
	stHeld status = 1 << iota // some path still owns the buffer
	stDone                    // some path released it or handed it off
)

type state map[*types.Var]status

func clone(st state) state {
	out := make(state, len(st))
	for o, b := range st {
		out[o] = b
	}
	return out
}

func union(dst, src state) state {
	for o, b := range src { //simlint:orderok per-key bitwise OR; keys are distinct, order-independent
		dst[o] |= b
	}
	return dst
}

func unionAll(states []state) state {
	out := make(state)
	for _, st := range states {
		union(out, st)
	}
	return out
}

// blockCtx is one enclosing breakable construct on the walker's stack.
type blockCtx struct {
	loop      bool
	breaks    []state
	continues []state
}

type walker struct {
	cb       *checker
	file     *ast.File
	site     map[*types.Var]token.Pos
	deferred map[*types.Var]bool
	reported map[*types.Var]bool
	ctxs     []*blockCtx
}

// checkScope runs the balance walk over one function (or closure)
// body, then recurses into the function literals it contains — each
// closure is its own scope with its own obligations.
func (cb *checker) checkScope(file *ast.File, body *ast.BlockStmt) {
	w := &walker{
		cb:       cb,
		file:     file,
		site:     make(map[*types.Var]token.Pos),
		deferred: make(map[*types.Var]bool),
		reported: make(map[*types.Var]bool),
	}
	st, term := w.walkStmts(body.List, make(state))
	if !term {
		w.exitCheck(st, body.End())
	}
	for _, lit := range topFuncLits(body) {
		cb.checkScope(file, lit.Body)
	}
}

// topFuncLits returns the function literals of body that are not nested
// inside another literal.
func topFuncLits(body *ast.BlockStmt) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
			return false
		}
		return true
	})
	return lits
}

func (w *walker) walkStmts(list []ast.Stmt, st state) (state, bool) {
	for _, s := range list {
		var term bool
		st, term = w.stmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (w *walker) stmt(s ast.Stmt, st state) (state, bool) {
	switch s := s.(type) {
	case nil:
		return st, false
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.AssignStmt:
		w.assign(s, st)
		return st, false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.valueSpec(vs, st)
				}
			}
		}
		return st, false
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isPanic(w.cb.pass.TypesInfo, call) {
			w.scanExpr(s.X, st)
			return st, true // fatal by construction; no balance obligation
		}
		w.scanExpr(s.X, st)
		return st, false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scanExpr(r, st)
			if obj := identVar(w.cb.pass.TypesInfo, r); obj != nil {
				if _, ok := st[obj]; ok {
					st[obj] = stDone // ownership transfers to the caller
				}
			}
		}
		w.exitCheck(st, s.Pos())
		return st, true
	case *ast.DeferStmt:
		w.deferCall(s.Call, st)
		return st, false
	case *ast.GoStmt:
		w.scanExpr(s.Call.Fun, st)
		for _, a := range s.Call.Args {
			w.scanExpr(a, st)
			w.handoff(a, st)
		}
		return st, false
	case *ast.SendStmt:
		w.scanExpr(s.Chan, st)
		w.scanExpr(s.Value, st)
		w.handoff(s.Value, st)
		return st, false
	case *ast.IfStmt:
		st, _ = w.stmt(s.Init, st)
		w.scanExpr(s.Cond, st)
		thenSt, thenTerm := w.walkStmts(s.Body.List, clone(st))
		elseSt, elseTerm := st, false
		if s.Else != nil {
			elseSt, elseTerm = w.stmt(s.Else, clone(st))
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return union(thenSt, elseSt), false
		}
	case *ast.ForStmt:
		st, _ = w.stmt(s.Init, st)
		w.scanExpr(s.Cond, st)
		return w.loop(st, s.Cond != nil, func(body state) (state, bool) {
			body, term := w.walkStmts(s.Body.List, body)
			if !term {
				body, _ = w.stmt(s.Post, body)
			}
			return body, term
		})
	case *ast.RangeStmt:
		w.scanExpr(s.X, st)
		return w.loop(st, true, func(body state) (state, bool) {
			return w.walkStmts(s.Body.List, body)
		})
	case *ast.SwitchStmt:
		st, _ = w.stmt(s.Init, st)
		w.scanExpr(s.Tag, st)
		return w.switchBody(st, s.Body, nil)
	case *ast.TypeSwitchStmt:
		st, _ = w.stmt(s.Init, st)
		return w.switchBody(st, s.Body, func() { _, _ = w.stmt(s.Assign, st) })
	case *ast.SelectStmt:
		w.push(&blockCtx{})
		var ends []state
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			cst := clone(st)
			cst, _ = w.stmt(cc.Comm, cst)
			cst, term := w.walkStmts(cc.Body, cst)
			if !term {
				ends = append(ends, cst)
			}
		}
		ctx := w.pop()
		ends = append(ends, ctx.breaks...)
		if len(ends) == 0 {
			return st, len(s.Body.List) > 0 // all clauses terminate (empty select blocks forever too)
		}
		return unionAll(ends), false
	case *ast.BranchStmt:
		return w.branch(s, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	default:
		// ExprStmt-free statements (IncDec, Empty, ...) may still nest
		// calls; scan them.
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.scanExpr(e, st)
				return false
			}
			return true
		})
		return st, false
	}
}

// loop walks one loop body. mayskip says the loop can run zero times
// (it has a condition or ranges over a possibly-empty sequence).
func (w *walker) loop(entry state, mayskip bool, body func(state) (state, bool)) (state, bool) {
	w.push(&blockCtx{loop: true})
	bodySt, bodyTerm := body(clone(entry))
	ctx := w.pop()

	// States reaching the back edge: a normal body completion plus
	// every continue. A buffer first acquired inside the body that is
	// possibly still held there leaks once per iteration.
	var back []state
	if !bodyTerm {
		back = append(back, bodySt)
	}
	back = append(back, ctx.continues...)
	backSt := unionAll(back)
	for _, obj := range sortedVars(backSt) {
		if _, preexisting := entry[obj]; preexisting {
			continue
		}
		if backSt[obj]&stHeld != 0 {
			w.report(obj, "staging buffer acquired inside the loop may still be held when the iteration ends (release it before the next acquire)")
		}
	}

	// States after the loop: the back-edge state exiting through the
	// condition, every break, and (if the body can be skipped) the
	// entry state.
	outs := append([]state{backSt}, ctx.breaks...)
	if mayskip {
		outs = append(outs, entry)
	}
	out := unionAll(outs)
	if !mayskip && len(ctx.breaks) == 0 {
		return out, true // for{} with no break never falls through
	}
	return out, false
}

func (w *walker) switchBody(st state, body *ast.BlockStmt, assign func()) (state, bool) {
	if assign != nil {
		assign()
	}
	w.push(&blockCtx{})
	var ends []state
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			w.scanExpr(e, st)
		}
		cst, term := w.walkStmts(cc.Body, clone(st))
		if !term {
			ends = append(ends, cst)
		}
	}
	ctx := w.pop()
	ends = append(ends, ctx.breaks...)
	if !hasDefault {
		ends = append(ends, st)
	}
	if len(ends) == 0 {
		return st, true
	}
	return unionAll(ends), false
}

func (w *walker) branch(s *ast.BranchStmt, st state) (state, bool) {
	if s.Label != nil || s.Tok == token.GOTO {
		// Labeled jumps and gotos: give up on this path without an
		// exit check (conservative: no false positives, possible
		// misses).
		return st, true
	}
	switch s.Tok {
	case token.BREAK:
		if ctx := w.top(false); ctx != nil {
			ctx.breaks = append(ctx.breaks, clone(st))
		}
		return st, true
	case token.CONTINUE:
		if ctx := w.top(true); ctx != nil {
			ctx.continues = append(ctx.continues, clone(st))
		}
		return st, true
	}
	return st, false // fallthrough: case bodies already merge
}

func (w *walker) push(ctx *blockCtx) { w.ctxs = append(w.ctxs, ctx) }
func (w *walker) pop() *blockCtx {
	ctx := w.ctxs[len(w.ctxs)-1]
	w.ctxs = w.ctxs[:len(w.ctxs)-1]
	return ctx
}

// top returns the innermost context, or the innermost loop context when
// loopOnly is set (continue skips switch/select levels).
func (w *walker) top(loopOnly bool) *blockCtx {
	for i := len(w.ctxs) - 1; i >= 0; i-- {
		if !loopOnly || w.ctxs[i].loop {
			return w.ctxs[i]
		}
	}
	return nil
}

// --- expression effects --------------------------------------------

func (w *walker) assign(a *ast.AssignStmt, st state) {
	for _, r := range a.Rhs {
		w.scanExpr(r, st)
	}
	if len(a.Lhs) != len(a.Rhs) {
		return
	}
	for i := range a.Lhs {
		lhs, rhs := a.Lhs[i], a.Rhs[i]
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && w.cb.isAcquireCall(call) {
			obj := lhsVar(w.cb.pass.TypesInfo, lhs, a.Tok)
			if obj == nil || !isFuncLocal(w.cb.pass, obj) {
				continue // acquired straight into a structure; untracked hand-off
			}
			if st[obj] == stHeld && !w.deferred[obj] {
				w.report(obj, "staging buffer reacquired while the previous buffer is still held")
			}
			st[obj] = stHeld
			w.site[obj] = call.Pos()
			continue
		}
		// A tracked buffer copied anywhere — a field, an element, an
		// alias — is a hand-off; the obligation leaves this scope.
		w.handoff(rhs, st)
	}
}

func (w *walker) valueSpec(vs *ast.ValueSpec, st state) {
	for _, v := range vs.Values {
		w.scanExpr(v, st)
	}
	if len(vs.Names) != len(vs.Values) {
		return
	}
	for i, name := range vs.Names {
		call, ok := ast.Unparen(vs.Values[i]).(*ast.CallExpr)
		if !ok || !w.cb.isAcquireCall(call) {
			continue
		}
		obj, _ := w.cb.pass.TypesInfo.Defs[name].(*types.Var)
		if obj == nil || !isFuncLocal(w.cb.pass, obj) {
			continue
		}
		st[obj] = stHeld
		w.site[obj] = call.Pos()
	}
}

// scanExpr applies release and hand-off effects of every call nested in
// e. Function literals are boundaries: outer buffers they capture are
// handed off, and their own bodies are checked as separate scopes.
func (w *walker) scanExpr(e ast.Expr, st state) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			w.call(n, st)
		case *ast.FuncLit:
			w.closure(n, st)
			return false
		}
		return true
	})
}

func (w *walker) call(c *ast.CallExpr, st state) {
	// append(s, b) stores the buffer in the slice: hand-off.
	if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok && id.Name == "append" {
		if _, builtin := w.cb.pass.TypesInfo.Uses[id].(*types.Builtin); builtin {
			for _, a := range c.Args[1:] {
				w.handoff(a, st)
			}
			return
		}
	}
	callee := analysis.Callee(w.cb.pass.TypesInfo, c)
	for _, idx := range w.cb.releaseParams(callee) {
		if idx < len(c.Args) {
			w.release(c.Args[idx], st)
		}
	}
	// Other call arguments are uses, not transfers: kernel launches and
	// codecs borrow the staging buffer and the owner still releases it.
}

func (w *walker) deferCall(c *ast.CallExpr, st state) {
	// A deferred release (direct or via closure) covers every later
	// exit of the scope.
	before := make(map[*types.Var]status, len(st))
	for o, b := range st {
		before[o] = b
	}
	w.scanExpr(c.Fun, st)
	w.call(c, st)
	if lit, ok := ast.Unparen(c.Fun).(*ast.FuncLit); ok {
		w.closure(lit, st)
	}
	for _, a := range c.Args {
		w.scanExpr(a, st)
	}
	for o := range st {
		if before[o]&stHeld != 0 && st[o] == stDone {
			w.deferred[o] = true
		}
	}
}

func (w *walker) closure(lit *ast.FuncLit, st state) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj, ok := w.cb.pass.TypesInfo.Uses[id].(*types.Var); ok {
			if _, tracked := st[obj]; tracked {
				st[obj] = stDone // captured: the closure owns it now
			}
		}
		return true
	})
}

func (w *walker) release(e ast.Expr, st state) {
	if obj := identVar(w.cb.pass.TypesInfo, e); obj != nil {
		if _, tracked := st[obj]; tracked {
			st[obj] = stDone
		}
	}
}

func (w *walker) handoff(e ast.Expr, st state) {
	if obj := identVar(w.cb.pass.TypesInfo, e); obj != nil {
		if _, tracked := st[obj]; tracked {
			st[obj] = stDone
		}
	}
}

// exitCheck reports every buffer some path still holds at an exit.
func (w *walker) exitCheck(st state, exit token.Pos) {
	for _, obj := range sortedVars(st) {
		if st[obj]&stHeld == 0 || w.deferred[obj] {
			continue
		}
		line := w.cb.pass.Position(exit).Line
		w.report(obj, "staging buffer acquired here is not released on every path (path exiting at line %d still holds it)", line)
	}
}

// sortedVars returns st's keys in declaration order, so diagnostics
// cannot flap between runs.
func sortedVars(st state) []*types.Var {
	vars := make([]*types.Var, 0, len(st))
	for o := range st {
		vars = append(vars, o)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })
	return vars
}

func (w *walker) report(obj *types.Var, format string, args ...any) {
	if w.reported[obj] {
		return
	}
	site, ok := w.site[obj]
	if !ok {
		return
	}
	if w.cb.pass.DirectivesFor(w.file).Allows(directive, site) {
		w.reported[obj] = true
		return
	}
	w.reported[obj] = true
	w.cb.pass.Reportf(site, format, args...)
}

// --- small helpers --------------------------------------------------

func identVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

func lhsVar(info *types.Info, e ast.Expr, tok token.Token) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if tok == token.DEFINE {
		if v, ok := info.Defs[id].(*types.Var); ok {
			return v
		}
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// isFuncLocal reports whether v is a function-scoped variable of the
// package under analysis (not a field, global, or imported object).
func isFuncLocal(pass *analysis.Pass, v *types.Var) bool {
	return v.Pkg() == pass.Pkg && !v.IsField() && v.Parent() != pass.Pkg.Scope()
}

func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

func paramIndex(info *types.Info, decl *ast.FuncDecl) map[*types.Var]int {
	params := make(map[*types.Var]int)
	if decl.Type.Params == nil {
		return params
	}
	i := 0
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				params[v] = i
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	return params
}
