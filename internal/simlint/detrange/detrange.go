// Package detrange flags map iteration whose body has order-dependent
// effects.
//
// Go randomizes map iteration order per run. Everything the simulator
// emits — wire payloads, checksums, simtime charges, accumulated stats,
// event schedules — must be identical across runs, so a `for k := range
// m` that writes to such state in iteration order is a latent
// nondeterminism bug that only an unlucky seed reveals. gZCCL-style
// compression-in-the-loop stacks live or die by reproducible ratio and
// timing accounting; this analyzer makes the property structural.
//
// A map-range loop passes when every statement in its body is
// order-independent:
//
//   - delete from a map, or assignment into a map element;
//   - declarations and writes whose targets live inside the loop body;
//   - commutative integer accumulation (x += e, x++, x |= e, …) where
//     the accumulator is not otherwise read in the body;
//   - append to a function-local slice that a statement after the loop
//     (in the same block) visibly sorts — the "collect keys, sort,
//     iterate" idiom;
//   - assigning a constant to an outer variable (found = true);
//   - if/else and nested blocks built from the above.
//
// Anything else — function calls, channel sends, early return/break,
// float accumulation, writes through fields — is reported unless the
// loop carries a `//simlint:orderok <reason>` directive.
package detrange

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"mpicomp/internal/simlint/analysis"
)

// Directive is the annotation that blesses an order-insensitive loop
// the analyzer cannot prove safe.
const Directive = "orderok"

// Analyzer is the detrange pass.
var Analyzer = &analysis.Analyzer{
	Name:       "detrange",
	Doc:        "flag range-over-map loops with order-dependent effects (wire bytes, charges, stats)",
	Directives: []string{Directive},
	Run:        run,
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Files {
		dirs := pass.DirectivesFor(file)
		// blocks maps every statement to its enclosing block's statement
		// list, so the sorted-guard check can look past the loop.
		inspectWithBlocks(file, func(rng *ast.RangeStmt, after []ast.Stmt) {
			if !isMapType(pass.TypesInfo.Types[rng.X].Type) {
				return
			}
			if dirs.Allows(Directive, rng.Pos()) {
				return
			}
			c := &checker{pass: pass, rng: rng, after: after}
			c.block(rng.Body)
			c.finish()
			for _, v := range c.violations {
				pass.Reportf(v.pos,
					"map iteration order reaches ordered state (%s): iterate sorted keys or annotate //simlint:orderok",
					v.reason)
			}
		})
	}
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// inspectWithBlocks calls fn for every range statement, passing the
// statements that follow it in its innermost enclosing block.
func inspectWithBlocks(file *ast.File, fn func(*ast.RangeStmt, []ast.Stmt)) {
	var walk func(list []ast.Stmt)
	visit := func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.BlockStmt:
				walk(m.List)
				return false
			case *ast.RangeStmt:
				fn(m, nil)
				walk(m.Body.List)
				return false
			}
			return true
		})
	}
	walk = func(list []ast.Stmt) {
		for i, s := range list {
			if rng, ok := s.(*ast.RangeStmt); ok {
				fn(rng, list[i+1:])
				walk(rng.Body.List)
				continue
			}
			visit(s)
		}
	}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			walk(fd.Body.List)
		}
	}
}

type violation struct {
	pos    token.Pos
	reason string
}

// checker classifies one map-range body.
type checker struct {
	pass  *analysis.Pass
	rng   *ast.RangeStmt
	after []ast.Stmt

	violations []violation
	// accums are integer-accumulator objects (x += e); finish()
	// rejects the loop if any is also read elsewhere in the body.
	accums map[types.Object][]ast.Node
	// appends are slice objects appended to; finish() demands a
	// visible sort after the loop for each.
	appends map[types.Object]token.Pos
}

func (c *checker) bad(pos token.Pos, format string, args ...any) {
	c.violations = append(c.violations, violation{pos, fmt.Sprintf(format, args...)})
}

func (c *checker) block(b *ast.BlockStmt) {
	for _, s := range b.List {
		c.stmt(s)
	}
}

func (c *checker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.DeclStmt, *ast.EmptyStmt:
		// Local declarations introduce loop-scoped state; harmless.
	case *ast.BlockStmt:
		c.block(s)
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init)
		}
		c.block(s.Body)
		if s.Else != nil {
			c.stmt(s.Else)
		}
	case *ast.BranchStmt:
		switch s.Tok {
		case token.CONTINUE:
			// Skipping an iteration is order-independent.
		default:
			c.bad(s.Pos(), "%s exits the loop at an order-dependent iteration", s.Tok)
		}
	case *ast.ReturnStmt:
		c.bad(s.Pos(), "return exits the loop at an order-dependent iteration")
	case *ast.SendStmt:
		c.bad(s.Pos(), "channel send in iteration order")
	case *ast.GoStmt:
		c.bad(s.Pos(), "goroutine launched in iteration order")
	case *ast.DeferStmt:
		c.bad(s.Pos(), "defer scheduled in iteration order")
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			c.callStmt(call)
		}
	case *ast.IncDecStmt:
		c.accumulate(s.X, s.X, s.Pos())
	case *ast.AssignStmt:
		c.assign(s)
	case *ast.RangeStmt, *ast.ForStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.LabeledStmt:
		c.bad(s.Pos(), "nested control flow the analyzer cannot prove order-independent")
	default:
		c.bad(s.Pos(), "statement the analyzer cannot prove order-independent")
	}
}

// callStmt handles a call in statement position: only delete(m, k) is
// order-independent; anything else may write ordered state.
func (c *checker) callStmt(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "delete" {
		if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			return
		}
	}
	c.bad(call.Pos(), "call %s runs in iteration order", exprString(call.Fun))
}

func (c *checker) assign(s *ast.AssignStmt) {
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		for i, lhs := range s.Lhs {
			var rhs ast.Expr
			if len(s.Rhs) == len(s.Lhs) {
				rhs = s.Rhs[i]
			}
			c.assignOne(s, lhs, rhs)
		}
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
		c.accumulate(s.Lhs[0], s.Lhs[0], s.Pos())
	default: // -=, /=, %=, <<=, >>=, &^= : not commutative-associative
		c.bad(s.Pos(), "non-commutative accumulation %s", s.Tok)
	}
}

func (c *checker) assignOne(s *ast.AssignStmt, lhs, rhs ast.Expr) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := c.objectOf(l)
		if obj == nil || c.declaredInLoop(obj) || s.Tok == token.DEFINE && c.pass.TypesInfo.Defs[l] != nil {
			return // loop-local state
		}
		// s = append(s, …) into an outer local: allowed if sorted later.
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin &&
					len(call.Args) > 0 && c.objectOf(firstIdent(call.Args[0])) == obj {
					if c.appends == nil {
						c.appends = make(map[types.Object]token.Pos)
					}
					if _, seen := c.appends[obj]; !seen {
						c.appends[obj] = s.Pos()
					}
					return
				}
			}
		}
		// Writing a constant is idempotent (found = true).
		if rhs != nil {
			if tv, ok := c.pass.TypesInfo.Types[rhs]; ok && tv.Value != nil {
				return
			}
		}
		c.bad(s.Pos(), "outer variable %s overwritten in iteration order", l.Name)
	case *ast.IndexExpr:
		// m2[k] = v is order-independent: map keys are distinct.
		if isMapType(c.pass.TypesInfo.Types[l.X].Type) {
			return
		}
		c.bad(s.Pos(), "indexed write %s in iteration order", exprString(l))
	default:
		c.bad(s.Pos(), "write through %s in iteration order", exprString(lhs))
	}
}

// accumulate records x += e / x++ style updates: commutative and
// associative only over integers, and only if x isn't read elsewhere.
func (c *checker) accumulate(target ast.Expr, read ast.Expr, pos token.Pos) {
	id, ok := ast.Unparen(target).(*ast.Ident)
	if !ok {
		c.bad(pos, "accumulation into %s in iteration order", exprString(target))
		return
	}
	obj := c.objectOf(id)
	if obj == nil {
		return
	}
	if c.declaredInLoop(obj) {
		return
	}
	basic, ok := obj.Type().Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		c.bad(pos, "non-integer accumulation into %s is ordering-sensitive", id.Name)
		return
	}
	if c.accums == nil {
		c.accums = make(map[types.Object][]ast.Node)
	}
	c.accums[obj] = append(c.accums[obj], read)
}

// finish applies the whole-body checks: accumulators must not be read
// outside their own updates, and appended slices must be sorted after
// the loop. Its own maps are iterated in declaration order — this
// analyzer holds itself to the invariant it enforces, so diagnostic
// order cannot flap between runs.
func (c *checker) finish() {
	var accums []types.Object
	for obj := range c.accums {
		accums = append(accums, obj)
	}
	sortByPos(accums)
	for _, obj := range accums {
		if pos, read := c.readOutside(obj, c.accums[obj]); read {
			c.bad(pos, "accumulator %s is both updated and read in the loop body", obj.Name())
		}
	}
	var appends []types.Object
	for obj := range c.appends {
		appends = append(appends, obj)
	}
	sortByPos(appends)
	for _, obj := range appends {
		if pos2, read := c.readOutsideAppends(obj); read {
			c.bad(pos2, "slice %s is both appended to and read in the loop body", obj.Name())
			continue
		}
		if !c.sortedAfter(obj) {
			c.bad(c.appends[obj], "slice %s collects map keys/values but is not visibly sorted after the loop", obj.Name())
		}
	}
}

func sortByPos(objs []types.Object) {
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
}

// readOutside reports a use of obj in the loop body outside the given
// accumulation nodes.
func (c *checker) readOutside(obj types.Object, within []ast.Node) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(c.rng.Body, func(n ast.Node) bool {
		for _, w := range within {
			if n == w {
				return false
			}
		}
		if id, ok := n.(*ast.Ident); ok && !found && c.objectOf(id) == obj {
			pos, found = id.Pos(), true
		}
		return !found
	})
	return pos, found
}

// readOutsideAppends reports a use of obj in the body that is not part
// of an `obj = append(obj, …)` statement.
func (c *checker) readOutsideAppends(obj types.Object) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(c.rng.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
			if id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok && c.objectOf(id) == obj {
				return false // the append statement itself
			}
		}
		if id, ok := n.(*ast.Ident); ok && c.objectOf(id) == obj {
			pos, found = id.Pos(), true
		}
		return !found
	})
	return pos, found
}

// sortedAfter scans the statements following the loop in its enclosing
// block for a visible sort of obj: sort.* / slices.Sort* with obj as
// the first argument, or any call whose name mentions "sort" taking obj.
func (c *checker) sortedAfter(obj types.Object) bool {
	for _, s := range c.after {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			name := exprString(call.Fun)
			if !strings.Contains(strings.ToLower(name), "sort") {
				return true
			}
			for _, arg := range call.Args {
				if c.objectOf(firstIdent(arg)) == obj {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

func (c *checker) objectOf(id *ast.Ident) types.Object {
	if id == nil {
		return nil
	}
	if o := c.pass.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return c.pass.TypesInfo.Defs[id]
}

// declaredInLoop reports whether obj's declaration lies inside the
// range body (loop-scoped state cannot leak ordering).
func (c *checker) declaredInLoop(obj types.Object) bool {
	return obj.Pos() >= c.rng.Body.Pos() && obj.Pos() <= c.rng.Body.End()
}

func firstIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[…]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(…)"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	default:
		return "expression"
	}
}
