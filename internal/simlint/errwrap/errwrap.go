// Package errwrap enforces wrap-and-Is discipline for the transport's
// error sentinels.
//
// The mpi package surfaces failures through sentinel errors —
// ErrDeliveryFailed when a retry budget is exhausted, ErrPeerFailed
// when the health watchdog declares a rank dead — and every layer in
// between annotates them with context (kind, ranks, sequence,
// attempt). That only works if intermediate layers wrap with %w and
// consumers test with errors.Is: a `==` comparison or a %v rewrap
// silently breaks the chain, and callers start treating fatal peer
// failures as retryable delivery noise.
//
// The analyzer reports, for any package-level `Err*` sentinel of a
// package named mpi:
//
//   - `err == mpi.ErrX` / `err != mpi.ErrX` comparisons (use
//     errors.Is);
//   - `switch err { case mpi.ErrX: }` clauses (same);
//   - fmt.Errorf calls that pass a sentinel to a verb other than %w
//     (use %w so errors.Is keeps seeing the sentinel).
package errwrap

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"mpicomp/internal/simlint/analysis"
)

// Analyzer is the errwrap pass.
var Analyzer = &analysis.Analyzer{
	Name: "errwrap",
	Doc:  "require %w wrapping and errors.Is for mpi.Err* sentinels instead of == or %v",
	Run:  run,
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkCompare(pass, n)
			case *ast.SwitchStmt:
				checkSwitch(pass, n)
			case *ast.CallExpr:
				checkErrorf(pass, n)
			}
			return true
		})
	}
}

// sentinelOf returns the mpi.Err* sentinel object e refers to, or nil.
func sentinelOf(pass *analysis.Pass, e ast.Expr) *types.Var {
	obj := analysis.UsedIdent(pass.TypesInfo, e)
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || !strings.HasPrefix(v.Name(), "Err") {
		return nil
	}
	if !analysis.PkgPathIs(v.Pkg(), "mpi") {
		return nil
	}
	// Package-level only: sentinels live in package scope.
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !types.Implements(v.Type(), errorInterface(v.Pkg())) && !types.IsInterface(v.Type()) {
		return nil
	}
	return v
}

func errorInterface(pkg *types.Package) *types.Interface {
	return types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
}

func checkCompare(pass *analysis.Pass, b *ast.BinaryExpr) {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return
	}
	for _, side := range []ast.Expr{b.X, b.Y} {
		if s := sentinelOf(pass, side); s != nil {
			pass.Reportf(b.Pos(),
				"%s comparison against sentinel %s misses wrapped errors: use errors.Is(err, %s.%s)",
				b.Op, s.Name(), s.Pkg().Name(), s.Name())
			return
		}
	}
}

func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	if t := pass.TypesInfo.Types[sw.Tag].Type; t == nil || !types.IsInterface(t) {
		return
	}
	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if s := sentinelOf(pass, e); s != nil {
				pass.Reportf(e.Pos(),
					"switch case compares sentinel %s with ==, missing wrapped errors: use errors.Is(err, %s.%s)",
					s.Name(), s.Pkg().Name(), s.Name())
			}
		}
	}
}

// checkErrorf verifies that sentinels passed to fmt.Errorf ride a %w.
func checkErrorf(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if !analysis.IsPkgFunc(fn, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	verbs, exact := scanVerbs(constant.StringVal(tv.Value))
	if !exact {
		return // %[n] indexing etc.: bail rather than misattribute
	}
	for i, arg := range call.Args[1:] {
		s := sentinelOf(pass, arg)
		if s == nil {
			continue
		}
		if i >= len(verbs) || verbs[i] != 'w' {
			pass.Reportf(arg.Pos(),
				"sentinel %s formatted without %%w: callers lose errors.Is(err, %s.%s); wrap it with %%w",
				s.Name(), s.Pkg().Name(), s.Name())
		}
	}
}

// scanVerbs returns the operand-consuming verbs of a format string in
// argument order (a '*' width/precision consumes an operand and is
// recorded as '*'). exact is false when the format uses explicit
// argument indexes, which this scanner does not model.
func scanVerbs(format string) (verbs []byte, exact bool) {
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		for i < len(format) {
			c := format[i]
			if c == '%' {
				break // literal %%
			}
			if c == '[' {
				return nil, false
			}
			if c == '*' {
				verbs = append(verbs, '*')
				i++
				continue
			}
			if strings.IndexByte("+-# 0123456789.", c) >= 0 {
				i++
				continue
			}
			verbs = append(verbs, c)
			break
		}
	}
	return verbs, true
}
