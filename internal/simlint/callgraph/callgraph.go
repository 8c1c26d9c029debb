// Package callgraph builds a per-package call graph for phasecharge:
// every function or method declared in the package, with the statically
// resolvable calls its body (closures included) makes.
//
// Edges to functions declared in the same package lead to further entries
// of the graph; edges to imported functions carry only the callee object,
// which phasecharge resolves through facts (the cross-package half of the
// interprocedural story).
package callgraph

import (
	"go/ast"
	"go/types"

	"mpicomp/internal/simlint/analysis"
)

// Graph is one package's call graph: each declared function or method,
// keyed by the *types.Func its declaration defines, with the functions
// its body calls, in source order.
type Graph struct {
	Calls map[*types.Func][]*types.Func
}

// Build returns the call graph of the package files, type-checked into info.
func Build(info *types.Info, files []*ast.File) *Graph {
	g := &Graph{Calls: make(map[*types.Func][]*types.Func)}
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			var calls []*types.Func
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if callee := analysis.Callee(info, call); callee != nil {
						calls = append(calls, callee)
					}
				}
				return true
			})
			g.Calls[fn] = calls
		}
	}
	return g
}

// Reaches reports whether pred holds for fn or for any callee reachable
// from it through declarations of this package. pred is consulted for
// every callee — local and imported alike — so phasecharge can recognize
// imported functions through facts; traversal only continues through
// callees declared here.
func (g *Graph) Reaches(fn *types.Func, pred func(*types.Func) bool) bool {
	seen := make(map[*types.Func]bool)
	var visit func(f *types.Func) bool
	visit = func(f *types.Func) bool {
		if f == nil || seen[f] {
			return false
		}
		seen[f] = true
		if pred(f) {
			return true
		}
		for _, c := range g.Calls[f] {
			if visit(c) {
				return true
			}
		}
		return false
	}
	return visit(fn)
}
