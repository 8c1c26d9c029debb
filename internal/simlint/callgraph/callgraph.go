// Package callgraph builds a per-package call graph for the simlint
// suite: every function or method declared in the package, with the
// statically resolvable calls its body (closures included) makes. It is
// not itself a check — it reports nothing — but the interprocedural
// analyzer phasecharge declares it in its Requires and reads the graph
// from Pass.ResultOf.
//
// Edges to functions declared in the same package point at nodes of the
// graph; edges to imported functions carry only the callee object, which
// the dependent analyzers resolve through facts (the cross-package half
// of the interprocedural story).
package callgraph

import (
	"go/ast"
	"go/types"

	"mpicomp/internal/simlint/analysis"
)

// Analyzer builds the package call graph. Its result is a *Graph.
var Analyzer = &analysis.Analyzer{
	Name: "callgraph",
	Doc:  "build the intra-package call graph consumed by the interprocedural analyzers",
	Run:  run,
}

// Graph is one package's call graph.
type Graph struct {
	// Nodes maps each declared function or method to its node, keyed by
	// the *types.Func the declaration defines.
	Nodes map[*types.Func]*Node
}

// Node is one declared function with its outgoing calls.
type Node struct {
	Fn    *types.Func
	Decl  *ast.FuncDecl
	Calls []Call
}

// Call is one statically resolved call site.
type Call struct {
	Site   *ast.CallExpr
	Callee *types.Func
}

// NodeOf returns the node of a function declared in this package, or nil.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.Nodes[fn]
}

// Reaches reports whether pred holds for fn or for any callee reachable
// from it through declarations of this package. pred is consulted for
// every callee — local and imported alike — so dependents can recognize
// imported functions through facts; traversal only continues through
// callees that have nodes here.
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
		node := g.Nodes[f]
		if node == nil {
			return false
		}
		for _, c := range node.Calls {
			if visit(c.Callee) {
				return true
			}
		}
		return false
	}
	return visit(fn)
}

func run(pass *analysis.Pass) (any, error) {
	g := &Graph{Nodes: make(map[*types.Func]*Node)}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			node := &Node{Fn: fn, Decl: fd}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := analysis.Callee(pass.TypesInfo, call); callee != nil {
					node.Calls = append(node.Calls, Call{Site: call, Callee: callee})
				}
				return true
			})
			g.Nodes[fn] = node
		}
	}
	return g, nil
}
