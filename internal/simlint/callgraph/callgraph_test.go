package callgraph_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"mpicomp/internal/simlint/callgraph"
	"mpicomp/internal/simlint/loader"
)

const src = `package cg

type T struct{}

func leaf() {}

func mid() { leaf() }

func top() {
	f := func() { mid() }
	f()
}

func (T) M() { top() }

func alone() {}
`

// buildGraph type-checks src and builds its call graph.
func buildGraph(t *testing.T) (*callgraph.Graph, *types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cg.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := loader.NewInfo()
	conf := types.Config{}
	pkg, err := conf.Check("cg", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return callgraph.Build(info, []*ast.File{f}), pkg
}

func fnOf(t *testing.T, pkg *types.Package, name string) *types.Func {
	t.Helper()
	if obj, ok := pkg.Scope().Lookup(name).(*types.Func); ok {
		return obj
	}
	t.Fatalf("function %s not found", name)
	return nil
}

func TestGraphNodesAndEdges(t *testing.T) {
	g, pkg := buildGraph(t)
	if len(g.Calls) != 5 {
		t.Errorf("graph has %d functions, want 5 (leaf, mid, top, T.M, alone)", len(g.Calls))
	}

	mid := fnOf(t, pkg, "mid")
	calls, ok := g.Calls[mid]
	if !ok {
		t.Fatal("mid is not in the graph")
	}
	if len(calls) != 1 || calls[0].Name() != "leaf" {
		t.Errorf("mid's calls = %v, want one call to leaf", calls)
	}

	// Calls inside closures belong to the enclosing declaration.
	found := false
	for _, c := range g.Calls[fnOf(t, pkg, "top")] {
		if c.Name() == "mid" {
			found = true
		}
	}
	if !found {
		t.Errorf("top's calls = %v, want the closure's call to mid included", g.Calls[fnOf(t, pkg, "top")])
	}

	// Methods are keyed by their *types.Func.
	tn := pkg.Scope().Lookup("T").(*types.TypeName)
	m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, "M")
	if _, ok := g.Calls[m.(*types.Func)]; !ok {
		t.Error("method T.M is not in the graph")
	}
}

func TestReaches(t *testing.T) {
	g, pkg := buildGraph(t)
	leaf := fnOf(t, pkg, "leaf")
	top := fnOf(t, pkg, "top")
	alone := fnOf(t, pkg, "alone")
	isLeaf := func(f *types.Func) bool { return f == leaf }

	if !g.Reaches(top, isLeaf) {
		t.Error("top does not reach leaf through mid")
	}
	if !g.Reaches(leaf, isLeaf) {
		t.Error("Reaches must consult the predicate on the root itself")
	}
	if g.Reaches(alone, isLeaf) {
		t.Error("alone reaches leaf")
	}
	if g.Reaches(leaf, func(f *types.Func) bool { return f == top }) {
		t.Error("Reaches followed an edge backwards")
	}
	if g.Reaches(nil, isLeaf) {
		t.Error("Reaches(nil) reported true")
	}
}
