package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestCodecIDBranchesOnlyInTable keeps the one-path shape from eroding:
// outside codec.go nothing in this package may switch on or compare
// against a codec id (the table is the only dispatch), and mpi/typed.go
// may not build envelopes (the typed API is boundary validation over the
// one isend, not a second send path).
func TestCodecIDBranchesOnlyInTable(t *testing.T) {
	fset := token.NewFileSet()
	isCodecID := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && (id.Name == "AlgoMPC" || id.Name == "AlgoZFP")
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if name == "codec.go" || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CaseClause:
				for _, e := range n.List {
					if isCodecID(e) {
						t.Errorf("%s: case on a codec id outside codec.go", fset.Position(e.Pos()))
					}
				}
			case *ast.BinaryExpr:
				if (n.Op == token.EQL || n.Op == token.NEQ) && (isCodecID(n.X) || isCodecID(n.Y)) {
					t.Errorf("%s: comparison against a codec id outside codec.go", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
	typed, err := parser.ParseFile(fset, "../mpi/typed.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(typed, func(n ast.Node) bool {
		if lit, ok := n.(*ast.CompositeLit); ok {
			if id, ok := lit.Type.(*ast.Ident); ok && id.Name == "envelope" {
				t.Errorf("%s: mpi/typed.go builds an envelope", fset.Position(lit.Pos()))
			}
		}
		return true
	})
}

// TestLayoutsMoveThroughPlan keeps the O(1) layout from eroding back into
// a per-message table: no non-test file of the packages a typed message
// passes through flattens a layout (AppendRuns) or searches one
// (sort.Search), the nine run-table helpers stay deleted, and this package
// moves strided bytes only by calling Plan.Gather and Plan.Scatter — from
// the places listed — never by reading a plan's levels itself.
func TestLayoutsMoveThroughPlan(t *testing.T) {
	fset := token.NewFileSet()
	gone := map[string]bool{
		"typedViewLocked": true, "runAt": true,
		"gatherBytesAt": true, "scatterBytesAt": true, "gatherFloatsAt": true, "scatterFloatsAt": true,
		"bytesToFloatsAt": true, "floatsToBytesAt": true, "scatterPrefix": true,
	}
	// isPlan matches the two ways this package holds a plan: t.Plan() and
	// a typedView's plan field.
	isPlan := func(e ast.Expr) bool {
		if call, ok := e.(*ast.CallExpr); ok {
			e = call.Fun
		}
		sel, ok := e.(*ast.SelectorExpr)
		return ok && (sel.Sel.Name == "Plan" || sel.Sel.Name == "plan")
	}
	movers := map[string]bool{}
	for _, dir := range []string{".", "../dtype", "../mpi", "../awpodc", "../zfp"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if gone[fn.Name.Name] {
					t.Errorf("%s: %s is back", fset.Position(fn.Pos()), fn.Name.Name)
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					pkg, _ := sel.X.(*ast.Ident)
					switch {
					case sel.Sel.Name == "AppendRuns":
						t.Errorf("%s: a layout is flattened into a run table", fset.Position(sel.Pos()))
					case pkg != nil && pkg.Name == "sort" && sel.Sel.Name == "Search":
						t.Errorf("%s: sort.Search on the message path", fset.Position(sel.Pos()))
					case dir != "." || !isPlan(sel.X):
					case sel.Sel.Name == "Gather" || sel.Sel.Name == "Scatter":
						movers[fn.Name.Name] = true
					case sel.Sel.Name != "Run": // Run != 0 is how a view says it is strided
						t.Errorf("%s: core reads a plan's %s itself", fset.Position(sel.Pos()), sel.Sel.Name)
					}
					return true
				})
			}
		}
	}
	// The MPC and ZFP parts of both directions, the bypass view, the
	// uncompressed typed receive and the ratio probe. The other two
	// consumers are mpi's eager typed receive and dtype.Pack/Unpack.
	for _, fn := range []string{"RunPart", "bypassViewLocked", "decompress", "probeRatioLocked"} {
		if !movers[fn] {
			t.Errorf("%s no longer moves strided bytes through Plan.Gather/Scatter", fn)
		}
		delete(movers, fn)
	}
	for fn := range movers {
		t.Errorf("%s moves strided bytes: a new consumer of Plan.Gather/Scatter belongs in this list", fn)
	}
}
