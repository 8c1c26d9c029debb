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
