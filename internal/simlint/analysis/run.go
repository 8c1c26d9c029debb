package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Unit is one type-checked package handed to RunUnit.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// RunUnit applies each analyzer to one package, facts flowing through
// store (which may be nil to disable facts), and hands every diagnostic to
// report with the analyzer that found it.
func RunUnit(u Unit, analyzers []*Analyzer, store *FactStore, report func(*Analyzer, Diagnostic)) {
	for _, a := range analyzers {
		a := a
		a.Run(&Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
			facts:     store,
			Report:    func(d Diagnostic) { report(a, d) },
		})
	}
}
