package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Unit is one type-checked package handed to RunUnit — the common
// currency of simlint.Run and the linttest golden runner.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Expand returns analyzers plus their transitive Requires in an order
// where every dependency precedes its dependents, erroring on a cycle.
func Expand(analyzers []*Analyzer) ([]*Analyzer, error) {
	const (
		visiting = 1
		done     = 2
	)
	state := make(map[*Analyzer]int)
	var order []*Analyzer
	var visit func(a *Analyzer) error
	visit = func(a *Analyzer) error {
		switch state[a] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("analysis: requirement cycle through %s", a.Name)
		}
		state[a] = visiting
		for _, dep := range a.Requires {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[a] = done
		order = append(order, a)
		return nil
	}
	for _, a := range analyzers {
		if err := visit(a); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// RunUnit applies the analyzers — Requires dependencies included, each
// run exactly once, dependencies first — to one package. Results are
// threaded into dependents via Pass.ResultOf, and facts flow through
// store (which may be nil to disable facts). Diagnostics are delivered
// to report only for the analyzers in the requested list, never for
// dependencies pulled in through Requires.
func RunUnit(u Unit, analyzers []*Analyzer, store *FactStore, report func(*Analyzer, Diagnostic)) error {
	order, err := Expand(analyzers)
	if err != nil {
		return err
	}
	requested := make(map[*Analyzer]bool, len(analyzers))
	for _, a := range analyzers {
		requested[a] = true
	}
	results := make(map[*Analyzer]any, len(order))
	for _, a := range order {
		a := a
		pass := &Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
			ResultOf:  make(map[*Analyzer]any, len(a.Requires)),
			facts:     store,
			Report: func(d Diagnostic) {
				if requested[a] && report != nil {
					d.Category = a.Name
					report(a, d)
				}
			},
		}
		for _, dep := range a.Requires {
			pass.ResultOf[dep] = results[dep]
		}
		res, err := a.Run(pass)
		if err != nil {
			pkg := "?"
			if u.Pkg != nil {
				pkg = u.Pkg.Path()
			}
			return fmt.Errorf("%s on %s: %v", a.Name, pkg, err)
		}
		results[a] = res
	}
	return nil
}
