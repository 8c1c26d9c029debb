// Package simlint bundles the repository's custom static analyzers for
// the bug classes replay does not catch: map iteration order reaching
// ordered state, unwrapped mpi sentinels, and payload work that charges
// no simulated time. See DESIGN.md §10 for the contract each analyzer
// guards.
//
// Run is the one driver: cmd/simlint calls it on the command line, and
// TestTreeIsSimlintClean calls it in-process to keep the tree at zero
// diagnostics.
package simlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"

	"mpicomp/internal/simlint/analysis"
	"mpicomp/internal/simlint/detrange"
	"mpicomp/internal/simlint/errwrap"
	"mpicomp/internal/simlint/loader"
	"mpicomp/internal/simlint/phasecharge"
)

// Analyzers returns the full simlint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detrange.Analyzer,
		errwrap.Analyzer,
		phasecharge.Analyzer,
	}
}

// ByName returns the named analyzers, erroring on unknown names.
func ByName(names []string) ([]*analysis.Analyzer, error) {
	all := Analyzers()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Diagnostic is one resolved finding.
type Diagnostic struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Position, d.Message, d.Analyzer)
}

// Run loads the packages matching patterns under dir and applies the
// analyzers, returning findings sorted by position. Packages are
// processed in dependency order with one shared fact store, so facts an
// analyzer exports over a dependency are visible while its importers
// are analyzed. Every //simlint:<name> directive that no analyzer of the
// suite declares is a finding too. Type-check errors in the tree are
// returned as an error: analyzers need sound type information to be
// trusted.
func Run(dir string, analyzers []*analysis.Analyzer, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := loader.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	store := analysis.NewFactStore(analyzers)
	var diags []Diagnostic
	for _, pkg := range depOrder(pkgs) {
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("type errors in %s (simlint needs a compiling tree): %v",
				pkg.ImportPath, pkg.TypeErrors[0])
		}
		diags = append(diags, unownedDirectives(pkg.Fset, pkg.Files)...)
		unit := analysis.Unit{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info}
		analysis.RunUnit(unit, analyzers, store, func(a *analysis.Analyzer, d analysis.Diagnostic) {
			diags = append(diags, Diagnostic{
				Position: pkg.Fset.Position(d.Pos),
				Analyzer: a.Name,
				Message:  d.Message,
			})
		})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// unownedDirectives reports the directives in files that no analyzer of
// the suite declares — a typo, or one left behind by a retired analyzer —
// which would otherwise suppress nothing and pass silently.
func unownedDirectives(fset *token.FileSet, files []*ast.File) []Diagnostic {
	owned := map[string]bool{}
	for _, a := range Analyzers() {
		for _, name := range a.Directives {
			owned[name] = true
		}
	}
	var out []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, name := range analysis.DirectiveNames(c.Text) {
					if !owned[name] {
						out = append(out, Diagnostic{Position: fset.Position(c.Pos()), Analyzer: "simlint",
							Message: fmt.Sprintf("unknown directive simlint:%s: no analyzer declares it", name)})
					}
				}
			}
		}
	}
	return out
}

// depOrder returns the target packages with every dependency before its
// importers (ties broken by the loader's deterministic name order), the
// processing order the facts layer requires.
func depOrder(pkgs []*loader.Package) []*loader.Package {
	byPath := make(map[string]*loader.Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	visited := make(map[string]bool, len(pkgs))
	out := make([]*loader.Package, 0, len(pkgs))
	var visit func(p *loader.Package)
	visit = func(p *loader.Package) {
		if visited[p.ImportPath] {
			return
		}
		visited[p.ImportPath] = true
		for _, imp := range p.Imports {
			if dep, ok := byPath[imp]; ok {
				visit(dep)
			}
		}
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}
