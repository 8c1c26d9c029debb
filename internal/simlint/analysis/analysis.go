// Package analysis is a minimal, dependency-free workalike of
// golang.org/x/tools/go/analysis: just enough surface for the simlint
// suite to express per-package analyzers and for simlint.Run (the one
// driver, behind cmd/simlint and TestTreeIsSimlintClean) and the linttest
// golden runner to execute them.
//
// The repository vendors no third-party modules, so the real x/tools
// framework is out of reach; this clone keeps the same shape (Analyzer,
// Pass, Diagnostic, Reportf) so the analyzers could be ported to the
// upstream API by changing only import paths.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one simlint check. Like the x/tools original it
// may depend on other analyzers' results (Requires) and exchange facts
// across package boundaries (FactTypes); drivers are expected to run
// analyzers through RunUnit, which resolves both.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. It must be
	// a valid Go identifier.
	Name string

	// Doc is the one-paragraph description shown by `simlint help`.
	Doc string

	// Directives lists the //simlint:<name> directives the analyzer
	// reads. simlint.Run reports any directive no registered analyzer
	// declares, so a misspelled or retired one cannot pass silently.
	Directives []string

	// Requires lists analyzers whose Run must complete on the same
	// package first; their results appear in Pass.ResultOf. The graph
	// must be acyclic.
	Requires []*Analyzer

	// FactTypes declares the fact types this analyzer exports or
	// imports. Each entry is a prototype pointer value (e.g.
	// (*chargesFact)(nil)); an analyzer with no FactTypes neither
	// sees nor produces facts.
	FactTypes []Fact

	// Run applies the analyzer to a package. It reports findings via
	// pass.Report/Reportf. The result value is recorded by the drivers
	// and handed to dependents through Pass.ResultOf.
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass carries one package's syntax and type information to an
// analyzer's Run function, plus the Report sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)

	// ResultOf holds the results of this pass's Requires analyzers on
	// the same package, keyed by analyzer. Filled by RunUnit.
	ResultOf map[*Analyzer]any

	// facts is the cross-package fact store shared by the whole run,
	// or nil when the driver supplies none (facts silently no-op).
	facts *FactStore

	// directives caches the per-file //simlint:* directive index.
	directives map[*ast.File]*Directives
}

// ExportObjectFact associates fact with obj, visible to later passes of
// the same analyzer over importing packages. obj must be a package-level
// object of the package under analysis; facts on other objects are
// silently dropped (they cannot be named across package boundaries).
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts == nil || obj == nil || obj.Pkg() != p.Pkg {
		return
	}
	key := ObjectKey(obj)
	if key == "" {
		return // un-nameable object; must not alias the package-fact slot
	}
	p.facts.export(p.Analyzer, p.Pkg.Path(), key, fact)
}

// ImportObjectFact copies into fact the fact of fact's type previously
// exported for obj (by this analyzer, over obj's package), reporting
// whether one existed. obj may belong to any package.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.facts == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	key := ObjectKey(obj)
	if key == "" {
		return false
	}
	return p.facts.lookup(p.Analyzer, obj.Pkg().Path(), key, fact)
}

// ExportPackageFact associates fact with the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	if p.facts == nil || p.Pkg == nil {
		return
	}
	p.facts.export(p.Analyzer, p.Pkg.Path(), "", fact)
}

// ImportPackageFact copies into fact the package fact of fact's type
// previously exported for pkg, reporting whether one existed.
func (p *Pass) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	if p.facts == nil || pkg == nil {
		return false
	}
	return p.facts.lookup(p.Analyzer, pkg.Path(), "", fact)
}

// Diagnostic is one finding: a position and a message. Category is the
// reporting analyzer's name, filled in by the driver.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}

// Reportf formats and reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Position resolves pos against the pass's file set.
func (p *Pass) Position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}
