// Package loader turns `go list -export` output into type-checked
// packages for the simlint analyzers, using nothing but the standard
// library. Dependencies — stdlib and module-internal alike — are
// imported from the compiler's cached export data, so only the target
// packages themselves are parsed from source. This is the same strategy
// x/tools' go/packages uses in LoadTypes mode, reimplemented here
// because the repository vendors no third-party modules.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one parsed, type-checked target package.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	// Imports lists the package's direct imports (as import paths), so
	// drivers can process targets in dependency order — a requirement
	// of the facts layer, where analyzing an importer must see the
	// facts its dependencies exported.
	Imports []string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

	// TypeErrors holds type-checker soft failures. Analyzers still run
	// over partially checked packages; drivers surface these separately.
	TypeErrors []error
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load lists patterns in dir (a directory inside the module), compiles
// export data for every dependency, and returns the matched packages
// parsed and type-checked. Test files are not included: simlint guards
// the production wire path, and `go list`'s GoFiles field is exactly
// that set.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Name,Dir,Export,GoFiles,Imports,DepOnly,Standard,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	exports := make(map[string]string)
	var targets []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if !lp.DepOnly && !lp.Standard && lp.Name != "" {
			targets = append(targets, lp)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, lp := range targets {
		pkg, err := check(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// exportImporter returns a types.Importer that resolves import paths
// through compiler export data files (as produced by `go list -export`).
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// NewInfo allocates a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

func check(fset *token.FileSet, imp types.Importer, lp *listPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", path, err)
		}
		files = append(files, f)
	}
	pkg := &Package{
		ImportPath: lp.ImportPath,
		Name:       lp.Name,
		Dir:        lp.Dir,
		Imports:    lp.Imports,
		Fset:       fset,
		Info:       NewInfo(),
	}
	pkg.Files = files
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, pkg.Info)
	if err != nil && tpkg == nil {
		return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}
