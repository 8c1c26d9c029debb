package sched

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestLayering keeps the schedules below the transport: the non-test files
// of internal/sched import no package of the module, and internal/tune's do
// not import internal/mpi — the tuner hears latencies through the
// mpi.CollTuner hook and never reaches into the transport. A planted module
// import in sched is caught, as a real one would be.
func TestLayering(t *testing.T) {
	pure := func(path string) bool { return path == "mpicomp" || strings.HasPrefix(path, "mpicomp/") }
	noMPI := func(path string) bool { return path == "mpicomp/internal/mpi" }
	if got := badImports(t, goFiles(t, "."), pure); len(got) > 0 {
		t.Errorf("internal/sched imports %v", got)
	}
	if got := badImports(t, goFiles(t, filepath.Join("..", "tune")), noMPI); len(got) > 0 {
		t.Errorf("internal/tune imports %v", got)
	}
	planted := map[string]any{"planted.go": "package sched\n\nimport \"mpicomp/internal/gpusim\"\n\nvar _ gpusim.Buffer\n"}
	if got := badImports(t, planted, pure); !slices.Equal(got, []string{"planted.go: mpicomp/internal/gpusim"}) {
		t.Errorf("the planted gpusim import is reported as %v", got)
	}
}

// goFiles maps the non-test Go files of dir to nil (read them from disk).
func goFiles(t *testing.T, dir string) map[string]any {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no Go files in %s: %v", dir, err)
	}
	srcs := map[string]any{}
	for _, name := range names {
		if !strings.HasSuffix(name, "_test.go") {
			srcs[name] = nil
		}
	}
	return srcs
}

// badImports lists, as "file: path", the imports of the given sources (nil:
// read the file) that banned names.
func badImports(t *testing.T, srcs map[string]any, banned func(path string) bool) []string {
	t.Helper()
	fset := token.NewFileSet()
	var out []string
	for name, src := range srcs {
		f, err := parser.ParseFile(fset, name, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); banned(path) {
				out = append(out, name+": "+path)
			}
		}
	}
	slices.Sort(out)
	return out
}
