// Package linttest is an analysistest-style golden runner for the
// simlint analyzers. An analyzer's testdata/src is a module of its own
// (module golden), so golden packages can model core/gpusim/mpi shims
// without importing the real module; they mark expected diagnostics with
// trailing comments of the form
//
//	x := bad() // want "regexp matching the message"
//
// Multiple expectations on one line are multiple quoted regexps.
package linttest

import (
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mpicomp/internal/simlint"
	"mpicomp/internal/simlint/analysis"
)

// Run checks the analyzer's diagnostics on each named package of
// testdata/src against its // want expectations. The whole module goes
// through simlint.Run, the driver the tree's own test uses, so shims the
// package imports are analyzed first and the cross-package facts path
// runs exactly as on the tree.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	src, err := filepath.Abs(filepath.Join(testdata, "src"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := simlint.Run(src, []*analysis.Analyzer{a}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkgpath := range pkgpaths {
		t.Run(pkgpath, func(t *testing.T) {
			dir := filepath.Join(src, pkgpath)
			var got []simlint.Diagnostic
			for _, d := range diags {
				if filepath.Dir(d.Position.Filename) == dir {
					got = append(got, d)
				}
			}
			checkExpectations(t, dir, got)
		})
	}
}

func checkExpectations(t *testing.T, dir string, got []simlint.Diagnostic) {
	t.Helper()
	type expectation struct {
		file string
		line int
		rx   *regexp.Regexp
	}
	var wants []expectation
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files in %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				rxs, err := parseWant(c.Text)
				if err != nil {
					t.Fatalf("%s:%d: %v", pos.Filename, pos.Line, err)
				}
				for _, rx := range rxs {
					wants = append(wants, expectation{pos.Filename, pos.Line, rx})
				}
			}
		}
	}
	matched := make([]bool, len(got))
	for _, w := range wants {
		found := false
		for i, d := range got {
			if !matched[i] && d.Position.Filename == w.file && d.Position.Line == w.line && w.rx.MatchString(d.Message) {
				matched[i], found = true, true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
		}
	}
	for i, d := range got {
		if !matched[i] {
			t.Errorf("%s:%d: unexpected diagnostic: %s", d.Position.Filename, d.Position.Line, d.Message)
		}
	}
}

// parseWant extracts the regexps from a `// want "a" "b"` comment, or
// nil if the comment is not a want clause.
func parseWant(text string) ([]*regexp.Regexp, error) {
	body, ok := strings.CutPrefix(text, "// want ")
	if !ok {
		return nil, nil
	}
	var rxs []*regexp.Regexp
	rest := strings.TrimSpace(body)
	for rest != "" {
		if rest[0] != '"' && rest[0] != '`' {
			return nil, fmt.Errorf("malformed want clause near %q", rest)
		}
		end := -1
		for i := 1; i < len(rest); i++ {
			if rest[i] == rest[0] && (rest[0] == '`' || rest[i-1] != '\\') {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated string in want clause %q", rest)
		}
		lit, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			return nil, fmt.Errorf("bad want string %q: %v", rest[:end+1], err)
		}
		rx, err := regexp.Compile(lit)
		if err != nil {
			return nil, fmt.Errorf("bad want regexp %q: %v", lit, err)
		}
		rxs = append(rxs, rx)
		rest = strings.TrimSpace(rest[end+1:])
	}
	return rxs, nil
}
