package cmd

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameLiveCode: every backticked code reference in README.md and
// DESIGN.md — `pkg.Name`, `pkg.Prefix*` (a glob), `pkg.Type.Member` and
// `Type.Member` — resolves against the module's non-test declarations. A
// reference whose first word is neither a package of the module nor a
// type declared in it (a variable such as `w.inj`, a file name, a
// standard-library package) is not checked, nor is a metric the benchmark
// declares (`core.roundtrip_mb_s`). bench/ is a module of its own and is
// not read.
func TestDocsNameLiveCode(t *testing.T) {
	decls := moduleDecls(t, "..")
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	metrics := map[string]bool{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		metrics[m.Name] = true
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(filepath.Join("..", doc))
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, ref := range codeRefs(string(raw)) {
			ok, known := decls.resolve(ref.name)
			if !known || metrics[ref.name] {
				continue
			}
			checked++
			if !ok {
				t.Errorf("%s:%d: `%s` names no declaration of the module", doc, ref.line, ref.name)
			}
		}
		if checked == 0 {
			t.Errorf("%s: found no code reference to check", doc)
		}
	}
}

// decls indexes the module's non-test declarations: the top-level names
// of each package (by package name) and the members — methods, struct
// fields, interface methods — of each type, by type name and by
// package-qualified type name.
type decls struct {
	pkgs    map[string]map[string]bool
	members map[string]map[string]bool
}

// moduleDecls parses every non-test Go file under root, skipping testdata,
// hidden directories, bench/ and package main.
func moduleDecls(t *testing.T, root string) decls {
	t.Helper()
	d := decls{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}}
	add := func(m map[string]map[string]bool, key, name string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name := e.Name(); path != root && (name == "testdata" || name == "bench" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		if pkg == "main" {
			return nil
		}
		typeMember := func(typ, name string) {
			add(d.members, typ, name)
			add(d.members, pkg+"."+typ, name)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(d.pkgs, pkg, decl.Name.Name)
					continue
				}
				if recv := typeName(decl.Recv.List[0].Type); recv != "" {
					typeMember(recv, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(d.pkgs, pkg, n.Name)
						}
					case *ast.TypeSpec:
						add(d.pkgs, pkg, spec.Name.Name)
						var fields *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						}
						if fields == nil {
							continue
						}
						for _, f := range fields.List {
							for _, n := range f.Names {
								typeMember(spec.Name.Name, n.Name)
							}
							if len(f.Names) == 0 { // embedded: named by its type
								typeMember(spec.Name.Name, typeName(f.Type))
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// typeName is the name of the type x spells — a method's receiver or an
// embedded field — without pointer, type arguments or package.
func typeName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// resolve reports whether ref names a declaration, and whether ref is of a
// form this index can judge at all (known is false when its first word is
// neither a package nor a type of the module).
func (d decls) resolve(ref string) (ok, known bool) {
	parts := strings.Split(ref, ".")
	if names, isPkg := d.pkgs[parts[0]]; isPkg {
		if !anyMatch(names, parts[1]) {
			return false, true
		}
		// pkg.Type.Member: the member must be the type's, when the second
		// word is a type (a variable's selector is not followed).
		if members, isType := d.members[parts[0]+"."+parts[1]]; isType && len(parts) > 2 {
			return anyMatch(members, parts[2]), true
		}
		return true, true
	}
	if members, isType := d.members[parts[0]]; isType {
		return anyMatch(members, parts[1]), true
	}
	return false, false
}

// anyMatch reports whether some name matches pattern, where * stands for
// any run of characters.
func anyMatch(names map[string]bool, pattern string) bool {
	if !strings.Contains(pattern, "*") {
		return names[pattern]
	}
	re := regexp.MustCompile("^" + strings.ReplaceAll(regexp.QuoteMeta(pattern), `\*`, ".*") + "$")
	for n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}

// codeRef is one dotted reference found in a backticked span.
type codeRef struct {
	name string
	line int
}

var (
	// inlineCode is a backticked span; it may wrap across lines.
	inlineCode = regexp.MustCompile("`([^`]+)`")
	// dotted is a dotted word chain not continuing a path, a flag, a
	// selector or a method expression; * is a glob inside a name.
	dotted = regexp.MustCompile(`(?:^|[^\w./*()-])([A-Za-z_]\w*(?:\.[A-Za-z_*][\w*]*)+)`)
	// fileExt names the last words that make a chain a file name.
	fileExt = map[string]bool{"c": true, "go": true, "md": true, "json": true, "yml": true, "yaml": true, "txt": true, "sh": true, "mod": true, "sum": true, "prof": true, "out": true}
)

// codeRefs extracts the dotted references of every inline code span of a
// markdown document, outside fenced code blocks.
func codeRefs(doc string) []codeRef {
	lines := strings.Split(doc, "\n")
	fenced := false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	text := strings.Join(lines, "\n")
	var refs []codeRef
	for _, span := range inlineCode.FindAllStringSubmatchIndex(text, -1) {
		code := text[span[2]:span[3]]
		line := strings.Count(text[:span[0]], "\n") + 1
		for _, m := range dotted.FindAllStringSubmatch(code, -1) {
			parts := strings.Split(m[1], ".")
			if fileExt[parts[len(parts)-1]] {
				continue
			}
			refs = append(refs, codeRef{name: m[1], line: line})
		}
	}
	return refs
}
