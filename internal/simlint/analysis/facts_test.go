package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

type noteFact struct{ Note string }

func (*noteFact) AFact() {}

type countFact struct{ N int }

func (*countFact) AFact() {}

func factAnalyzer(name string, facts ...Fact) *Analyzer {
	return &Analyzer{
		Name:      name,
		Doc:       name,
		FactTypes: facts,
		Run:       func(*Pass) {},
	}
}

// TestFactStoreRoundTrip pins the in-memory store: object and method
// facts come back with their payloads, lookups copy (a caller
// editing its copy leaves the store alone), and facts never cross
// analyzer, package or object boundaries.
func TestFactStoreRoundTrip(t *testing.T) {
	a := factAnalyzer("alpha", (*noteFact)(nil))
	b := factAnalyzer("beta", (*countFact)(nil))
	store := NewFactStore([]*Analyzer{a, b})
	store.export(a, "pkg/x", "Fn", &noteFact{Note: "object fact"})
	store.export(b, "pkg/y", "T.M", &countFact{N: 7})

	nf := new(noteFact)
	if !store.lookup(a, "pkg/x", "Fn", nf) || nf.Note != "object fact" {
		t.Errorf("object fact: got %+v", nf)
	}
	nf.Note = "edited copy"
	if !store.lookup(a, "pkg/x", "Fn", nf) || nf.Note != "object fact" {
		t.Errorf("lookup handed out the stored fact, not a copy: %+v", nf)
	}
	cf := new(countFact)
	if !store.lookup(b, "pkg/y", "T.M", cf) || cf.N != 7 {
		t.Errorf("method fact: got %+v", cf)
	}
	if store.lookup(a, "pkg/x", "Missing", nf) {
		t.Error("lookup of an absent fact reported true")
	}
	if store.lookup(b, "pkg/x", "Fn", cf) {
		t.Error("lookup crossed analyzer boundaries")
	}
}

// TestObjectKey pins the stable naming of fact-bearing objects:
// package-scope objects by name, methods as Type.Method, everything
// else (locals, fields) unnamed.
func TestObjectKey(t *testing.T) {
	const src = `package q

type T struct{ F int }

func (t *T) M() {}

func Fn() { local := 1; _ = local }

var V int
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "q.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	conf := types.Config{Importer: importer.Default()}
	info := &types.Info{Defs: make(map[*ast.Ident]types.Object)}
	pkg, err := conf.Check("q", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}

	scope := pkg.Scope()
	tn := scope.Lookup("T").(*types.TypeName)
	method, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, "M")
	field, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, "F")

	var local types.Object
	for id, obj := range info.Defs {
		if id.Name == "local" {
			local = obj
		}
	}

	cases := []struct {
		obj  types.Object
		want string
	}{
		{scope.Lookup("Fn"), "Fn"},
		{scope.Lookup("V"), "V"},
		{tn, "T"},
		{method, "T.M"},
		{field, ""},
		{local, ""},
		{nil, ""},
	}
	for _, tc := range cases {
		if got := ObjectKey(tc.obj); got != tc.want {
			t.Errorf("ObjectKey(%v) = %q, want %q", tc.obj, got, tc.want)
		}
	}
}
