// Package wireparity keeps the fixed-layout wire codecs honest: for
// every control-packet struct T with an `Encode*` method and a
// `Decode*` function (core's Header, Heartbeat, RouteUpdate), the two
// directions must agree field-for-field, the
// fixed byte count the encoder appends must match the declared size
// constant, and every decoder must be exercised by a fuzz target — the
// repo's standing rule that anything parsing bytes off the simulated
// wire survives arbitrary corruption.
//
// Checks, each at the declaration it indicts:
//
//   - an Encode* method with no Decode* returning T, and vice versa;
//   - a field the encoder serializes that the decoder never assigns
//     (silently zeroed on receive — the classic new-field regression),
//     and a field the decoder fills that the encoder never reads;
//   - a struct field missing from both directions (extend the codec,
//     or mark the field `//simlint:nowire <reason>` if it is
//     deliberately host-only);
//   - the sum of fixed bytes appended outside loops differing from the
//     `<T>Size` / `<t>Fixed` constant the decoder bounds-checks with;
//   - a Decode* function no `Fuzz*` target in the package's _test.go
//     files references (suppress with `//simlint:nofuzz <reason>`).
//
// Suppress any other finding with `//simlint:wireok <reason>`.
package wireparity

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"unicode"

	"mpicomp/internal/simlint/analysis"
)

const (
	directive       = "wireok"
	nowireDirective = "nowire"
	nofuzzDirective = "nofuzz"
)

// Analyzer is the wireparity check.
var Analyzer = &analysis.Analyzer{
	Name: "wireparity",
	Doc: "check Encode*/Decode* wire-codec pairs for field parity, size-constant agreement, and fuzz coverage; " +
		"suppress with //simlint:wireok, exclude fields with //simlint:nowire, waive fuzz with //simlint:nofuzz",
	Run: run,
}

// codecSide is one direction of a codec with its declaring file.
type codecSide struct {
	decl *ast.FuncDecl
	file *ast.File
}

type checker struct {
	pass     *analysis.Pass
	encoders map[*types.TypeName]codecSide
	decoders map[*types.TypeName]codecSide
	// fields maps each codec type to the file and position of its
	// struct fields, for nowire directives and field-level reports.
	fieldPos  map[*types.TypeName]map[string]token.Pos
	fieldFile map[*types.TypeName]*ast.File
	fuzzRefs  map[string]map[string]bool // test-file dir -> idents referenced inside Fuzz* funcs
}

func run(pass *analysis.Pass) (any, error) {
	cb := &checker{
		pass:      pass,
		encoders:  make(map[*types.TypeName]codecSide),
		decoders:  make(map[*types.TypeName]codecSide),
		fieldPos:  make(map[*types.TypeName]map[string]token.Pos),
		fieldFile: make(map[*types.TypeName]*ast.File),
		fuzzRefs:  make(map[string]map[string]bool),
	}
	cb.discover()

	tns := make([]*types.TypeName, 0, len(cb.encoders)+len(cb.decoders))
	seen := make(map[*types.TypeName]bool)
	for tn := range cb.encoders {
		if !seen[tn] {
			seen[tn] = true
			tns = append(tns, tn)
		}
	}
	for tn := range cb.decoders {
		if !seen[tn] {
			seen[tn] = true
			tns = append(tns, tn)
		}
	}
	sort.Slice(tns, func(i, j int) bool { return tns[i].Name() < tns[j].Name() })

	for _, tn := range tns {
		cb.checkCodec(tn)
	}
	return nil, nil
}

// discover finds the package's Encode*/Decode* pairs and the struct
// field positions of their types. Test files are skipped: codecs live
// in production code, fuzz targets in _test.go.
func (cb *checker) discover() {
	for _, file := range cb.pass.Files {
		if analysis.IsTestFile(cb.pass, file) {
			continue
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				cb.discoverFunc(file, d)
			case *ast.GenDecl:
				if d.Tok == token.TYPE {
					cb.discoverType(file, d)
				}
			}
		}
	}
}

func (cb *checker) discoverFunc(file *ast.File, fd *ast.FuncDecl) {
	fn, _ := cb.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	switch {
	case fd.Recv != nil && strings.HasPrefix(fn.Name(), "Encode"):
		// An encoder returns the serialized bytes.
		if sig.Results().Len() != 1 || !isByteSlice(sig.Results().At(0).Type()) {
			return
		}
		if tn := localStructName(cb.pass, sig.Recv().Type()); tn != nil {
			cb.encoders[tn] = codecSide{fd, file}
		}
	case fd.Recv == nil && strings.HasPrefix(fn.Name(), "Decode"):
		// A decoder's first result is the decoded struct.
		if sig.Results().Len() == 0 {
			return
		}
		if tn := localStructName(cb.pass, sig.Results().At(0).Type()); tn != nil {
			cb.decoders[tn] = codecSide{fd, file}
		}
	}
}

func (cb *checker) discoverType(file *ast.File, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		tn, _ := cb.pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
		if tn == nil {
			continue
		}
		pos := make(map[string]token.Pos)
		for _, field := range st.Fields.List {
			for _, name := range field.Names {
				pos[name.Name] = name.Pos()
			}
		}
		cb.fieldPos[tn] = pos
		cb.fieldFile[tn] = file
	}
}

func (cb *checker) checkCodec(tn *types.TypeName) {
	enc, hasEnc := cb.encoders[tn]
	dec, hasDec := cb.decoders[tn]
	switch {
	case hasEnc && !hasDec:
		cb.report(enc.file, enc.decl.Name.Pos(),
			"%s has no matching Decode* function returning %s: a wire writer without a reader", enc.decl.Name.Name, tn.Name())
		return
	case hasDec && !hasEnc:
		cb.report(dec.file, dec.decl.Name.Pos(),
			"%s has no matching Encode* method on %s: a wire reader without a writer", dec.decl.Name.Name, tn.Name())
		cb.checkFuzz(tn, dec)
		return
	}

	encReads := cb.fieldsRead(enc.decl)
	decSets := cb.fieldsSet(dec.decl, tn)
	if encReads != nil {
		for _, f := range sortedDiff(encReads, decSets) {
			cb.report(dec.file, dec.decl.Name.Pos(),
				"%s serializes %s.%s but %s never sets it: the field arrives zeroed", enc.decl.Name.Name, tn.Name(), f, dec.decl.Name.Name)
		}
		for _, f := range sortedDiff(decSets, encReads) {
			cb.report(enc.file, enc.decl.Name.Pos(),
				"%s sets %s.%s but %s never reads it: the decoder invents the field", dec.decl.Name.Name, tn.Name(), f, enc.decl.Name.Name)
		}
		cb.checkUnserialized(tn, encReads, decSets)
	}

	if declared, ok := cb.sizeConst(tn); ok {
		if fixed := cb.fixedBytes(enc.decl); fixed > 0 && fixed != declared {
			cb.report(enc.file, enc.decl.Name.Pos(),
				"%s appends %d fixed bytes but the declared size constant is %d: decoder bounds checks disagree with the writer",
				enc.decl.Name.Name, fixed, declared)
		}
	}
	cb.checkFuzz(tn, dec)
}

// checkUnserialized flags struct fields missing from both directions.
func (cb *checker) checkUnserialized(tn *types.TypeName, encReads, decSets map[string]bool) {
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	file := cb.fieldFile[tn]
	positions := cb.fieldPos[tn]
	if file == nil || positions == nil {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		name := st.Field(i).Name()
		if encReads[name] || decSets[name] {
			continue
		}
		pos, ok := positions[name]
		if !ok {
			continue
		}
		if cb.pass.DirectivesFor(file).Allows(nowireDirective, pos) {
			continue
		}
		if cb.pass.DirectivesFor(file).Allows(directive, pos) {
			continue
		}
		cb.pass.Reportf(pos, "field %s.%s is in neither the encoder nor the decoder: extend the codec or mark it //simlint:nowire", tn.Name(), name)
	}
}

// fieldsRead returns the receiver fields the encoder reads, or nil when
// the receiver is unnamed (parity cannot be tracked).
func (cb *checker) fieldsRead(enc *ast.FuncDecl) map[string]bool {
	if enc.Recv == nil || len(enc.Recv.List) != 1 || len(enc.Recv.List[0].Names) != 1 {
		return nil
	}
	recvObj := cb.pass.TypesInfo.Defs[enc.Recv.List[0].Names[0]]
	if recvObj == nil {
		return nil
	}
	reads := make(map[string]bool)
	ast.Inspect(enc.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || cb.pass.TypesInfo.Uses[base] != recvObj {
			return true
		}
		if s, ok := cb.pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
			reads[sel.Sel.Name] = true
		}
		return true
	})
	return reads
}

// fieldsSet returns the fields of tn the decoder assigns, through
// composite literals and field assignments.
func (cb *checker) fieldsSet(dec *ast.FuncDecl, tn *types.TypeName) map[string]bool {
	sets := make(map[string]bool)
	ast.Inspect(dec.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := cb.pass.TypesInfo.Types[n].Type
			if localStructName(cb.pass, t) != tn {
				return true
			}
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						sets[key.Name] = true
					}
				} else if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					// Positional literal: every field is set.
					for i := 0; i < st.NumFields(); i++ {
						sets[st.Field(i).Name()] = true
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				s, ok := cb.pass.TypesInfo.Selections[sel]
				if !ok || s.Kind() != types.FieldVal {
					continue
				}
				if localStructName(cb.pass, s.Recv()) == tn {
					sets[sel.Sel.Name] = true
				}
			}
		}
		return true
	})
	return sets
}

// sizeConst finds the declared fixed-size constant of tn: <T>Size, or
// <t>Fixed for codecs with a variable tail.
func (cb *checker) sizeConst(tn *types.TypeName) (int64, bool) {
	for _, name := range []string{tn.Name() + "Size", lowerFirst(tn.Name()) + "Fixed", lowerFirst(tn.Name()) + "Size"} {
		c, ok := cb.pass.Pkg.Scope().Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if v, ok := constInt64(c); ok {
			return v, true
		}
	}
	return 0, false
}

// fixedBytes sums the bytes the encoder appends outside loops: 1 per
// byte-typed append argument, plus the width of each
// binary.<Endian>.AppendUintN. Returns 0 (skip the check) when the body
// appends something it cannot size.
func (cb *checker) fixedBytes(enc *ast.FuncDecl) int64 {
	// Loop bodies hold the variable part; exclude their spans.
	var loops []ast.Node
	ast.Inspect(enc.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
		}
		return true
	})
	inLoop := func(pos token.Pos) bool {
		for _, l := range loops {
			if l.Pos() <= pos && pos < l.End() {
				return true
			}
		}
		return false
	}

	var total int64
	ok := true
	ast.Inspect(enc.Body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall || inLoop(call.Pos()) {
			return true
		}
		if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent && id.Name == "append" {
			if _, builtin := cb.pass.TypesInfo.Uses[id].(*types.Builtin); builtin {
				if call.Ellipsis.IsValid() {
					ok = false // variable-length splice outside a loop
					return true
				}
				for _, a := range call.Args[1:] {
					if isByte(cb.pass.TypesInfo.Types[a].Type) {
						total++
					} else {
						ok = false
					}
				}
			}
			return true
		}
		if callee := analysis.Callee(cb.pass.TypesInfo, call); callee != nil && callee.Pkg() != nil &&
			callee.Pkg().Path() == "encoding/binary" {
			switch callee.Name() {
			case "AppendUint64":
				total += 8
			case "AppendUint32":
				total += 4
			case "AppendUint16":
				total += 2
			}
		}
		return true
	})
	if !ok {
		return 0
	}
	return total
}

// checkFuzz requires a Fuzz* function in the decoder's package
// directory to reference the decoder.
func (cb *checker) checkFuzz(tn *types.TypeName, dec codecSide) {
	name := dec.decl.Name.Name
	if cb.pass.DirectivesFor(dec.file).Allows(nofuzzDirective, dec.decl.Pos()) {
		return
	}
	dir := filepath.Dir(cb.pass.Position(dec.file.Pos()).Filename)
	refs := cb.fuzzRefsFor(dir)
	if refs[name] {
		return
	}
	cb.report(dec.file, dec.decl.Name.Pos(),
		"no Fuzz* target references %s: every wire decoder needs a fuzz target (or //simlint:nofuzz <reason>)", name)
}

// fuzzRefsFor parses the directory's _test.go files (syntax only) and
// collects every identifier referenced inside Fuzz* functions.
func (cb *checker) fuzzRefsFor(dir string) map[string]bool {
	if refs, ok := cb.fuzzRefs[dir]; ok {
		return refs
	}
	refs := make(map[string]bool)
	cb.fuzzRefs[dir] = refs
	entries, err := os.ReadDir(dir)
	if err != nil {
		return refs
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !strings.HasPrefix(fd.Name.Name, "Fuzz") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					refs[id.Name] = true
				}
				return true
			})
		}
	}
	return refs
}

func (cb *checker) report(file *ast.File, pos token.Pos, format string, args ...any) {
	if cb.pass.DirectivesFor(file).Allows(directive, pos) {
		return
	}
	cb.pass.Reportf(pos, format, args...)
}

// --- helpers --------------------------------------------------------

// localStructName returns the TypeName of t (through one pointer) when
// t is a struct type declared in the package under analysis.
func localStructName(pass *analysis.Pass, t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() != pass.Pkg {
		return nil
	}
	if _, ok := n.Underlying().(*types.Struct); !ok {
		return nil
	}
	return n.Obj()
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	return ok && isByte(s.Elem())
}

func isByte(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8)
}

func constInt64(c *types.Const) (int64, bool) {
	val := c.Val()
	if val == nil || val.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(val)
}

func sortedDiff(a, b map[string]bool) []string {
	var out []string
	for f := range a {
		if !b[f] {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

func lowerFirst(s string) string {
	if s == "" {
		return s
	}
	r := []rune(s)
	r[0] = unicode.ToLower(r[0])
	return string(r)
}
