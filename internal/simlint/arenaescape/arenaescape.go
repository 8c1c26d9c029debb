// Package arenaescape flags codecpool scratch buffers that outlive
// their part.
//
// codecpool.Pool hands every job part a per-worker *Scratch arena; the
// contract (see the codecpool package doc) is that a part may use the
// arena freely during RunPart but must not retain it, because the same
// backing arrays are handed to whatever part the worker runs next. A
// retained slice aliases memory that another partition is about to
// overwrite — a data race the race detector only catches if two parts
// happen to collide in one run, and a silent corruption otherwise.
//
// The analyzer taints every value obtained from Scratch.Bytes (and
// local aliases or subslices of one) and reports when a tainted value:
//
//   - is returned;
//   - is stored through a field, a dereference, a package-level
//     variable, or an element of caller-provided state;
//   - is sent on a channel;
//   - is captured by a `go` statement's goroutine.
//
// Copying the *contents* out (copy, append to a caller buffer) is
// fine and untouched. The codecpool package itself — whose whole job
// is storing those slices — is exempt, and `//simlint:arenaok` blesses
// a line the analyzer cannot prove safe.
package arenaescape

import (
	"go/ast"
	"go/types"

	"mpicomp/internal/simlint/analysis"
)

// Directive is the annotation that blesses a flagged arena use.
const Directive = "arenaok"

// scratchMethod is the arena accessor whose results must not escape.
const scratchMethod = "Bytes"

// Analyzer is the arenaescape pass.
var Analyzer = &analysis.Analyzer{
	Name:       "arenaescape",
	Doc:        "flag codecpool scratch slices that escape their RunPart (fields, returns, channels, goroutines)",
	Directives: []string{Directive},
	Run:        run,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg != nil && analysis.PkgPathIs(pass.Pkg, "codecpool") {
		return nil, nil // the arena implementation stores its own slices
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass, file) {
			continue
		}
		dirs := pass.DirectivesFor(file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			f := &fn{pass: pass, dirs: dirs, body: fd.Body, tainted: map[types.Object]bool{}}
			f.collectTaint()
			f.check()
		}
	}
	return nil, nil
}

// fn analyzes one function declaration, closures included: taint flows
// into FuncLits naturally because their bodies are part of the tree.
type fn struct {
	pass    *analysis.Pass
	dirs    *analysis.Directives
	body    *ast.BlockStmt
	tainted map[types.Object]bool
}

func (f *fn) report(n ast.Node, format string, args ...any) {
	if f.dirs.Allows(Directive, n.Pos()) {
		return
	}
	f.pass.Reportf(n.Pos(), format, args...)
}

// isArenaCall reports whether e is a direct Scratch accessor call.
func (f *fn) isArenaCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	m := analysis.Callee(f.pass.TypesInfo, call)
	if m == nil || m.Name() != scratchMethod {
		return false
	}
	recv := analysis.ReceiverNamed(m)
	return recv != nil && recv.Obj().Name() == "Scratch" &&
		analysis.PkgPathIs(recv.Obj().Pkg(), "codecpool")
}

// isTainted reports whether e evaluates to (a subslice of) an arena
// buffer: a direct accessor call, a tainted local, or a slice of one.
func (f *fn) isTainted(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return f.tainted[f.objectOf(e)]
	case *ast.SliceExpr:
		return f.isTainted(e.X)
	case *ast.CallExpr:
		return f.isArenaCall(e)
	}
	return false
}

// collectTaint propagates arena-ness through direct local assignments.
// Two passes reach aliases assigned before their source textually only
// in pathological cases; one forward pass per iteration to a small
// fixpoint keeps it exact for straight-line code.
func (f *fn) collectTaint() {
	for changed := true; changed; {
		changed = false
		ast.Inspect(f.body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := f.objectOf(id)
				if obj == nil || f.tainted[obj] {
					continue
				}
				if f.isTainted(as.Rhs[i]) {
					f.tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}
}

func (f *fn) check() {
	ast.Inspect(f.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if f.isTainted(r) {
					f.report(n, "codecpool scratch buffer returned: the arena is reused by the next part; copy the bytes out instead")
				}
			}
		case *ast.SendStmt:
			if f.isTainted(n.Value) {
				f.report(n, "codecpool scratch buffer sent on a channel: the receiver outlives the part that owns the arena")
			}
		case *ast.GoStmt:
			f.checkGo(n)
		case *ast.AssignStmt:
			f.checkStores(n)
		}
		return true
	})
}

// checkGo flags goroutines that capture or receive a tainted buffer:
// the goroutine may still run after Pool.Run hands the arena to the
// next part.
func (f *fn) checkGo(g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if f.isTainted(arg) {
			f.report(arg, "codecpool scratch buffer passed to a goroutine that may outlive the part")
			return
		}
	}
	ast.Inspect(g.Call.Fun, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && f.tainted[f.objectOf(id)] {
			f.report(id, "codecpool scratch buffer captured by a goroutine that may outlive the part")
			return false
		}
		return true
	})
}

// checkStores flags assignments that store a tainted slice where it
// outlives the part: fields, dereferences, globals, and elements of
// caller-provided containers.
func (f *fn) checkStores(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		if !f.isTainted(as.Rhs[i]) {
			continue
		}
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			// Package-level variable?
			if obj := f.objectOf(l); obj != nil && !f.isFuncLocal(obj) {
				f.report(as, "codecpool scratch buffer stored in package variable %s", l.Name)
			}
		case *ast.SelectorExpr:
			f.report(as, "codecpool scratch buffer stored in field %s: the arena is reused by the next part", exprName(l))
		case *ast.StarExpr:
			f.report(as, "codecpool scratch buffer stored through pointer %s", exprName(l))
		case *ast.IndexExpr:
			// results[i] = buf aliases the arena into a container. Local
			// containers die with the part; anything else escapes.
			if root := rootIdent(l); root == nil || !f.isFuncLocal(f.objectOf(root)) {
				f.report(as, "codecpool scratch buffer stored in element of %s, which outlives the part", exprName(l.X))
			}
		}
	}
}

func (f *fn) objectOf(id *ast.Ident) types.Object {
	if id == nil {
		return nil
	}
	if o := f.pass.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return f.pass.TypesInfo.Defs[id]
}

// isFuncLocal reports whether obj is declared inside this function's
// body — not a parameter, receiver, or outer-scope variable.
func (f *fn) isFuncLocal(obj types.Object) bool {
	return obj != nil && obj.Pos() >= f.body.Pos() && obj.Pos() <= f.body.End()
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func exprName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + exprName(e.X)
	case *ast.IndexExpr:
		return exprName(e.X) + "[…]"
	default:
		return "expression"
	}
}
