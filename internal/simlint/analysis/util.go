package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Callee resolves the *types.Func a call statically invokes, or nil for
// calls through function values, built-ins, and type conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // qualified identifier pkg.F
		}
	}
	f, _ := obj.(*types.Func)
	return f
}

// PkgPathIs reports whether pkg's import path is path, either exactly
// or as its final path element ("codecpool" matches both the module's
// "mpicomp/internal/codecpool" and a golden-test fake named plain
// "codecpool"). The boundary check keeps "runtime" from matching
// "mpicomp/internal/simruntime".
func PkgPathIs(pkg *types.Package, path string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == path || strings.HasSuffix(p, "/"+path)
}

// IsPkgFunc reports whether f is the package-level function (or method
// value) pkgPath.name, with pkgPath matched by PkgPathIs.
func IsPkgFunc(f *types.Func, pkgPath, name string) bool {
	return f != nil && f.Name() == name && PkgPathIs(f.Pkg(), pkgPath)
}

// ReceiverNamed returns the named type of f's receiver (through one
// pointer), or nil for non-methods.
func ReceiverNamed(f *types.Func) *types.Named {
	if f == nil {
		return nil
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// UsedIdent returns the object an identifier or selector expression
// refers to, or nil.
func UsedIdent(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}
