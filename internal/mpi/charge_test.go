package mpi

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestPayloadWorkIsCharged checks, on the non-test source of every package
// under internal/ but gpusim (the device model the charges pay for), that
// host work on payload bytes costs simulated time. A function that copies
// a buffer's Data (a builtin copy, or append(..., x.Data...)) or computes
// core.Checksum must reach a charge in its own body or through a
// same-package callee. A charge is a Clock.Advance or AdvanceTo, one of
// core's phase charges (Engine.charge, timer.stop, Breakdown.AddAll, a
// Breakdown.Add of a Phase), or a call that hands a clock (an argument
// x.Clock or clk) to a kernel model. An uncharged copy moves no simulated
// time, so no golden can see it; only the functions listed here, each
// with its reason, may do such work for free.
func TestPayloadWorkIsCharged(t *testing.T) {
	free := map[string]string{
		"mpi.transmit": "the checksum verification is costed on the arrival timestamp (ThroughputTime), not the rank clock",
	}
	dirs, _ := filepath.Glob("../*")
	for _, dir := range dirs {
		paths, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		pkg := filepath.Base(dir)
		if pkg == "gpusim" || len(paths) == 0 {
			continue
		}
		fset := token.NewFileSet()
		var decls []*ast.FuncDecl
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					decls = append(decls, fd)
				}
			}
		}
		// Same-package callees by bare name: a method call x.m may reach
		// any method m of the package.
		charged, calls, sites := map[string]bool{}, map[string][]string{}, map[*ast.FuncDecl]token.Pos{}
		for _, fd := range decls {
			name := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if _, done := sites[fd]; !done && payloadWork(pkg, call) {
					sites[fd] = call.Pos()
				}
				charged[name] = charged[name] || charges(call)
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					calls[name] = append(calls[name], fun.Name)
				case *ast.SelectorExpr:
					calls[name] = append(calls[name], fun.Sel.Name)
				}
				return true
			})
		}
		for grew := true; grew; {
			grew = false
			for name, callees := range calls {
				for _, c := range callees {
					if !charged[name] && charged[c] {
						charged[name], grew = true, true
					}
				}
			}
		}
		for fd, pos := range sites {
			key := pkg + "." + fd.Name.Name
			if _, ok := free[key]; ok {
				delete(free, key)
				continue
			}
			if !charged[fd.Name.Name] {
				t.Errorf("%s: payload work in %s never reaches a charge: charge its Phase or the clock, or list it in free with a reason", fset.Position(pos), key)
			}
		}
	}
	for key := range free {
		t.Errorf("free lists %s, which does no uncharged payload work", key)
	}
}

// payloadWork reports whether call copies a buffer's Data or computes
// core.Checksum.
func payloadWork(pkg string, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch {
		case fun.Name == "copy" && len(call.Args) == 2:
			return isData(call.Args[0]) || isData(call.Args[1])
		case fun.Name == "append" && call.Ellipsis.IsValid():
			return isData(call.Args[len(call.Args)-1])
		}
		return pkg == "core" && fun.Name == "Checksum"
	case *ast.SelectorExpr:
		x, ok := fun.X.(*ast.Ident)
		return ok && x.Name == "core" && fun.Sel.Name == "Checksum"
	}
	return false
}

// isData reports whether e is x.Data or a slice or element of it.
func isData(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name == "Data"
		default:
			return false
		}
	}
}

// charges reports whether call moves simulated time (see
// TestPayloadWorkIsCharged).
func charges(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if sel, ok := arg.(*ast.SelectorExpr); ok && sel.Sel.Name == "Clock" {
			return true
		}
		if id, ok := arg.(*ast.Ident); ok && id.Name == "clk" {
			return true
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	switch sel.Sel.Name {
	case "Advance", "AdvanceTo", "charge", "stop", "AddAll":
		return true
	case "Add":
		var phase string
		switch p := call.Args[0].(type) {
		case *ast.Ident:
			phase = p.Name
		case *ast.SelectorExpr:
			phase = p.Sel.Name
		}
		return strings.HasPrefix(phase, "Phase")
	}
	return false
}
