package mpi

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestMailboxOwnsItsLock checks, on the package source (tests included), the
// lock discipline the mailbox doc comment in p2p.go states. Guarded fields:
// all but mu and world; outside the methods a mailbox's lock reads box.mu.
func TestMailboxOwnsItsLock(t *testing.T) {
	fset, files, owned, locking := token.NewFileSet(), map[string]*ast.File{}, map[string]bool{}, map[string]bool{}
	paths, _ := filepath.Glob("*.go")
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[path] = f
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "mailbox" {
				for _, fld := range ts.Type.(*ast.StructType).Fields.List {
					for _, id := range fld.Names {
						owned[id.Name] = id.Name != "mu" && id.Name != "world"
					}
				}
			} else if fd, ok := n.(*ast.FuncDecl); ok && mailboxRecv(fd) != "" {
				locked := strings.HasSuffix(fd.Name.Name, "Locked")
				owned[fd.Name.Name], locking[fd.Name.Name] = locked, !locked
			}
			return true
		})
	}
	if !owned["posted"] || !owned["failedForLocked"] {
		t.Fatal("mailbox struct or its *Locked methods not found")
	}
	for path, f := range files {
		for _, decl := range f.Decls {
			if fd, _ := decl.(*ast.FuncDecl); path == "p2p.go" && mailboxRecv(fd) != "" {
				held := strings.HasSuffix(fd.Name.Name, "Locked")
				(&lockWalk{t: t, fset: fset, recv: mailboxRecv(fd), owned: owned, locking: locking, entry: held}).stmt(fd.Body, held)
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && (owned[sel.Sel.Name] || sel.Sel.Name == "mu" && strings.HasSuffix(types.ExprString(sel.X), "box")) {
					t.Errorf("%s: %s named outside p2p.go's mailbox methods: add a mailbox method that returns what it takes out", fset.Position(n.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
}

// mailboxRecv returns the receiver name of a func (m *mailbox) method, or "".
func mailboxRecv(fd *ast.FuncDecl) string {
	if fd == nil || fd.Recv == nil || len(fd.Recv.List[0].Names) != 1 || types.ExprString(fd.Recv.List[0].Type) != "*mailbox" {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// lockWalk follows whether the receiver's mu is held through one method.
type lockWalk struct {
	t       *testing.T
	fset    *token.FileSet
	recv    string
	owned   map[string]bool
	locking map[string]bool // the mailbox methods that take mu
	entry   bool            // held on entry, so on every return (*Locked methods)
	loops   []bool          // held at the entry of each enclosing loop
}

func (w *lockWalk) check(ok bool, n ast.Node, msg string) {
	if !ok {
		w.t.Errorf("%s: %s", w.fset.Position(n.Pos()), msg)
	}
}

// stmt returns the state after s and whether s always leaves early.
func (w *lockWalk) stmt(s ast.Stmt, held bool) (bool, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if x := types.ExprString(s.X); x == w.recv+".mu.Lock()" || x == w.recv+".mu.Unlock()" {
			w.check(!held || x == w.recv+".mu.Unlock()", s, "second mu.Lock while m.mu is held: mailbox locks are leaf locks")
			return x == w.recv+".mu.Lock()", false
		}
	case *ast.ReturnStmt:
		w.scan(s, held)
		w.check(held == w.entry, s, "return with m.mu in another state than on entry")
		return held, true
	case *ast.BranchStmt:
		w.check(len(w.loops) == 0 || held == w.loops[len(w.loops)-1], s, "a loop iteration ends with m.mu in another state than it began")
		return held, true
	case *ast.BlockStmt:
		exits := false
		for _, s := range s.List {
			if held, exits = w.stmt(s, held); exits {
				break
			}
		}
		return held, exits
	case *ast.IfStmt:
		return w.nested(held, false, []ast.Stmt{s.Body, s.Else}, s.Init, s.Cond)
	case *ast.RangeStmt:
		return w.nested(held, true, []ast.Stmt{s.Body}, s.X)
	case *ast.ForStmt:
		return w.nested(held, true, []ast.Stmt{s.Body}, s.Init, s.Cond, s.Post)
	}
	w.scan(s, held)
	return held, false
}

// nested walks a header, then branches or a loop body that must restore mu.
func (w *lockWalk) nested(held, loop bool, bodies []ast.Stmt, header ...ast.Node) (bool, bool) {
	for _, h := range header {
		w.scan(h, held)
	}
	if loop {
		w.loops = append(w.loops, held)
		defer func() { w.loops = w.loops[:len(w.loops)-1] }()
	}
	for _, body := range bodies {
		end, exits := w.stmt(body, held)
		w.check(exits || end == held, body, "m.mu changes state inside a branch or loop body")
	}
	return held, false
}

// scan checks a statement or expression the walk does not descend into.
func (w *lockWalk) scan(n ast.Node, held bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			w.check(!held, n, "channel send while m.mu is held: wake receivers after the unlock")
		case *ast.SelectorExpr:
			w.check(!held || n.Sel.Name != "Lock" && !w.locking[n.Sel.Name], n, n.Sel.Name+" takes a second mailbox lock while m.mu is held: mailbox locks are leaf locks")
			if w.owned[n.Sel.Name] {
				w.check(types.ExprString(n.X) == w.recv, n, n.Sel.Name+" of another mailbox named in a mailbox method")
				w.check(held, n, "m."+n.Sel.Name+" named without m.mu held")
			}
		}
		return true
	})
}
