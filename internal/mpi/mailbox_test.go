package mpi

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"mpicomp/internal/hw"
	"mpicomp/internal/sched"
	"mpicomp/internal/simtime"
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
	if !owned["posted"] || !owned["goneForLocked"] {
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

// TestGonePickIsOrderFree: which gone record a receive or an inbound
// message meets depends on the record set, never on the order the records
// arrived in (publishes from different ranks race on the host). Peers'
// records: an attempt scope beats every tag, then the lowest src; the
// owner's: every tag beats an attempt. Each case runs with the records
// recorded in both orders.
func TestGonePickIsOrderFree(t *testing.T) {
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 1, PPN: 4})
	deadline := w.health.Deadline
	attemptTag := w.Rank(0).collTag(sched.BaseBcast) // epoch 0, op 0
	failed2 := gone{src: 2, at: 10, err: errors.New("2 failed")}
	failed1 := gone{src: 1, at: 20, err: errors.New("1 failed")}
	quit2 := gone{src: 2, at: 30, err: errors.New("2 quit"), attempt: true}
	wake := func(records []gone, src, tag int) *envelope {
		m := newMailbox(w)
		for _, g := range records {
			m.recordPeer(g)
		}
		return m.post(&recvPost{src: src, tag: tag, postTime: 5, matched: make(chan *envelope, 1)})
	}
	for _, c := range []struct {
		name     string
		records  []gone
		src, tag int
		want     gone
	}{
		{"AnySource meets the lowest failed src", []gone{failed2, failed1}, AnySource, 7, failed1},
		{"an attempt's tag meets the quit", []gone{failed2, quit2}, 2, attemptTag, quit2},
		{"a user tag is outside the attempt", []gone{quit2, failed2}, 2, 7, failed2},
	} {
		for _, order := range [][]gone{c.records, {c.records[1], c.records[0]}} {
			env := wake(order, c.src, c.tag)
			if env == nil || env.src != c.want.src || env.deliveryErr != c.want.err || env.matchTime != simtime.Max(5, c.want.at).Add(deadline) {
				t.Errorf("%s, records %v: woken with %+v, want %v", c.name, order, env, c.want)
			}
		}
	}
	// The owner quit the attempt, then failed: the failure refuses the
	// attempt's traffic too.
	ownQuit := gone{src: 0, at: 30, err: errors.New("0 quit"), attempt: true}
	ownFailed := gone{src: 0, at: 40, err: errors.New("0 failed")}
	for _, order := range [][]gone{{ownQuit, ownFailed}, {ownFailed, ownQuit}} {
		m := newMailbox(w)
		for _, g := range order {
			m.recordOwn(g)
		}
		env := &envelope{src: 1, dst: 0, tag: attemptTag, rtsArrival: 35, senderDone: make(chan sendOutcome, 1)}
		m.deliver(env)
		if out := <-env.senderDone; out.err != ownFailed.err || out.t != simtime.Time(40).Add(deadline) {
			t.Errorf("records %v: sender failed with %+v, want the failure's", order, out)
		}
	}
}

// TestOwnFailureDropsPostedReceives: a failed owner's posted receives never
// resume, so a message arriving for one afterwards fails its sender at the
// failure's detection instant instead of completing into a dead rank.
func TestOwnFailureDropsPostedReceives(t *testing.T) {
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 1, PPN: 2})
	m := newMailbox(w)
	if m.post(&recvPost{src: 1, tag: 7, postTime: 5, matched: make(chan *envelope, 1), rank: w.Rank(0)}) != nil {
		t.Fatal("an empty mailbox matched a receive")
	}
	failed := gone{src: 0, at: 40, err: errors.New("0 failed")}
	m.recordOwn(failed)
	env := &envelope{src: 1, dst: 0, tag: 7, rtsArrival: 50, senderDone: make(chan sendOutcome, 1)}
	m.deliver(env)
	if out := <-env.senderDone; out.err != failed.err || out.t != simtime.Time(50).Add(w.health.Deadline) {
		t.Errorf("sender completed with %+v, want the failure at max(RTS arrival, onset) + Deadline", out)
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
