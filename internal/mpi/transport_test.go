package mpi

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/dtype"
	"mpicomp/internal/faults"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/simtime"
)

// TestShortReceiveByTier pins the error path every tier shares: an
// oversized message into a short receive, with and without a layout, on
// the eager, whole-message rendezvous, pipelined and chunked-relay tiers —
// and once more with the message also failing delivery. Every tier must
// report the delivery error when there is one and a truncation error
// otherwise, at a clock no earlier than the match instant, with the
// sender's Wait completing and no staging left behind. (The per-tier
// copies had drifted: the pipelined completion checked truncation before
// it advanced the clock or looked at the delivery error.)
func TestShortReceiveByTier(t *testing.T) {
	const chunk = 16 << 10
	box := func(x, y, z int) dtype.Type {
		return dtype.Subarray3D{Dims: [3]int{x + 2, y + 2, z}, Sub: [3]int{x, y, z}, Start: [3]int{1, 1, 0}}
	}
	extent := func(typ dtype.Type) int { d := typ.(dtype.Subarray3D).Dims; return d[0] * d[1] * d[2] }
	tiers := []struct {
		name       string
		send, recv int        // message and receive capacity, words
		sendT      dtype.Type // the same sizes as layouts
		recvT      dtype.Type
		relay      bool
	}{
		{"eager", 256, 64, box(16, 4, 4), box(8, 4, 2), false},
		{"rendezvous", 6 << 10, 1 << 10, box(32, 16, 12), box(16, 8, 8), false},
		{"pipelined", 32 << 10, 1 << 10, box(64, 32, 16), box(16, 8, 8), false},
		{"relay", 64 << 10, 1 << 10, nil, box(16, 8, 8), true},
	}
	for _, tier := range tiers {
		for _, typed := range []bool{false, true} {
			for _, lossy := range []bool{false, true} {
				tier, typed, lossy := tier, typed, lossy
				t.Run(fmt.Sprintf("%s/typed=%v/lossy=%v", tier.name, typed, lossy), func(t *testing.T) {
					opt := Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1, Engine: core.Config{
						Mode: core.ModeOpt, Algorithm: core.AlgoMPC, Threshold: chunk / 2, PipelineChunkBytes: chunk}}
					if lossy {
						opt.Faults = &faults.Config{Seed: 1, DropRate: 1}
						opt.Retry = RetryPolicy{Limit: -1, ChunkLimit: -1}
					}
					w := mustWorld(t, opt)
					var sendPost, recvDone simtime.Time
					var sendErr, recvErr error
					_, err := w.Run(func(r *Rank) error {
						if r.ID() == 0 {
							// Send late, so the match instant is the sender's.
							r.Clock.Advance(500 * simtime.Microsecond)
							sendPost = r.Clock.Now()
							var req *Request
							var err error
							switch {
							case tier.relay:
								payload, hdr := r.Engine.Compress(r.Clock, goldenPayload(r, 0, tier.send))
								if len(payload) < 2*chunk {
									t.Errorf("relay payload of %d bytes would not be segmented", len(payload))
								}
								req, err = r.isendPayload(1, 0, payload, hdr, nil)
							case typed:
								req, err = r.IsendTyped(1, 0, goldenPayload(r, 0, extent(tier.sendT)), tier.sendT)
							default:
								req, err = r.Isend(1, 0, goldenPayload(r, 0, tier.send))
							}
							if err != nil {
								return err
							}
							sendErr = r.Wait(req)
							return nil
						}
						if typed {
							recvErr = r.RecvTyped(0, 0, emptyDevBuf(r, extent(tier.recvT)), tier.recvT)
						} else {
							recvErr = r.Recv(0, 0, emptyDevBuf(r, tier.recv))
						}
						recvDone = r.Clock.Now()
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					if lossy {
						if !errors.Is(recvErr, ErrDeliveryFailed) || !errors.Is(sendErr, ErrDeliveryFailed) {
							t.Errorf("a failed delivery outranks truncation on every tier: receiver got %v, sender %v", recvErr, sendErr)
						}
					} else {
						if recvErr == nil || errors.Is(recvErr, ErrDeliveryFailed) || !strings.Contains(recvErr.Error(), "truncated") {
							t.Errorf("receiver got %v, want a truncation error", recvErr)
						}
						if sendErr != nil {
							t.Errorf("the sender of a truncated message got %v", sendErr)
						}
					}
					if recvDone < sendPost {
						t.Errorf("receiver observed the outcome at %v, before the message was even sent (%v)", recvDone, sendPost)
					}
					assertPoolBalance(t, w, "short receive")
					for id := 0; id < w.Size(); id++ {
						if n := len(w.Rank(id).rawStaged); n != 0 {
							t.Errorf("rank %d still parks %d raw staging buffers", id, n)
						}
					}
				})
			}
		}
	}
}

// TestNilBufferRejected: "no destination" means a raw receive inside the
// runtime, so the public boundary refuses a nil buffer with an error (it
// used to be a nil dereference recovered as "rank panicked").
func TestNilBufferRejected(t *testing.T) {
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 1, PPN: 2})
	_, err := w.Run(func(r *Rank) error {
		vec := dtype.Vector{Count: 1, BlockLen: 1, Stride: 1}
		var none *gpusim.Buffer
		for _, c := range []struct {
			name string
			call func() error
		}{
			{"Isend", func() error { _, err := r.Isend(1-r.ID(), 0, none); return err }},
			{"Irecv", func() error { _, err := r.Irecv(1-r.ID(), 0, none); return err }},
			{"IsendTyped", func() error { _, err := r.IsendTyped(1-r.ID(), 0, none, vec); return err }},
			{"IrecvTyped", func() error { _, err := r.IrecvTyped(1-r.ID(), 0, none, vec); return err }},
			{"Sendrecv", func() error { return r.Sendrecv(1-r.ID(), 0, none, 1-r.ID(), 0, none) }},
		} {
			if err := c.call(); err == nil || !strings.Contains(err.Error(), "nil buffer") {
				t.Errorf("rank %d: %s(nil buffer) = %v, want a nil-buffer error", r.ID(), c.name, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTransportWrittenOnce keeps the one-path shape from eroding: the
// fabric moves payload bytes for exactly one function (the bounded-retry
// loop), envelopes are built by the two producers of a wire form — prepare
// from a user buffer, isendPayload from a relayed payload — and by
// failEnvelope only, post is the one function that hands a message to a
// mailbox, receive staging goes back to the
// engine from four functions, and a raw receive is paired with a payload
// send in a loop only inside the relay-ring helper.
func TestTransportWrittenOnce(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	// sites[what] lists the functions containing a matching node.
	sites := map[string][]string{}
	note := func(what, fn string) {
		for _, seen := range sites[what] {
			if seen == fn {
				return
			}
		}
		sites[what] = append(sites[what], fn)
	}
	callee := func(n ast.Node) string {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				return sel.Sel.Name
			}
		}
		return ""
	}
	isRawRecv := func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || callee(n) != "irecv" || len(call.Args) != 3 {
			return false
		}
		id, ok := call.Args[2].(*ast.Ident)
		return ok && id.Name == "nil"
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch callee(n) {
				case "Transfer", "ShouldDrop", "deliver":
					note(callee(n), fn.Name.Name)
				case "ReleaseRecv":
					note("ReleaseRecv", fn.Name.Name)
				}
				if lit, ok := n.(*ast.CompositeLit); ok {
					if id, ok := lit.Type.(*ast.Ident); ok && id.Name == "envelope" {
						note("envelope{}", fn.Name.Name)
					}
				}
				if loop, ok := n.(*ast.ForStmt); ok {
					raw, payload := false, false
					ast.Inspect(loop.Body, func(m ast.Node) bool {
						raw = raw || isRawRecv(m)
						payload = payload || callee(m) == "isendPayload"
						return true
					})
					if raw && payload {
						note("relay loop", fn.Name.Name)
					}
				}
				return true
			})
		}
	}
	for _, c := range []struct {
		what string
		want []string
	}{
		{"Transfer", []string{"transmit"}},
		{"ShouldDrop", []string{"transmit"}},
		{"deliver", []string{"post"}},
		{"envelope{}", []string{"failEnvelope", "isendPayload", "prepare"}},
		{"ReleaseRecv", []string{"consumeRaw", "releaseRawStaged", "releaseStaging", "runMatch"}},
		{"relay loop", []string{"relayRing"}},
	} {
		got := sites[c.what]
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(c.want, " ") {
			t.Errorf("%s appears in %v, want exactly %v", c.what, got, c.want)
		}
	}
}

// TestOneCollectiveExecutor keeps every collective on the one executor:
// outside p2p.go, only runStep and the shared transport steps it calls
// post point-to-point operations — besides the typed point-to-point API
// (typed.go) and the self-heal verdict round, which are no collectives. A
// hand-written collective shows up as a new caller, as the planted one
// below does.
func TestOneCollectiveExecutor(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]any{}
	for _, name := range files {
		if !strings.HasSuffix(name, "_test.go") {
			srcs[name] = nil
		}
	}
	if got := transportCallers(t, srcs); len(got) > 0 {
		t.Errorf("point-to-point calls outside the executor: %v", got)
	}
	planted := `package mpi
func (r *Rank) plantedBcast(root int, buf *gpusim.Buffer) error {
	if r.id != root {
		return r.recv(root, r.collTag(baseBcast), buf)
	}
	for p := 0; p < r.Size(); p++ {
		if err := r.send(p, r.collTag(baseBcast), buf); err != nil {
			return err
		}
	}
	return nil
}`
	if got := transportCallers(t, map[string]any{"planted.go": planted}); strings.Join(got, " ") != "planted.go:plantedBcast" {
		t.Errorf("the planted hand-written broadcast is reported as %v", got)
	}
}

// transportCallers lists, as file:function, the functions of the given
// sources (nil: read the file) that post a point-to-point operation but
// are not allowed to.
func transportCallers(t *testing.T, srcs map[string]any) []string {
	prims := map[string]bool{"isend": true, "irecv": true, "irecvAdd": true, "send": true, "recv": true, "sendrecv": true,
		"isendPayload": true, "prepare": true, "post": true}
	allowed := map[string]bool{"runStep": true, "ringReduceStep": true, "rdExchange": true, "relayRing": true,
		"treeRelay": true, "alltoallvStep": true, "healVerdict": true}
	fset := token.NewFileSet()
	var out []string
	for name, src := range srcs {
		if name == "p2p.go" || name == "typed.go" {
			continue
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || allowed[fn.Name.Name] {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && prims[sel.Sel.Name] {
						out = append(out, name+":"+fn.Name.Name)
						return false
					}
				}
				return true
			})
		}
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// TestAllreduceSchedulesDeclaredOnce keeps the schedule space in one place:
// outside algo.go's table no non-test Go file of the repository spells a
// schedule's name as a string literal (names come from String, parsing from
// ParseAllreduceAlgo) or lists the schedules in a composite literal (lists
// come from AllreduceAlgos and AllreduceCandidates), and internal/tune names
// no schedule at all — it prices the steps a schedule runs
// (PriceAllreduce), so it has nothing to branch on (AllreduceAuto, the
// dispatch mode, is not a schedule).
func TestAllreduceSchedulesDeclaredOnce(t *testing.T) {
	names, consts := map[string]bool{}, map[string]bool{}
	for _, a := range AllreduceAlgos() {
		names[strconv.Quote(a.String())] = true
	}
	fset := token.NewFileSet()
	table, err := parser.ParseFile(fset, "algo.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(table, func(n ast.Node) bool {
		if spec, ok := n.(*ast.ValueSpec); ok {
			for _, id := range spec.Names {
				if strings.HasPrefix(id.Name, "Allreduce") {
					consts[id.Name] = true
				}
			}
		}
		return true
	})
	if len(consts) != len(names) {
		t.Fatalf("algo.go declares %d Allreduce* constants for %d table rows", len(consts), len(names))
	}
	root := filepath.Join("..", "..")
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench/ is its own module, frozen outside [benchmark] PRs.
			if name := d.Name(); name == "testdata" || name == "bench" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || path == filepath.Join(root, "internal", "mpi", "algo.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		inTune := filepath.Dir(path) == filepath.Join(root, "internal", "tune")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && inTune && id.Name == "mpi" && consts[n.Sel.Name] && n.Sel.Name != "AllreduceAuto" {
					t.Errorf("%s: internal/tune names schedule %s; price the steps it runs instead", fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.BasicLit:
				if n.Kind == token.STRING && names[n.Value] {
					t.Errorf("%s: schedule name %s spelled outside mpi/algo.go", fset.Position(n.Pos()), n.Value)
				}
			case *ast.CompositeLit:
				listed := 0
				for _, elt := range n.Elts {
					if sel, ok := elt.(*ast.SelectorExpr); ok {
						elt = sel.Sel
					}
					if id, ok := elt.(*ast.Ident); ok && consts[id.Name] {
						listed++
					}
				}
				if listed > 1 {
					t.Errorf("%s: composite literal lists %d schedules; range over mpi.AllreduceAlgos or AllreduceCandidates", fset.Position(n.Pos()), listed)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
