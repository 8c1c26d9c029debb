// Package phasecharge keeps the simulator's cost model honest: host
// work on payload bytes must be charged to a Phase. The figures the
// simulator reproduces are built from Breakdown entries and clock
// advances; a memcpy or checksum pass over payload data that no charge
// accompanies is work the model silently performs for free, which
// skews every crossover point the paper's plots depend on.
//
// A payload-work site is a builtin copy with a gpusim.Buffer.Data
// argument, or a call to core.Checksum. The function containing the
// site must reach — itself or through the intra-module call graph,
// crossing package boundaries via facts — one of the charging
// primitives: Breakdown.Add/AddAll, Engine.charge, timer.stop, or
// simtime Clock.Advance/AdvanceTo. Functions that deliberately do
// unaccounted work (a caller charges on their behalf, or the copy
// models a zero-cost scrub) carry `//simlint:nocharge <reason>`.
//
// The gpusim package itself is exempt: it is the device model whose
// primitives the charges are for.
package phasecharge

import (
	"go/ast"
	"go/types"
	"sort"

	"mpicomp/internal/simlint/analysis"
	"mpicomp/internal/simlint/callgraph"
)

const directive = "nocharge"

// Analyzer is the phasecharge check.
var Analyzer = &analysis.Analyzer{
	Name: "phasecharge",
	Doc: "check that host work on payload bytes (copy into gpusim.Buffer.Data, core.Checksum) reaches a Phase charge; " +
		"suppress with //simlint:nocharge",
	Directives: []string{directive},
	FactTypes:  []analysis.Fact{(*chargesFact)(nil)},
	Run:        run,
}

// chargesFact marks an exported function that (transitively) charges a
// Phase, so cross-package callers count a call to it as accounting.
type chargesFact struct{}

func (*chargesFact) AFact()         {}
func (*chargesFact) String() string { return "charges" }

func run(pass *analysis.Pass) {
	// The device model is what the charges pay for, not a client of them.
	if analysis.PkgPathIs(pass.Pkg, "gpusim") {
		return
	}
	g := callgraph.Build(pass.TypesInfo, pass.Files)
	c := &checker{pass: pass, graph: g}

	// Export before checking so the facts exist regardless of findings.
	fns := make([]*types.Func, 0, len(g.Calls))
	for fn := range g.Calls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
	for _, fn := range fns {
		if g.Reaches(fn, c.isCharging) {
			pass.ExportObjectFact(fn, &chargesFact{})
		}
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(file, fd)
		}
	}
}

type checker struct {
	pass  *analysis.Pass
	graph *callgraph.Graph
}

func (c *checker) checkFunc(file *ast.File, fd *ast.FuncDecl) {
	sites := c.payloadSites(fd.Body)
	if len(sites) == 0 {
		return
	}
	fn, _ := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	if c.graph.Reaches(fn, c.isCharging) {
		return
	}
	for _, site := range sites {
		if c.pass.DirectivesFor(file).Allows(directive, site.Pos()) {
			continue
		}
		c.pass.Reportf(site.Pos(),
			"host work on payload bytes is never charged: no path from %s reaches Breakdown.Add, Engine.charge, timer.stop, or Clock.Advance (charge a Phase or mark //simlint:nocharge)",
			fn.Name())
	}
}

// payloadSites collects the body's payload-work call sites, closures
// included (their cost belongs to the enclosing function's account).
func (c *checker) payloadSites(body *ast.BlockStmt) []*ast.CallExpr {
	var sites []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "copy" {
			if _, builtin := c.pass.TypesInfo.Uses[id].(*types.Builtin); builtin && len(call.Args) == 2 {
				if c.isPayloadExpr(call.Args[0]) || c.isPayloadExpr(call.Args[1]) {
					sites = append(sites, call)
				}
			}
			return true
		}
		if callee := analysis.Callee(c.pass.TypesInfo, call); callee != nil &&
			analysis.IsPkgFunc(callee, "core", "Checksum") {
			sites = append(sites, call)
		}
		return true
	})
	return sites
}

// isPayloadExpr reports whether e is (a slice of) a gpusim.Buffer's
// Data field — the simulator's payload bytes.
func (c *checker) isPayloadExpr(e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
			continue
		case *ast.IndexExpr:
			e = x.X
			continue
		case *ast.SelectorExpr:
			if x.Sel.Name != "Data" {
				return false
			}
			sel, ok := c.pass.TypesInfo.Selections[x]
			if !ok || sel.Kind() != types.FieldVal {
				return false
			}
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			named, ok := recv.(*types.Named)
			return ok && named.Obj().Name() == "Buffer" &&
				named.Obj().Pkg() != nil && analysis.PkgPathIs(named.Obj().Pkg(), "gpusim")
		default:
			return false
		}
	}
}

// isCharging reports whether calling fn accounts simulated time: the
// charging roots, or an imported function carrying a charges fact.
func (c *checker) isCharging(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	name := fn.Name()
	if recv := analysis.ReceiverNamed(fn); recv != nil && recv.Obj().Pkg() != nil {
		pkg := recv.Obj().Pkg()
		switch recv.Obj().Name() {
		case "Breakdown":
			if (name == "Add" || name == "AddAll") && analysis.PkgPathIs(pkg, "core") {
				return true
			}
		case "Engine":
			if name == "charge" && analysis.PkgPathIs(pkg, "core") {
				return true
			}
		case "timer":
			if name == "stop" && analysis.PkgPathIs(pkg, "core") {
				return true
			}
		case "Clock":
			if (name == "Advance" || name == "AdvanceTo") && analysis.PkgPathIs(pkg, "simtime") {
				return true
			}
		}
	}
	// Not a root: an imported function still charges if its defining
	// package exported a charges fact for it.
	if fn.Pkg() != nil && fn.Pkg() != c.pass.Pkg {
		return c.pass.ImportObjectFact(fn, &chargesFact{})
	}
	return false
}
