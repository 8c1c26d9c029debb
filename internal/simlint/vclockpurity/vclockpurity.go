// Package vclockpurity forbids wall-clock reads in simulation code.
//
// Every latency in the repository is expressed in simulated nanoseconds
// (package simtime); results_table3.txt and every baseline depend on
// runs being bit-identical across hosts and schedulers. A single stray
// time.Now() feeding a charge, a header field, or a fault fate would
// tie results to the machine's speed and break replay silently.
//
// The analyzer flags calls to the wall-clock functions of package time
// (Now, Since, Until, Sleep, After, AfterFunc, Tick, NewTimer,
// NewTicker) everywhere except:
//
//   - test files (_test.go), where wall-clock timing is benign;
//   - functions annotated `//simlint:wallclock <reason>` in their doc
//     comment, the blessed escape hatch for host-side accounting such
//     as core.HostStats (which measures real codec throughput, a
//     quantity that is *about* the wall clock);
//   - individual lines carrying the same directive as a trailing
//     comment.
package vclockpurity

import (
	"go/ast"

	"mpicomp/internal/simlint/analysis"
)

// Directive is the annotation that blesses a wall-clock site.
const Directive = "wallclock"

// wallFuncs are the package-level functions of "time" that read or
// schedule against the host clock. Conversions and arithmetic on
// time.Duration values are untouched: holding a duration is fine,
// minting one from the host clock is not.
var wallFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// Analyzer is the vclockpurity pass.
var Analyzer = &analysis.Analyzer{
	Name:       "vclockpurity",
	Doc:        "forbid wall-clock reads (time.Now etc.) outside //simlint:wallclock functions",
	Directives: []string{Directive},
	Run:        run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass, file) {
			continue
		}
		dirs := pass.DirectivesFor(file)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if !wallFuncs[fn.Name()] || analysis.ReceiverNamed(fn) != nil {
				return true
			}
			if dirs.Allows(Directive, call.Pos()) {
				return true
			}
			pass.Reportf(call.Pos(),
				"wall-clock call time.%s in simulation code: derive timing from simtime (or annotate the function //simlint:wallclock with a reason)",
				fn.Name())
			return true
		})
	}
	return nil, nil
}
