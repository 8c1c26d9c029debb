// Package seedrand forbids nondeterministically seeded randomness in
// non-test code.
//
// Fault fates and codec-fault timelines must be pure
// functions of event identity and the run seed (see internal/faults):
// that is what lets a crash schedule replay bit-identically under any
// host scheduling. The math/rand package-level functions draw from a
// process-global source that Go 1.20+ seeds randomly at startup, so a
// single rand.Intn on the wire path would make every run unique.
//
// The analyzer flags, outside _test.go files:
//
//   - any call to a package-level function of math/rand or
//     math/rand/v2 (Int, Intn, Float64, Perm, Shuffle, Read, …),
//     including the deprecated rand.Seed;
//
// Constructing a private generator with rand.New(rand.NewSource(seed))
// is allowed: an explicit source makes the seed an auditable input, and
// vclockpurity separately rejects seeding it from the wall clock.
package seedrand

import (
	"go/ast"

	"mpicomp/internal/simlint/analysis"
)

// constructors are the math/rand package-level functions that build
// explicitly seeded values rather than drawing from the global source.
var constructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 source constructors.
	"NewPCG": true, "NewChaCha8": true,
}

// Analyzer is the seedrand pass.
var Analyzer = &analysis.Analyzer{
	Name: "seedrand",
	Doc:  "forbid math/rand global functions in non-test code (fates must be pure hashes of event identity)",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			// Methods on *rand.Rand values are fine: the generator was
			// built from an explicit source the caller chose.
			if analysis.ReceiverNamed(fn) != nil {
				return true
			}
			if constructors[fn.Name()] {
				return true
			}
			pass.Reportf(call.Pos(),
				"global rand.%s is nondeterministically seeded: derive the value from a pure hash of event identity, or use rand.New(rand.NewSource(seed))",
				fn.Name())
			return true
		})
	}
	return nil, nil
}
