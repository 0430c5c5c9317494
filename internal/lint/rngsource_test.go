package lint

import (
	"go/ast"
	"strconv"
)

// RNGSource flags math/rand (and math/rand/v2) anywhere in the module.
// All randomness must flow from explicit 64-bit seeds through
// stats.RNG (SplitMix64) or the hash-derived samplers in
// internal/stats: math/rand's global generator is process-seeded, and
// even a locally seeded rand.Rand is a second, unaudited seed path
// that silently decouples results from Options.Seed — the experiment
// cache and the golden suite both assume the seed fully determines
// every payload.
var RNGSource = &Analyzer{
	Name: "rngsource",
	Run:  runRNGSource,
}

func runRNGSource(pass *Pass) {
	pkg := pass.Pkg
	info := pkg.Info
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s: derive randomness from stats.RNG (repro/internal/stats) so Options.Seed fully determines the run", path)
			}
		}
		// Also pin each use site, so the finding lands where the
		// nondeterminism enters even if the import is suppressed.
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch pkgNameOf(info, sel) {
			case "math/rand", "math/rand/v2":
				pass.Reportf(sel.Pos(), "%s.%s is not derived from Options.Seed; use stats.RNG or the stats hash samplers", selQualifier(sel), sel.Sel.Name)
			}
			return true
		})
	}
}

// selQualifier renders the selector's package qualifier as written.
func selQualifier(sel *ast.SelectorExpr) string {
	if id, ok := sel.X.(*ast.Ident); ok {
		return id.Name
	}
	return "rand"
}
