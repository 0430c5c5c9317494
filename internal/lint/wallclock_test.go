package lint

import (
	"go/ast"
	"strings"
)

// WallClock flags wall-clock reads inside deterministic compute
// packages. Experiment shards must be pure functions of (experiment,
// Options, shard key): a time.Now anywhere in the simulation or merge
// path can leak into a cached payload or a rendered report and break
// byte-identical replay. Timing is the point of the observability,
// serving, ledger and fabric layers, so obs, engine, serve, ledger,
// fabric, the command binaries, and the examples are allowlisted
// wholesale; everything else in the module is deterministic compute.
var WallClock = &Analyzer{
	Name: "wallclock",
	Run:  runWallClock,
}

// wallClockExempt lists the path elements whose packages measure real
// time on purpose. A package is exempt when any element of its import
// path matches (so repo layout moves keep the policy).
var wallClockExempt = map[string]bool{
	"obs":      true, // span recorder: timestamps are the product
	"engine":   true, // queue/execute/merge instrumentation
	"serve":    true, // request latency metrics and logging
	"cmd":      true, // CLI progress reporting
	"examples": true, // demo output
	"ledger":   true, // run ledger: completion timestamps and wall/latency measurement are the recorded data
	"fabric":   true, // peer dispatch: hedge timers, retry backoff, and circuit-breaker cooldowns are real time
}

// wallClockFuncs are the time package's ambient-time entry points.
// time.Duration arithmetic and formatting stay allowed everywhere.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

func runWallClock(pass *Pass) {
	pkg := pass.Pkg
	for _, el := range strings.Split(pkg.ImportPath, "/") {
		if wallClockExempt[el] {
			return
		}
	}
	info := pkg.Info
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkgNameOf(info, sel) != "time" || !wallClockFuncs[sel.Sel.Name] {
				return true
			}
			pass.Reportf(sel.Pos(), "time.%s reads the wall clock in a deterministic compute package; shard output must depend only on Options — move timing to obs/engine/serve or suppress with a reason", sel.Sel.Name)
			return true
		})
	}
}
