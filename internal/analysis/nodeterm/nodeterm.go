// Package nodeterm bans nondeterminism sources in Hyperion model
// packages: wall-clock reads, the global math/rand generators,
// goroutines, channels, and sync primitives.
//
// Device models are state machines driven single-threaded by a
// sim.Engine; virtual time comes from Engine.Now and randomness from
// the engine's seeded sim.Rand. Any of the constructs banned here
// would let host scheduling or process entropy leak into simulation
// results and silently break replay determinism — the property the
// golden experiment-table hashes in cmd/hyperbench/golden.json pin down.
//
// Harness-layer packages (internal/bench, cmd/*) may use goroutines,
// channels, and sync freely: the parallel experiment runner and the
// row fan-out depend on them, and each experiment row drives a private
// engine. Wall-clock reads are permitted there too, but only under an
// explicit //hyperlint:allow(nodeterm) annotation stating that the
// value is measurement-only and never feeds model time.
package nodeterm

import (
	"go/ast"
	"go/token"
	"go/types"

	"hyperion/internal/analysis"
)

// Analyzer is the nodeterm pass.
var Analyzer = &analysis.Analyzer{
	Name: "nodeterm",
	Doc:  "bans wall-clock, global rand, goroutines, channels and sync in model packages",
	Run:  run,
}

// wallClockFuncs are the package time functions that read the host
// clock or schedule on it. time.Duration arithmetic and constants
// remain fine everywhere — only observing real time is banned.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// bannedImports are packages a model may not even import: their whole
// point is shared mutable state or concurrency.
var bannedImports = map[string]string{
	"math/rand":    "use the engine's seeded sim.Rand instead",
	"math/rand/v2": "use the engine's seeded sim.Rand instead",
	"sync":         "models run single-threaded inside the event loop; no locking is needed or allowed",
	"sync/atomic":  "models run single-threaded inside the event loop; no atomics are needed or allowed",
}

func run(pass *analysis.Pass) error {
	if pass.Layer == analysis.LayerExempt {
		return nil
	}
	model := pass.Layer == analysis.LayerModel
	for _, f := range pass.NonTestFiles() {
		if model {
			for _, imp := range f.Imports {
				path := imp.Path.Value
				path = path[1 : len(path)-1] // unquote
				if why, ok := bannedImports[path]; ok {
					pass.Reportf(imp.Pos(), "model package imports %q: %s", path, why)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkWallClock(pass, n)
			case *ast.GoStmt:
				if model {
					pass.Reportf(n.Pos(), "model package starts a goroutine: models must run single-threaded inside the event loop (schedule with Engine.At/After instead)")
				}
			case *ast.SelectStmt:
				if model {
					pass.Reportf(n.Pos(), "model package uses select: channel scheduling is host-nondeterministic; drive state machines from engine events")
				}
			case *ast.SendStmt:
				if model {
					pass.Reportf(n.Pos(), "model package sends on a channel: pass data through scheduled callbacks, not channels")
				}
			case *ast.UnaryExpr:
				if model && n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "model package receives from a channel: pass data through scheduled callbacks, not channels")
				}
			case *ast.ChanType:
				if model {
					pass.Reportf(n.Pos(), "model package declares a channel type: channels are banned in model code")
				}
			}
			return true
		})
	}
	return nil
}

// checkWallClock flags uses of the time package's clock-reading
// functions. In model packages they are flat-out banned; in harness
// packages the diagnostic exists to be suppressed — an unannotated
// wall-clock read fails the build, so every one in the tree carries a
// machine-checked statement of intent.
func checkWallClock(pass *analysis.Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallClockFuncs[fn.Name()] {
		return
	}
	if pass.Layer == analysis.LayerModel {
		pass.Reportf(sel.Pos(), "model package calls time.%s: model time must come from sim.Engine.Now, never the host clock", fn.Name())
	} else {
		pass.Reportf(sel.Pos(), "harness wall-clock read time.%s needs an annotation: //hyperlint:allow(nodeterm) <why this never feeds model time>", fn.Name())
	}
}
