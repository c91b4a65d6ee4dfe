// Package analysis is Hyperion's static-analysis framework: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// surface that the hyperlint checkers are written against.
//
// Hyperion's reproducibility story rests on a contract the Go compiler
// cannot see: every device-model package must be replay-deterministic.
// Model code may consume time only through sim.Engine's virtual clock and
// randomness only through the engine's seeded sim.Rand; it must not spawn
// goroutines, use channels or sync primitives, or let map iteration order
// leak into simulation state. Seven analyzers in the subpackages
// machine-check that contract and the hand-run protocol beside it:
// nodeterm, maprange, eventref, simtime and unsafeptr match syntax;
// bufown proves wire.Buf custody over flow's CFGs (one per function,
// solved to a fixpoint); sharedstate guards sharding.
// cmd/hyperlint drives them either standalone or as a
// `go vet -vettool` plugin.
//
// The framework is intentionally API-compatible in spirit with
// x/tools/go/analysis (Analyzer, Pass, Diagnostic) so the checkers could
// be ported to the upstream driver verbatim if the dependency ever
// becomes available; it exists because this repository builds offline
// against the standard library only.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one static check. Name doubles as the suppression key:
// a `//hyperlint:allow(<name>) reason` comment silences this analyzer's
// diagnostics on the annotated line.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass presents one type-checked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Path is the package's import path with the module prefix intact
	// (e.g. "hyperion/internal/rpc"); Layer is its classification.
	Path  string
	Layer Layer

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// NonTestFiles returns the package files excluding _test.go files.
// Hyperlint's determinism checks apply to model code proper: test files
// routinely (and legitimately) exercise engines from multiple
// goroutines, compare wall time, or iterate maps while asserting.
func (p *Pass) NonTestFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// A Diagnostic is one finding, positioned in the package's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a rendered diagnostic: what a driver prints or a test
// harness matches against.
type Finding struct {
	Check    string // analyzer name
	Position token.Position
	Message  string
}

// Layer classifies a package under the determinism contract.
type Layer int

const (
	// LayerModel packages hold simulation state machines. The full
	// discipline applies: no wall clock, no global rand, no
	// concurrency, no order-dependent map iteration, EventRef and
	// sim.Time hygiene.
	LayerModel Layer = iota
	// LayerHarness packages drive simulations from outside (the bench
	// runner, cmd binaries). They may use goroutines, channels and
	// sync freely — each experiment row owns a private engine — but every
	// wall-clock read must carry a //hyperlint:allow(nodeterm)
	// annotation stating that the value never feeds model time.
	LayerHarness
	// LayerExempt packages are outside the contract entirely:
	// examples, the analysis framework itself, and test-only packages.
	LayerExempt
)

func (l Layer) String() string {
	switch l {
	case LayerModel:
		return "model"
	case LayerHarness:
		return "harness"
	default:
		return "exempt"
	}
}

// ModulePath is the import-path prefix of this repository's module.
const ModulePath = "hyperion"

// Classify maps an import path to its layer. Paths both with and
// without the module prefix are accepted; testdata packages opt into
// the harness or exempt layers via a `_harness` / `_exempt` suffix on
// their final path element.
func Classify(path string) Layer {
	rel := strings.TrimPrefix(path, ModulePath+"/")
	if rel == ModulePath || rel == "" {
		return LayerExempt // the root package holds only bench_test.go
	}
	last := rel[strings.LastIndexByte(rel, '/')+1:]
	switch {
	case strings.Contains(path, " ["): // test variant IDs, e.g. "p [p.test]"
		return LayerExempt
	case strings.HasSuffix(last, "_test") || strings.HasSuffix(last, ".test"):
		return LayerExempt
	case strings.HasPrefix(rel, "examples/"):
		return LayerExempt
	case rel == "internal/analysis" || strings.HasPrefix(rel, "internal/analysis/"):
		return LayerExempt
	case strings.HasSuffix(last, "_exempt"):
		return LayerExempt
	case rel == "internal/bench" || strings.HasPrefix(rel, "cmd/"):
		return LayerHarness
	case strings.HasSuffix(last, "_harness"):
		return LayerHarness
	default:
		return LayerModel
	}
}

// RunAnalyzers applies analyzers to a loaded package and returns the
// surviving findings: suppressed diagnostics are dropped, and allow
// comments missing a justification are themselves reported (check name
// "allow"). Findings come back sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	sup := collectSuppressions(pkg.Fset, pkg.Files)
	var out []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Path:      pkg.Path,
			Layer:     Classify(pkg.Path),
		}
		pass.report = func(d Diagnostic) {
			posn := pkg.Fset.Position(d.Pos)
			if sup.allows(a.Name, posn) {
				return
			}
			out = append(out, Finding{Check: a.Name, Position: posn, Message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	out = append(out, sup.missingReasons()...)
	sortFindings(out)
	return out, nil
}

func sortFindings(fs []Finding) {
	// Insertion sort: finding counts are tiny and this keeps the
	// framework free of even sort-package closures in the hot path.
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && findingLess(fs[j], fs[j-1]); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

func findingLess(a, b Finding) bool {
	if a.Position.Filename != b.Position.Filename {
		return a.Position.Filename < b.Position.Filename
	}
	if a.Position.Line != b.Position.Line {
		return a.Position.Line < b.Position.Line
	}
	if a.Position.Column != b.Position.Column {
		return a.Position.Column < b.Position.Column
	}
	return a.Check < b.Check
}
