// Package spanpair is the flow-sensitive telemetry span pairing check:
// every span begun with Recorder.Begin must be ended exactly once on
// every path.
//
// A begun-but-never-ended ActiveSpan is silent data loss — the span
// simply never reaches the trace buffer, and the golden trace fixture
// or a latency histogram quietly loses a stage. The pass tracks each
// ActiveSpan value from its Begin through the flow package's CFG
// (including the defer chain, so `defer sp.End(...)` pairs) and
// reports spans that may reach function exit un-ended, spans ended
// twice on every path, and Begin results that are discarded outright.
// A span passed to another function, stored into a container, returned
// or captured by a closure escapes: pairing responsibility moved out
// of intra-procedural view. Those rules, the lattice and the driver
// are flow's custody engine, shared with bufown; what is here is what
// begins and ends a span.
//
// Like bufown, the check runs on every layer — span pairing is an API
// contract, not a determinism rule.
package spanpair

import (
	"go/ast"
	"go/types"
	"maps"

	"hyperion/internal/analysis"
	"hyperion/internal/analysis/flow"
)

// Analyzer is the spanpair pass.
var Analyzer = &analysis.Analyzer{
	Name: "spanpair",
	Doc:  "every telemetry span begun must be ended on all paths",
	Run:  run,
}

const telemetryPath = analysis.ModulePath + "/internal/telemetry"

func run(pass *analysis.Pass) error {
	flow.Track(pass, func(t *flow.Tracker, _ *ast.FuncDecl) flow.Rules { return prob{t} })
	return nil
}

// prob is spanpair's flow.Rules: a span is Held from Begin to End.
type prob struct{ *flow.Tracker }

func (p prob) Leak(path string, c flow.Cell) {
	p.Reportf(c.Origin, "span %s begun here is not ended on every path", path)
}

func (p prob) Neutral(t types.Type) bool { return isActiveSpan(t) }

func (p prob) Modelled(call *ast.CallExpr) bool { return p.isBegin(call) }

func (p prob) Use(ast.Expr, string, flow.Cell) {}

func (p prob) FlowEdge(_ flow.Edge, st flow.Custody) flow.Custody { return st }

func (p prob) Transfer(n ast.Node, st flow.Custody) flow.Custody {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return p.assign(n, st)
	case *ast.ExprStmt:
		return p.exprStmt(n, st)
	case *ast.ReturnStmt:
		st = p.EscapeClosures(n, st)
		for _, r := range n.Results {
			st = p.EscapeNested(r, st).Escape(p.Path(r))
		}
		return st
	case *ast.DeferStmt:
		return st // modeled by the CFG defer chain
	case *ast.GoStmt:
		return p.EscapeCall(n.Call, p.EscapeClosures(n, st))
	default:
		return p.EscapeNested(n, p.EscapeClosures(n, st))
	}
}

func (p prob) assign(n *ast.AssignStmt, st flow.Custody) flow.Custody {
	st = p.EscapeClosures(n, st)
	if len(n.Rhs) == 1 {
		rhs := ast.Unparen(n.Rhs[0])
		if call, ok := rhs.(*ast.CallExpr); ok {
			if !p.isBegin(call) {
				return p.EscapeCall(call, st)
			}
			lhsPath := p.Path(n.Lhs[0])
			if lhsPath == "" {
				p.Reportf(call.Pos(), "span begun here is discarded and can never be ended")
				return st
			}
			out := maps.Clone(st)
			out[lhsPath] = flow.Cell{Origin: call.Pos(), M: flow.Held}
			return out
		}
		// sp2 := sp moves the pairing obligation, or escapes it where
		// sp2 is not storage this pass can name.
		if rhsPath := p.Path(rhs); rhsPath != "" {
			out, _ := p.Move(n.Lhs[0], rhsPath, st)
			return out
		}
	}
	for _, r := range n.Rhs {
		st = p.EscapeNested(r, st)
	}
	return st
}

func (p prob) exprStmt(n *ast.ExprStmt, st flow.Custody) flow.Custody {
	st = p.EscapeClosures(n, st)
	call, ok := ast.Unparen(n.X).(*ast.CallExpr)
	if !ok {
		return st
	}
	if p.isBegin(call) {
		p.Reportf(call.Pos(), "span begun here is discarded and can never be ended")
		return st
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" || !isActiveSpan(p.Pass.TypesInfo.TypeOf(sel.X)) {
		return p.EscapeCall(call, st)
	}
	// sp.End(...). A chained Begin(...).End(...) has no path and is
	// trivially paired.
	rp := p.Path(sel.X)
	out, again := st.Discharge(rp)
	if again {
		p.Reportf(call.Pos(), "span %s is already ended on every path reaching this End (double End records a duplicate event)", rp)
	}
	return out
}

// isBegin matches telemetry.(*Recorder).Begin.
func (p prob) isBegin(call *ast.CallExpr) bool {
	fn := analysis.Callee(p.Pass.TypesInfo, call)
	if fn == nil || fn.Name() != "Begin" || fn.Pkg() == nil || fn.Pkg().Path() != telemetryPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

func isActiveSpan(t types.Type) bool {
	return t != nil && analysis.IsNamed(t, telemetryPath, "ActiveSpan")
}
