// Package maprange flags `for range` over maps in model packages when
// the loop body is order-sensitive — the classic map-iteration-order
// nondeterminism that silently changes simulation results between runs
// or Go releases.
//
// Not every map range is a bug. The analyzer permits bodies whose
// observable effect is order-independent:
//
//   - pure accumulation into variables with commutative compound
//     assignments (+=, -=, *=, /=, |=, &=, ^=, &^=) or ++/--;
//   - collecting keys or values via s = append(s, ...) — the dominant
//     "collect then sort.Slice" idiom (the analyzer cannot see the
//     sort; collecting and then *consuming unsorted* is on you);
//   - writes indexed by the range key itself (dst[k] = v): every
//     iteration touches a distinct key, so the merged result is
//     independent of visit order;
//   - deleting from a map, and := definitions of loop-local state.
//
// Everything else — method/function calls, writes through selectors or
// indices, sends, returns or breaks that pick an arbitrary element —
// is flagged. Iterate a sorted key slice instead, or annotate with
// //hyperlint:allow(maprange) and a justification if the effect is
// provably order-independent.
package maprange

import (
	"go/ast"
	"go/token"
	"go/types"

	"hyperion/internal/analysis"
)

// Analyzer is the maprange pass.
var Analyzer = &analysis.Analyzer{
	Name: "maprange",
	Doc:  "flags order-sensitive map iteration in model packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Layer != analysis.LayerModel {
		return nil
	}
	for _, f := range pass.NonTestFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if bad, what := firstOrderSensitive(pass, rng); bad != nil {
				pass.Reportf(rng.Pos(),
					"map iteration order is nondeterministic and this body is order-sensitive (%s at line %d): iterate sorted keys instead",
					what, pass.Fset.Position(bad.Pos()).Line)
			}
			return true
		})
	}
	return nil
}

// commutativeAssign lists compound assignments whose final value does
// not depend on operand order (modulo float rounding, which Hyperion
// models avoid in state).
var commutativeAssign = map[token.Token]bool{
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true, token.QUO_ASSIGN: true,
	token.OR_ASSIGN: true, token.AND_ASSIGN: true,
	token.XOR_ASSIGN: true, token.AND_NOT_ASSIGN: true,
}

// firstOrderSensitive scans a loop body and returns the first
// statement whose effect depends on iteration order, with a short
// description, or (nil, "").
func firstOrderSensitive(pass *analysis.Pass, rng *ast.RangeStmt) (ast.Node, string) {
	body := rng.Body
	keyName := ""
	if id, ok := rng.Key.(*ast.Ident); ok && id.Name != "_" {
		keyName = id.Name
	}
	var bad ast.Node
	var what string
	flag := func(n ast.Node, w string) {
		if bad == nil {
			bad, what = n, w
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if bad != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if allowedCall(pass, n) {
				return true
			}
			flag(n, "call")
			return false
		case *ast.AssignStmt:
			switch {
			case n.Tok == token.DEFINE:
				return true
			case allBlank(n):
				return true
			case commutativeAssign[n.Tok]:
				// Accumulation is order-free only into plain
				// variables; x[i] or s.f targets are shared
				// state, but += onto them is still commutative.
				return true
			case n.Tok == token.ASSIGN && isAppendReassign(n):
				return true
			case n.Tok == token.ASSIGN && allKeyIndexed(n, keyName):
				// dst[k] = v with k the range key: each iteration
				// writes a distinct key, so order cannot matter.
				return true
			default:
				flag(n, "assignment")
				return false
			}
		case *ast.IncDecStmt:
			return true // counters and histograms commute
		case *ast.SendStmt:
			flag(n, "channel send")
			return false
		case *ast.GoStmt:
			flag(n, "goroutine start")
			return false
		case *ast.ReturnStmt:
			flag(n, "return picks an arbitrary element")
			return false
		case *ast.BranchStmt:
			if n.Tok == token.BREAK || n.Tok == token.GOTO {
				flag(n, n.Tok.String()+" picks an arbitrary element")
				return false
			}
			return true
		case *ast.FuncLit:
			// The literal's body runs later; what matters here is
			// where the closure goes, and the enclosing
			// assignment/call rules already police that.
			return false
		}
		return true
	})
	return bad, what
}

// allowedCall reports whether a call inside a map-range body is
// order-free: builtins with no observable effect beyond their
// arguments, and type conversions.
func allowedCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := pass.TypesInfo.Uses[fun].(type) {
		case *types.Builtin:
			switch obj.Name() {
			case "len", "cap", "append", "delete", "min", "max",
				"make", "new", "real", "imag", "complex":
				return true
			}
			return false
		case *types.TypeName:
			return true // conversion to a local named type
		}
		return false
	case *ast.SelectorExpr:
		// pkg.Type(x) conversions are fine; pkg.Func(x) is not.
		_, isType := pass.TypesInfo.Uses[fun.Sel].(*types.TypeName)
		return isType
	case *ast.ArrayType, *ast.MapType, *ast.InterfaceType:
		return true // conversion via type literal, e.g. []byte(s)
	}
	return false
}

// allBlank reports whether every LHS is the blank identifier:
// `_ = x` discards a value and has no ordering effect.
func allBlank(n *ast.AssignStmt) bool {
	for _, lhs := range n.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// allKeyIndexed reports whether every LHS of a plain assignment is an
// index expression whose index is exactly the range-key identifier.
func allKeyIndexed(n *ast.AssignStmt, keyName string) bool {
	if keyName == "" {
		return false
	}
	for _, lhs := range n.Lhs {
		ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(ix.Index).(*ast.Ident)
		if !ok || id.Name != keyName {
			return false
		}
	}
	return true
}

// isAppendReassign matches `s = append(s, ...)` (any single LHS
// variable, including blank): the collect-then-sort idiom.
func isAppendReassign(n *ast.AssignStmt) bool {
	if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
		return false
	}
	if _, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident); !ok {
		return false
	}
	call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "append"
}
