// Package eventref enforces the EventRef discipline introduced with
// the generation-stamped event pool: scheduled events are referred to
// only through sim.EventRef value handles.
//
// The engine recycles event slots through a free list, so any channel
// back to a slot other than a generation-checked EventRef is a
// use-after-recycle bug waiting to happen. Concretely the analyzer
// bans, in model packages:
//
//   - pointers to EventRef (fields, params, variables, &ref): refs are
//     small values meant to be copied; aliasing one reintroduces
//     exactly the shared-mutable-handle problem the pool removed;
//   - comparing EventRefs with == or != — a hand-rolled generation
//     check. Use ref.Valid(), or just call Cancel: it is specified to
//     be a no-op on zero, fired, cancelled, and recycled refs;
//   - cancelling a stored ref (x.timer) without re-arming or resetting
//     it to sim.NoEvent in the same block, which leaves a stale handle
//     that later code may mistake for a live timer;
//   - storing At/After results in package-level variables: engines are
//     per-experiment and run concurrently in the parallel harness, so
//     global timer state corrupts whichever engine touches it second.
//
// The datapath pools its per-operation contexts (rpc's call/serveCtx,
// nvmeof's opCtx, rack's readOp/kvOp) on sim.FreeList[T]; those it
// schedules on the heap carry prebound callback fields. A struct type
// T is pooled when the package calls (*sim.FreeList[T]).Put anywhere,
// which opens two more recycle hazards the analyzer covers:
//
//   - Put of an object whose struct carries EventRef fields without
//     first resetting those fields, either per-field or with a
//     whole-struct `*obj = T{...}` write: the recycled instance
//     inherits a stale handle;
//   - discarding the EventRef returned by At/After when the callback
//     is prebound on a pooled instance (a method value or func-typed
//     field like op.retryFn): once the instance recycles, the pending
//     timer still fires into it, and without the ref nobody can
//     Cancel it first.
//
// Both rules see a pool only through that one type, so the hand-rolled
// form is itself a finding: appending a *struct to a slice whose name
// ends in "Free" (`x.fooFree = append(x.fooFree, obj)`).
//
// Lane.At is outside both rules on purpose. A lane event is the pooled
// context itself (a sim.Event), returns no ref and cannot be cancelled,
// and its owners (nvme's cmdCtx, rack's kvOp, fabric's submitCtx,
// sim.Cluster's recvEvent) never cancel it: an instance is recycled
// only by its own event chain, at or after the lane event that carries
// it has fired, so no pending lane event can reach a recycled instance
// and there is no ref to keep.
package eventref

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hyperion/internal/analysis"
)

// Analyzer is the eventref pass.
var Analyzer = &analysis.Analyzer{
	Name: "eventref",
	Doc:  "enforces sim.EventRef handle discipline in model packages",
	Run:  run,
}

const simPath = analysis.ModulePath + "/internal/sim"

func run(pass *analysis.Pass) error {
	if pass.Layer != analysis.LayerModel || pass.Path == simPath {
		return nil
	}
	pooled := pooledStructs(pass)
	for _, f := range pass.NonTestFiles() {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkPooled(pass, fd.Body, pooled)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StarExpr:
				if tv, ok := pass.TypesInfo.Types[n]; ok && tv.IsType() && isEventRefPtr(tv.Type) {
					pass.Reportf(n.Pos(), "*sim.EventRef: refs are value handles — copy and store them, never alias them through a pointer")
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND && isEventRef(typeOf(pass, n.X)) {
					pass.Reportf(n.Pos(), "&<EventRef>: refs are value handles — copy and store them, never alias them through a pointer")
				}
			case *ast.BinaryExpr:
				if (n.Op == token.EQL || n.Op == token.NEQ) &&
					(isEventRef(typeOf(pass, n.X)) || isEventRef(typeOf(pass, n.Y))) {
					pass.Reportf(n.Pos(), "comparing EventRefs is a hand-rolled generation check: use ref.Valid(), or just Cancel — it is safe on stale refs")
				}
			case *ast.BlockStmt:
				checkCancelReset(pass, n.List)
			case *ast.CaseClause:
				checkCancelReset(pass, n.Body)
			case *ast.AssignStmt:
				checkGlobalStore(pass, n)
			}
			return true
		})
	}
	return nil
}

func typeOf(pass *analysis.Pass, e ast.Expr) types.Type {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return nil
	}
	return tv.Type
}

func isEventRef(t types.Type) bool {
	return t != nil && analysis.IsNamed(t, simPath, "EventRef")
}

func isEventRefPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	return ok && isEventRef(p.Elem())
}

// engineMethod resolves a call to a *sim.Engine method of the given
// name, returning the argument expressions or nil.
func engineMethod(pass *analysis.Pass, call *ast.CallExpr, name string) []ast.Expr {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != simPath {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	return call.Args
}

// checkCancelReset walks a statement list looking for
// `eng.Cancel(x.sel)` on a *stored* ref (selector expression) that the
// remainder of the list neither resets to sim.NoEvent nor re-arms with
// a fresh At/After result. Locals passed to Cancel are exempt — they
// die with the scope.
func checkCancelReset(pass *analysis.Pass, stmts []ast.Stmt) {
	for i, st := range stmts {
		expr, ok := st.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := ast.Unparen(expr.X).(*ast.CallExpr)
		if !ok {
			continue
		}
		args := engineMethod(pass, call, "Cancel")
		if len(args) != 1 {
			continue
		}
		sel, ok := ast.Unparen(args[0]).(*ast.SelectorExpr)
		if !ok || !isEventRef(typeOf(pass, sel)) {
			continue
		}
		path := analysis.ExprString(sel)
		if path == "" || resetLater(pass, stmts[i+1:], path) {
			continue
		}
		pass.Reportf(call.Pos(), "cancelled ref %s is left set: assign sim.NoEvent (or re-arm it) so Valid() and later Cancels stay meaningful", path)
	}
}

// resetLater reports whether any following statement assigns the same
// selector path — to sim.NoEvent, a fresh schedule, anything. Nested
// blocks count: a reset on one branch is taken as intent.
func resetLater(pass *analysis.Pass, stmts []ast.Stmt, path string) bool {
	found := false
	for _, st := range stmts {
		ast.Inspect(st, func(n ast.Node) bool {
			if found {
				return false
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				if analysis.ExprString(lhs) == path {
					found = true
				}
			}
			return true
		})
	}
	return found
}

// pooledStructs collects the named struct types the package recycles:
// every T of a (*sim.FreeList[T]).Put call.
func pooledStructs(pass *analysis.Pass) map[*types.Named]bool {
	pooled := make(map[*types.Named]bool)
	for _, f := range pass.NonTestFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if named := freeListPut(pass, call); named != nil {
					pooled[named] = true
				}
			}
			return true
		})
	}
	return pooled
}

// freeListPut matches a call of (*sim.FreeList[T]).Put and returns T
// as instantiated at the call site, or nil when the call is something
// else or T is not a named struct.
func freeListPut(pass *analysis.Pass, call *ast.CallExpr) *types.Named {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Name() != "Put" || len(call.Args) != 1 {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	ptr, ok := recv.Type().(*types.Pointer)
	if !ok || !analysis.IsNamed(ptr.Elem(), simPath, "FreeList") {
		return nil
	}
	return namedStruct(ptr.Elem().(*types.Named).TypeArgs().At(0))
}

// isHandRolledFreeList matches `append(<...Free>, obj)` with obj a
// pointer to a named struct: the idiom sim.FreeList replaced.
func isHandRolledFreeList(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) != 2 {
		return false
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
		return false
	}
	slicePath := analysis.ExprString(call.Args[0])
	return strings.HasSuffix(slicePath, "Free") &&
		pointeeStruct(typeOf(pass, call.Args[1])) != nil
}

// pointeeStruct returns the named struct behind a *T type, or nil.
func pointeeStruct(t types.Type) *types.Named {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return nil
	}
	return namedStruct(ptr.Elem())
}

// namedStruct returns t as a named struct type, or nil.
func namedStruct(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// eventRefFields returns the names of named's direct EventRef fields.
func eventRefFields(named *types.Named) []string {
	st := named.Underlying().(*types.Struct)
	var out []string
	for i := 0; i < st.NumFields(); i++ {
		if isEventRef(st.Field(i).Type()) {
			out = append(out, st.Field(i).Name())
		}
	}
	return out
}

// checkPooled enforces the free-list rules inside one function body:
// EventRef fields must be reset before an instance is Put, At/After
// results must not be discarded when the callback is prebound on a
// pooled instance, and no free list is kept by hand.
func checkPooled(pass *analysis.Pass, body *ast.BlockStmt, pooled map[*types.Named]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isHandRolledFreeList(pass, n) {
				pass.Reportf(n.Pos(), "hand-rolled free list: use sim.FreeList, the one pool the recycle rules can see")
				return true
			}
			named := freeListPut(pass, n)
			if named == nil {
				return true
			}
			objPath := analysis.ExprString(n.Args[0])
			if objPath == "" {
				return true
			}
			for _, field := range eventRefFields(named) {
				if !resetBefore(body, n.Pos(), objPath, field) {
					pass.Reportf(n.Pos(), "pooled %s is Put on a free list with EventRef field %s unreset: assign sim.NoEvent (or reset the whole struct) so the recycled instance does not inherit a stale handle", objPath, field)
				}
			}
		case *ast.ExprStmt:
			call, ok := ast.Unparen(n.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			name := "After"
			args := engineMethod(pass, call, "After")
			if args == nil {
				name = "At"
				args = engineMethod(pass, call, "At")
			}
			if len(args) != 3 {
				return true
			}
			cb, ok := ast.Unparen(args[2]).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			named := pointeeStruct(typeOf(pass, cb.X))
			if named == nil || !pooled[named] {
				return true
			}
			pass.Reportf(call.Pos(), "EventRef from %s is discarded but its callback %s is prebound on pooled %s: store the ref so the timer can be cancelled before the instance recycles", name, analysis.ExprString(cb), named.Obj().Name())
		}
		return true
	})
}

// resetBefore reports whether any assignment lexically before pos in
// body writes objPath.field or the whole struct *objPath.
func resetBefore(body *ast.BlockStmt, pos token.Pos, objPath, field string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Pos() >= pos {
			return true
		}
		for _, lhs := range as.Lhs {
			lhs = ast.Unparen(lhs)
			if se, ok := lhs.(*ast.StarExpr); ok {
				if analysis.ExprString(se.X) == objPath {
					found = true
				}
				continue
			}
			if analysis.ExprString(lhs) == objPath+"."+field {
				found = true
			}
		}
		return true
	})
	return found
}

// checkGlobalStore flags `globalVar = eng.After(...)` / At(...):
// package-level timer state breaks the one-engine-per-goroutine
// isolation the parallel experiment harness relies on.
func checkGlobalStore(pass *analysis.Pass, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		if engineMethod(pass, call, "At") == nil && engineMethod(pass, call, "After") == nil {
			continue
		}
		if i >= len(as.Lhs) {
			continue
		}
		id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = pass.TypesInfo.Defs[id]
		}
		if v, ok := obj.(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
			pass.Reportf(as.Pos(), "EventRef stored in package-level var %s: engines run concurrently in the parallel harness; keep timer state per-engine", id.Name)
		}
	}
}
