// Package sharedstate enforces the static precondition for sharding
// sim.Engine across cores (DESIGN §9): model-layer
// packages must not carry package-level mutable state, and must not
// park engine or event handles in package scope.
//
// Two rules, model layer only (the sim package itself is exempt — it
// owns the engine):
//
//   - a package-level variable must not be written outside its
//     declaration or an init function. Read-only lookup tables and
//     error sentinels pass; counters, caches, registries and
//     last-winner scratch variables fail, because two engines sharded
//     onto different cores would race or — worse for this repo —
//     deterministically corrupt each other.
//   - a package-level variable whose type contains sim.EventRef or
//     *sim.Engine is flagged at its declaration: cross-engine
//     references must live per-instance so each shard's reachability
//     is closed over its own engine.
//
// Two more rules guard the zero-copy buffer plane under sim.Cluster
// sharding (the wire package itself is exempt — it owns the types):
//
//   - a package-level variable whose type contains wire.Pool or
//     *wire.Buf is flagged at its declaration: a pool's free list is
//     single-threaded state, so pools (and the buffers they recycle)
//     must be shard-local — one pool per cluster shard, reachable only
//     from that shard's handlers.
//   - every Buf.Retain call must carry a `//wire:sends <destination>`
//     annotation on its own line or the line above, naming where the
//     new reference goes. Retain is the only way a buffer's reference
//     count fans out, so annotated retains are an auditable inventory
//     of every point where a reference could migrate — the reviewer's
//     (and hyperflow's) checklist that none of them crosses a shard
//     boundary. On function declarations `//wire:` directives remain
//     flow contracts (see internal/analysis/flow); the line form here
//     is deliberately the same vocabulary, naming the envelope or
//     callee custody moves to.
package sharedstate

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hyperion/internal/analysis"
)

// Analyzer is the sharedstate pass.
var Analyzer = &analysis.Analyzer{
	Name: "sharedstate",
	Doc:  "model packages must not hold package-level mutable state or cross-engine references",
	Run:  run,
}

const (
	simPath  = analysis.ModulePath + "/internal/sim"
	wirePath = analysis.ModulePath + "/internal/wire"
)

func run(pass *analysis.Pass) error {
	if pass.Layer != analysis.LayerModel || pass.Path == simPath {
		return nil
	}
	for _, f := range pass.NonTestFiles() {
		// Rules 2 and 3: engine- or buffer-typed package state, at the
		// declaration.
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					v, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok || v.Parent() != pass.Pkg.Scope() {
						continue
					}
					if bad := engineRef(v.Type()); bad != "" {
						pass.Reportf(name.Pos(), "package-level var %s holds %s: engine-scoped handles must live per-instance so sim.Engine can shard", name.Name, bad)
					}
					if pass.Path == wirePath {
						continue
					}
					if bad := wireRef(v.Type()); bad != "" {
						pass.Reportf(name.Pos(), "package-level var %s holds %s: buffer pools and buffers must be shard-local so free lists never cross sim.Cluster shards", name.Name, bad)
					}
				}
			}
		}
		sends := collectWireSends(pass.Fset, f)
		// Rules 1 and 4: package-level writes and unannotated retains.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Recv == nil && fd.Name.Name == "init" {
				continue // build-time table construction is fine
			}
			checkWrites(pass, fd.Body)
			if pass.Path != wirePath {
				checkRetains(pass, fd.Body, sends)
			}
		}
	}
	return nil
}

// collectWireSends indexes the lines of f covered by a line-form
// `//wire:sends <destination>` annotation: the annotation's own line
// (trailing comment) and the next (standalone comment above the call).
// An annotation with no destination text covers nothing — a bare verb
// documents nothing worth auditing.
func collectWireSends(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//wire:sends")
			if !ok || strings.TrimSpace(rest) == "" {
				continue
			}
			line := fset.Position(c.Pos()).Line
			lines[line] = true
			lines[line+1] = true
		}
	}
	return lines
}

// checkRetains reports wire.Buf Retain calls lacking a //wire:sends
// destination annotation.
func checkRetains(pass *analysis.Pass, body *ast.BlockStmt, sends map[int]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Retain" {
			return true
		}
		recv := pass.TypesInfo.TypeOf(sel.X)
		if recv == nil {
			return true
		}
		if p, isPtr := recv.(*types.Pointer); isPtr {
			recv = p.Elem()
		}
		if !analysis.IsNamed(recv, wirePath, "Buf") {
			return true
		}
		if sends[pass.Fset.Position(call.Pos()).Line] {
			return true
		}
		pass.Reportf(call.Pos(), "wire.Buf Retain without a //wire:sends destination: every new reference must name where it goes so cross-shard hand-offs stay auditable")
		return true
	})
}

// checkWrites reports assignments, op-assignments, increments and
// element/field stores whose base resolves to a package-level var.
func checkWrites(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				reportPkgWrite(pass, lhs, n.Pos())
			}
		case *ast.IncDecStmt:
			reportPkgWrite(pass, n.X, n.Pos())
		}
		return true
	})
}

func reportPkgWrite(pass *analysis.Pass, lhs ast.Expr, pos token.Pos) {
	id := baseIdent(lhs)
	if id == nil {
		return
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Parent() != pass.Pkg.Scope() {
		return
	}
	pass.Reportf(pos, "package-level var %s is mutated in model code: state must live per-instance so sim.Engine can shard", id.Name)
}

// baseIdent peels selectors, indexes, stars and parens down to the
// root identifier of an lvalue.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// wireRef reports whether t transitively contains wire.Pool (by value
// or pointer) or a wire.Buf reference, returning a human name for the
// offending component.
func wireRef(t types.Type) string {
	return analysis.FindInType(t, func(t types.Type) string {
		if analysis.IsNamed(t, wirePath, "Pool") {
			return "wire.Pool"
		}
		if p, ok := t.(*types.Pointer); ok {
			if analysis.IsNamed(p.Elem(), wirePath, "Pool") {
				return "*wire.Pool"
			}
			if analysis.IsNamed(p.Elem(), wirePath, "Buf") {
				return "*wire.Buf"
			}
		}
		return ""
	})
}

// engineRef reports whether t transitively contains sim.EventRef or
// *sim.Engine, returning a human name for the offending component.
func engineRef(t types.Type) string {
	return analysis.FindInType(t, func(t types.Type) string {
		if analysis.IsNamed(t, simPath, "EventRef") {
			return "sim.EventRef"
		}
		if p, ok := t.(*types.Pointer); ok && analysis.IsNamed(p.Elem(), simPath, "Engine") {
			return "*sim.Engine"
		}
		return ""
	})
}
