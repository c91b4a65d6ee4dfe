package analysis

import (
	"go/ast"
	"go/types"
)

// IsNamed reports whether t is the named type path.name (exactly — not
// its underlying type, not a pointer to it).
func IsNamed(t types.Type, path, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// FindInType walks the types t is built from — through pointers, named
// types, struct fields, slice, array and channel elements, and map keys
// and elements — asking match about each, and returns its first
// non-empty answer (a human name for the offending component), or "".
func FindInType(t types.Type, match func(types.Type) string) string {
	seen := make(map[types.Type]bool)
	var walk func(types.Type) string
	walk = func(t types.Type) string {
		if t == nil || seen[t] {
			return ""
		}
		seen[t] = true
		if found := match(t); found != "" {
			return found
		}
		switch t := t.(type) {
		case *types.Named:
			return walk(t.Underlying())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if found := walk(t.Field(i).Type()); found != "" {
					return found
				}
			}
		case *types.Map:
			if found := walk(t.Key()); found != "" {
				return found
			}
			return walk(t.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array, chan
			return walk(t.Elem())
		}
		return ""
	}
	return walk(t)
}

// Callee resolves the function or method a call expression invokes,
// or nil for builtins, conversions, and dynamic calls through
// function-typed values.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// ExprString renders ident/selector chains ("c.pc.timer") for
// diagnostics and for comparing storage locations syntactically.
// Expressions outside that shape render as "".
func ExprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := ExprString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}
