package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Contract is one function's ownership summary, declared in its doc
// comment. The grammar, one directive per line:
//
//	//wire:owns
//	//wire:sends <param>[.<Field>]
//
// owns: the function's *wire.Buf result is a reference the caller owns
// (and, checked on the declaring side, every return must hand back a
// live reference). sends: conditional transfer — ownership of the
// parameter (or the named field of a struct parameter) moves to the
// callee unless the call returns a non-nil error, in which case the
// caller still owns it. This is the NIC.Send custody rule from the
// zero-copy plane. A parameter a contract does not mention is borrowed:
// callers keep their obligation.
type Contract struct {
	Owns  bool
	Sends []SendRef
}

// SendRef names a conditionally-transferred parameter; Field is empty
// when the parameter itself is the buffer.
type SendRef struct {
	Param string
	Field string
}

func (c Contract) empty() bool {
	return !c.Owns && len(c.Sends) == 0
}

// ParseError is a malformed //wire: directive; checks surface these as
// findings so contract typos don't silently disable enforcement.
type ParseError struct {
	Pos token.Pos
	Msg string
}

// parseDoc extracts directives from one doc comment.
func parseDoc(doc *ast.CommentGroup) (Contract, []ParseError) {
	var c Contract
	var errs []ParseError
	if doc == nil {
		return c, nil
	}
	for _, line := range doc.List {
		text, ok := strings.CutPrefix(line.Text, "//wire:")
		if !ok {
			continue
		}
		verb, arg, _ := strings.Cut(text, " ")
		arg = strings.TrimSpace(arg)
		switch verb {
		case "owns":
			if arg != "" {
				errs = append(errs, ParseError{line.Pos(), "wire:owns takes no argument"})
				continue
			}
			c.Owns = true
		case "sends":
			param, field, _ := strings.Cut(arg, ".")
			if param == "" || strings.Contains(field, ".") {
				errs = append(errs, ParseError{line.Pos(), "wire:sends wants <param> or <param>.<Field>"})
				continue
			}
			c.Sends = append(c.Sends, SendRef{Param: param, Field: field})
		default:
			errs = append(errs, ParseError{line.Pos(), fmt.Sprintf("unknown wire: directive %q", verb)})
		}
	}
	return c, errs
}

// FuncKey names a function for the builtin contract table:
// pkgpath.Name for package functions, pkgpath.Recv.Name for methods
// (pointer receivers stripped).
func FuncKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

// builtins summarizes the cross-package custody surface of the
// zero-copy plane. A vet unit analyzes one package with only export
// data for its dependencies — no doc comments — so the contracts that
// cross package boundaries are pinned here. TestBuiltinContractsInSync
// asserts that every entry matches a //wire: directive on the actual
// declaration, so the table cannot drift from the source.
var builtins = map[string]Contract{
	"hyperion/internal/wire.Pool.Get":          {Owns: true},
	"hyperion/internal/wire.Buf.Retain":        {Owns: true},
	"hyperion/internal/netsim.NIC.Send":        {Sends: []SendRef{{Param: "f", Field: "Buf"}}},
	"hyperion/internal/nvmeof.EncodeReadArgs":  {Owns: true},
	"hyperion/internal/nvmeof.EncodeWriteArgs": {Owns: true},
}

// Builtins exposes a copy of the cross-package table for the sync test.
func Builtins() map[string]Contract {
	out := make(map[string]Contract, len(builtins))
	for k, v := range builtins {
		out[k] = v
	}
	return out
}

// Contracts resolves ownership summaries for callees: declarations in
// the analyzed package carry their parsed doc directives; everything
// else falls back to the builtin cross-package table.
type Contracts struct {
	local map[*types.Func]Contract
	// Errs are malformed directives found while collecting; the caller
	// reports them once per package.
	Errs []ParseError
}

// Collect parses //wire: directives from every function declaration in
// files.
func Collect(files []*ast.File, info *types.Info) *Contracts {
	cs := &Contracts{local: make(map[*types.Func]Contract)}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			c, errs := parseDoc(fd.Doc)
			cs.Errs = append(cs.Errs, errs...)
			if c.empty() {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				cs.local[fn] = c
			}
		}
	}
	return cs
}

// For returns fn's contract: local declaration first, builtin table
// second.
func (cs *Contracts) For(fn *types.Func) (Contract, bool) {
	if fn == nil {
		return Contract{}, false
	}
	if c, ok := cs.local[fn]; ok {
		return c, true
	}
	c, ok := builtins[FuncKey(fn)]
	return c, ok
}

// Local returns the parsed contract on a declaration in the analyzed
// package, for declaration-side checking.
func (cs *Contracts) Local(fn *types.Func) (Contract, bool) {
	c, ok := cs.local[fn]
	return c, ok
}
