// Package gofront compiles a restricted subset of Go — fixed-size
// integers, arrays and packed structs, bounded loops, map and helper
// access through declared intrinsics — down to the internal eBPF ISA
// (internal/ebpf), producing programs the existing verifier and the
// ehdl hardware pipeline accept unchanged.
//
// The paper's blueprint (§2.2) assumes offloads can be authored
// without an ISA expert; this package is that unlock. It is built like
// hyperlint: go/ast and go/parser only, no go/types, no imports beyond
// the standard library.
//
// Pipeline: parse → contract check + lowering to a typed IR → interval
// analysis (array-bounds proofs) → register allocation → emission.
// Every IR operation emits exactly one instruction (address-of emits
// two), and the lowering never invents control flow, so the output for
// a given source is predictable instruction by instruction. The
// differential suites in internal/apps/chase and internal/apps/fail2ban
// hold the compiler to that: the frontend-built programs must match
// the hand-assembled originals shape-for-shape.
//
// Every rejection is a Diagnostic carrying file:line:col and the
// contract rule violated; see diag.go for the rule catalog.
package gofront

import (
	"go/ast"
	"go/constant"
	"go/token"

	"hyperion/internal/ebpf"
)

// Options tune one compile.
type Options struct {
	// Consts overrides named constants declared in the source, the
	// -D of this compiler. Deployments use it to parameterize a
	// committed program (e.g. a ban threshold) without editing it.
	Consts map[string]int64
}

// MapDecl is one //hyperion:map directive: the maps the program
// expects the runtime to provide, by id.
type MapDecl struct {
	Name      string
	ID        int
	KeySize   int
	ValueSize int
	Entries   int
}

// Program is a successful compile.
type Program struct {
	// Insns is the emitted program, ready for ebpf.Verify, the VM, and
	// ehdl.Compile.
	Insns []ebpf.Instruction
	// Entry is the exported entry function's name.
	Entry string
	// CtxSize is the byte size of the entry function's context struct.
	CtxSize int
	// Maps lists the //hyperion:map declarations, for harnesses that
	// must materialize the map set (hyperionctl build does).
	Maps []MapDecl
}

// Compile builds src (one restricted-Go file) into an eBPF program.
// filename is used in diagnostic positions only. On rejection the
// returned error is a DiagList; every entry names the contract rule
// violated.
func Compile(filename string, src []byte, opts Options) (*Program, error) {
	c := &compiler{
		fset:    token.NewFileSet(),
		structs: map[string]*StructType{},
		consts:  map[string]constant.Value{},
		helpers: map[string]*helperDecl{},
		opts:    opts,
	}
	c.errs = &errs{fset: c.fset}
	if err := c.parse(filename, src); err != nil {
		return nil, err
	}
	fn := newLowerer(c)
	fn.lowerFunc(c.entry)
	if err := c.errs.err(); err != nil {
		return nil, err
	}
	checkBounds(c, fn.ir)
	if err := c.errs.err(); err != nil {
		return nil, err
	}
	alloc := allocate(c, fn)
	if err := c.errs.err(); err != nil {
		return nil, err
	}
	insns := emit(c, fn.ir, alloc)
	if err := c.errs.err(); err != nil {
		return nil, err
	}
	return &Program{
		Insns:   insns,
		Entry:   c.entry.Name.Name,
		CtxSize: c.ctxType.Size(),
		Maps:    c.maps,
	}, nil
}

// compiler carries per-compile state shared by all passes.
type compiler struct {
	fset    *token.FileSet
	errs    *errs
	opts    Options
	structs map[string]*StructType
	consts  map[string]constant.Value
	helpers map[string]*helperDecl
	maps    []MapDecl
	entry   *ast.FuncDecl
	ctxType *StructType
	ctxName string // entry's context parameter name
	retType IntType
}

// helperDecl is a bodyless function declaration carrying a
// //hyperion:helper directive — the program's window onto the
// runtime's helper table.
type helperDecl struct {
	name   string
	id     int64
	params []Type
	result Type // nil for no result
	pos    token.Pos
}
