package gofront

import (
	"fmt"
	"go/token"
	"strings"
)

// Contract rule identifiers. Every rejection names the rule it
// enforces, so a diagnostic is actionable without reading the
// compiler: the rule is the row of the restricted-Go contract table
// (DESIGN.md §6) the program violated.
const (
	RuleImport    = "no-import"      // programs are self-contained; no stdlib
	RuleHeap      = "no-heap"        // new/make/append/composite literals
	RuleString    = "no-string"      // string types and literals
	RuleLoop      = "bounded-loop"   // for loops must unroll to a constant trip count
	RuleIface     = "no-interface"   // interface types and type assertions
	RuleConc      = "no-concurrency" // go/select/chan; defer rides along
	RuleBounds    = "array-bounds"   // index not provably within the array, or shift count within the width
	RuleHelper    = "unknown-helper" // call target is not a declared intrinsic
	RuleTypes     = "subset-types"   // only fixed-size ints, arrays, structs, pointers
	RuleStmt      = "subset-stmt"    // statement form outside the subset
	RuleExpr      = "subset-expr"    // expression form outside the subset
	RuleEntry     = "entry"          // entry-point shape (one exported func(ctx *T) uintN)
	RuleGoto      = "forward-goto"   // goto must jump forward (loop-free target)
	RuleRegs      = "out-of-regs"    // too many simultaneously-live locals
	RuleSize      = "program-size"   // unrolled program exceeds the ISA limit
	RuleConst     = "const"          // constant declaration or override problem
	RuleDirect    = "directive"      // malformed //hyperion: directive
	RuleHelperSig = "helper-sig"     // intrinsic declaration shape
)

// Diagnostic is one structured rejection: position, contract rule, and
// a human message. It is the frontend's entire error currency — every
// way a program can be refused produces at least one of these.
type Diagnostic struct {
	Pos  token.Position // file:line:col of the offending construct
	Rule string         // contract rule id (Rule* constants)
	Msg  string
}

func (d Diagnostic) Error() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Msg, d.Rule)
}

// DiagList collects every rejection found in one compile. It
// implements error; diagnostics appear in source order.
type DiagList []Diagnostic

func (l DiagList) Error() string {
	var b strings.Builder
	for i, d := range l {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(d.Error())
	}
	return b.String()
}

// errs accumulates diagnostics during a compile pass.
type errs struct {
	fset *token.FileSet
	list DiagList
}

func (e *errs) add(pos token.Pos, rule, format string, args ...any) {
	e.list = append(e.list, Diagnostic{
		Pos:  e.fset.Position(pos),
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

func (e *errs) err() error {
	if len(e.list) == 0 {
		return nil
	}
	return e.list
}
