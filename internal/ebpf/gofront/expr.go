package gofront

import (
	"go/ast"
	"go/constant"
	"go/token"

	"hyperion/internal/ebpf"
)

// is32 reports whether arithmetic on t uses the 32-bit ALU class.
// Sub-32-bit types are storage-only; arithmetic on them is rejected
// before this is consulted.
func is32(t IntType) bool { return t.Bits == 32 }

// aluForToken maps a Go arithmetic operator to the eBPF ALU selector.
func aluForToken(tok token.Token) (uint8, bool) {
	switch tok {
	case token.ADD:
		return ebpf.ALUAdd, true
	case token.SUB:
		return ebpf.ALUSub, true
	case token.MUL:
		return ebpf.ALUMul, true
	case token.QUO:
		return ebpf.ALUDiv, true
	case token.REM:
		return ebpf.ALUMod, true
	case token.AND:
		return ebpf.ALUAnd, true
	case token.OR:
		return ebpf.ALUOr, true
	case token.XOR:
		return ebpf.ALUXor, true
	case token.SHL:
		return ebpf.ALULsh, true
	case token.SHR:
		return ebpf.ALURsh, true
	}
	return 0, false
}

// jmpForToken maps a Go comparison to the eBPF jump selector, picking
// the signed variant when signed is set.
func jmpForToken(tok token.Token, signed bool) (uint8, bool) {
	switch tok {
	case token.EQL:
		return ebpf.JmpEq, true
	case token.NEQ:
		return ebpf.JmpNe, true
	case token.LSS:
		if signed {
			return ebpf.JmpSLt, true
		}
		return ebpf.JmpLt, true
	case token.LEQ:
		if signed {
			return ebpf.JmpSLe, true
		}
		return ebpf.JmpLe, true
	case token.GTR:
		if signed {
			return ebpf.JmpSGt, true
		}
		return ebpf.JmpGt, true
	case token.GEQ:
		if signed {
			return ebpf.JmpSGe, true
		}
		return ebpf.JmpGe, true
	}
	return 0, false
}

// constScope is the function body's view of constant names: locals
// shadow package constants, and unrolled loop variables are per-copy
// constants.
func (l *lowerer) constScope(name string) constant.Value {
	if lc := l.lookup(name); lc != nil {
		if lc.isConst {
			return constant.MakeInt64(lc.cval)
		}
		return nil
	}
	return l.c.consts[name]
}

// tryConst evaluates e as a compile-time constant, failing silently on
// anything runtime-valued.
func (l *lowerer) tryConst(e ast.Expr) (int64, bool) {
	v, ok := l.c.constExpr(e, l.constScope, false)
	if !ok {
		return 0, false
	}
	return constBits(v), true
}

// typeOf infers an expression's frontend type; nil means untyped
// constant (adapts to context). It never emits code.
func (l *lowerer) typeOf(e ast.Expr) Type {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if lc := l.lookup(x.Name); lc != nil {
			if lc.isConst {
				return nil
			}
			return lc.typ
		}
		return nil // package const, nil, or undeclared (diagnosed at lowering)
	case *ast.BasicLit:
		return nil
	case *ast.BinaryExpr:
		if t := l.typeOf(x.X); t != nil {
			return t
		}
		return l.typeOf(x.Y)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if id, ok := x.X.(*ast.Ident); ok {
				if lc := l.lookup(id.Name); lc != nil {
					return PtrType{Elem: lc.typ}
				}
			}
			return nil
		}
		return l.typeOf(x.X)
	case *ast.StarExpr:
		if pt, ok := l.typeOf(x.X).(PtrType); ok {
			return pt.Elem
		}
		return nil
	case *ast.SelectorExpr, *ast.IndexExpr:
		return l.refType(x)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if it, ok2 := intTypes[id.Name]; ok2 {
				return it
			}
			if h, ok2 := l.c.helpers[id.Name]; ok2 {
				return h.result
			}
		}
		return nil
	}
	return nil
}

// refType resolves the type of a ctx field/index path without
// emitting code or diagnostics.
func (l *lowerer) refType(e ast.Expr) Type {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		base := l.refType(x.X)
		if base == nil {
			return nil
		}
		if pt, ok := base.(PtrType); ok {
			base = pt.Elem
		}
		st, ok := base.(*StructType)
		if !ok {
			return nil
		}
		if f := st.field(x.Sel.Name); f != nil {
			return f.Type
		}
		return nil
	case *ast.IndexExpr:
		base := l.refType(x.X)
		if at, ok := base.(ArrayType); ok {
			return at.Elem
		}
		return nil
	case *ast.Ident:
		if lc := l.lookup(x.Name); lc != nil {
			return lc.typ
		}
		return nil
	}
	return nil
}

// memRef is a resolved ctx-relative access path: a constant
// displacement plus at most one scaled variable index.
type memRef struct {
	disp     int32
	typ      Type
	idx      vreg // vNone when fully constant
	idxLocal *local
	idxVer   int
	scale    int
	boundLen int64
	boundStr string
	pos      token.Pos
}

// resolveRef lowers a Selector/Index chain rooted at the ctx pointer
// into a memRef. Index bounds for constant indices are checked here;
// variable indices become obligations proven by the interval analysis.
func (l *lowerer) resolveRef(e ast.Expr) (memRef, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		lc := l.lookup(x.Name)
		if lc == nil {
			l.c.errs.add(x.Pos(), RuleExpr, "undeclared variable %s", x.Name)
			return memRef{}, false
		}
		if lc.reg != l.vCtx {
			l.c.errs.add(x.Pos(), RuleExpr, "field and array access must go through the context parameter %s", l.c.ctxName)
			return memRef{}, false
		}
		return memRef{typ: l.c.ctxType, idx: vNone, pos: x.Pos()}, true
	case *ast.SelectorExpr:
		ref, ok := l.resolveRef(x.X)
		if !ok {
			return memRef{}, false
		}
		st, ok := ref.typ.(*StructType)
		if !ok {
			l.c.errs.add(x.Pos(), RuleExpr, "%s is not a struct", ref.typ)
			return memRef{}, false
		}
		f := st.field(x.Sel.Name)
		if f == nil {
			l.c.errs.add(x.Sel.Pos(), RuleExpr, "%s has no field %s", st.Name, x.Sel.Name)
			return memRef{}, false
		}
		ref.disp += int32(f.Off)
		ref.typ = f.Type
		return ref, true
	case *ast.IndexExpr:
		ref, ok := l.resolveRef(x.X)
		if !ok {
			return memRef{}, false
		}
		at, ok := ref.typ.(ArrayType)
		if !ok {
			l.c.errs.add(x.Pos(), RuleExpr, "%s is not an array", ref.typ)
			return memRef{}, false
		}
		esz := at.Elem.Size()
		if cv, isConst := l.tryConst(x.Index); isConst {
			if cv < 0 || cv >= int64(at.N) {
				l.c.errs.add(x.Index.Pos(), RuleBounds, "index %d out of range for %s", cv, at)
				return memRef{}, false
			}
			ref.disp += int32(cv) * int32(esz)
			ref.typ = at.Elem
			return ref, true
		}
		if ref.idx != vNone {
			l.c.errs.add(x.Index.Pos(), RuleExpr, "at most one variable index per access path")
			return memRef{}, false
		}
		it, ok := l.typeOf(x.Index).(IntType)
		if !ok || it.Signed {
			l.c.errs.add(x.Index.Pos(), RuleBounds, "array index must be an unsigned integer")
			return memRef{}, false
		}
		iv, ilc := l.valueOf(x.Index)
		if iv == vNone {
			return memRef{}, false
		}
		ref.idx = iv
		ref.idxLocal = ilc
		if ilc != nil {
			ref.idxVer = ilc.version
		}
		ref.scale = esz
		ref.boundLen = int64(at.N)
		ref.boundStr = at.String()
		ref.typ = at.Elem
		ref.pos = x.Index.Pos()
		return ref, true
	}
	l.c.errs.add(e.Pos(), RuleExpr, "unsupported access path")
	return memRef{}, false
}

// addrOf materializes the address register for a variable-index ref:
// mov t, idx; mul t, scale; mov a, ctx; add a, t — with block-local
// CSE so repeated accesses off the same index (Keys[i] then Vals[i])
// reuse the address, matching hand-written assembly.
func (l *lowerer) addrOf(ref memRef) vreg {
	key := cseKey{local: ref.idxLocal, version: ref.idxVer, scale: ref.scale}
	if ref.idxLocal != nil {
		if a, ok := l.cse[key]; ok {
			return a
		}
	}
	t := l.fresh()
	// The bounds obligation rides on the first instruction of the
	// address computation; a CSE hit reuses an already-proven index.
	l.put(irIns{op: opMovReg, dst: t, src: ref.idx, pos: ref.pos,
		boundReg: ref.idx, boundLen: ref.boundLen, boundType: ref.boundStr})
	if ref.scale != 1 {
		l.put(irIns{op: opALUImm, alu: ebpf.ALUMul, dst: t, imm: int64(ref.scale), pos: ref.pos})
	}
	a := l.fresh()
	l.put(irIns{op: opMovReg, dst: a, src: l.vCtx, pos: ref.pos})
	l.put(irIns{op: opALUReg, alu: ebpf.ALUAdd, dst: a, src: t, pos: ref.pos})
	if ref.idxLocal != nil {
		l.cse[key] = a
	}
	return a
}

// loadRef loads the value a memRef names into dst.
func (l *lowerer) loadRef(dst vreg, ref memRef) Type {
	it, ok := ref.typ.(IntType)
	if !ok {
		l.c.errs.add(ref.pos, RuleExpr, "cannot load a whole %s into a register; access a field or element", ref.typ)
		return nil
	}
	base := l.vCtx
	if ref.idx != vNone {
		base = l.addrOf(ref)
	}
	l.put(irIns{op: opLoad, size: sizeFor(it.Size()), dst: dst, src: base, off: ref.disp, pos: ref.pos})
	return it
}

// storeRef stores rhs into the location a memRef names.
func (l *lowerer) storeRef(ref memRef, rhs ast.Expr, it IntType) {
	base := l.vCtx
	if ref.idx != vNone {
		base = l.addrOf(ref)
	}
	l.storeMem(base, ref.disp, rhs, it, ref.pos)
}

// storeMem lowers `*(size*)(base+off) = rhs`, preferring a store-
// immediate when rhs is a constant that fits the ST imm field.
func (l *lowerer) storeMem(base vreg, off int32, rhs ast.Expr, it IntType, pos token.Pos) {
	size := sizeFor(it.Size())
	if cv, ok := l.tryConst(rhs); ok {
		l.checkConstRange(pos, cv, it)
		if cv >= -1<<31 && cv < 1<<31 {
			l.put(irIns{op: opStoreImm, size: size, dst: base, off: off, imm: cv, pos: pos})
			return
		}
	}
	sv, _ := l.valueOf(rhs)
	if sv == vNone {
		return
	}
	l.put(irIns{op: opStore, size: size, dst: base, src: sv, off: off, pos: pos})
}

// derefTarget resolves *p's pointer operand: a pointer-typed register
// local (a helper's map-value return).
func (l *lowerer) derefTarget(x *ast.StarExpr) (vreg, PtrType) {
	id, ok := ast.Unparen(x.X).(*ast.Ident)
	if !ok {
		l.c.errs.add(x.Pos(), RuleExpr, "can only dereference a pointer-typed local")
		return vNone, PtrType{}
	}
	lc := l.lookup(id.Name)
	if lc == nil {
		l.c.errs.add(id.Pos(), RuleExpr, "undeclared variable %s", id.Name)
		return vNone, PtrType{}
	}
	pt, ok := lc.typ.(PtrType)
	if !ok {
		l.c.errs.add(x.Pos(), RuleExpr, "cannot dereference %s (type %s)", id.Name, lc.typ)
		return vNone, PtrType{}
	}
	if _, ok := pt.Elem.(IntType); !ok {
		l.c.errs.add(x.Pos(), RuleExpr, "cannot dereference pointer to %s", pt.Elem)
		return vNone, PtrType{}
	}
	if lc.stack || lc.reg == vNone {
		l.c.errs.add(x.Pos(), RuleExpr, "pointer %s is not in a register", id.Name)
		return vNone, PtrType{}
	}
	return lc.reg, pt
}

// valueOf yields a vreg holding e's value. Register locals are used
// in place (no copy); anything else lowers into a fresh temporary.
// The second result is the named local when the value is one, for
// address CSE keying.
func (l *lowerer) valueOf(e ast.Expr) (vreg, *local) {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if lc := l.lookup(id.Name); lc != nil && !lc.stack && !lc.isConst && lc.reg != vNone {
			return lc.reg, lc
		}
	}
	t := l.fresh()
	if l.exprInto(t, e, nil) == nil {
		return vNone, nil
	}
	return t, nil
}

// checkConstRange warns when a constant cannot be represented in the
// destination type.
func (l *lowerer) checkConstRange(pos token.Pos, v int64, it IntType) {
	if it.Bits == 64 {
		return
	}
	var lo, hi int64
	if it.Signed {
		hi = 1<<(it.Bits-1) - 1
		lo = -1 << (it.Bits - 1)
	} else {
		hi = 1<<it.Bits - 1
	}
	if v < lo || v > hi {
		l.c.errs.add(pos, RuleTypes, "constant %d overflows %s", v, it)
	}
}

// checkArithType rejects arithmetic on storage-only widths: the ISA
// computes at 32 or 64 bits, so uint8/uint16 values must be widened
// explicitly before arithmetic.
func (l *lowerer) checkArithType(pos token.Pos, t Type, op token.Token) {
	it, ok := t.(IntType)
	if !ok {
		l.c.errs.add(pos, RuleExpr, "arithmetic on %s is not defined", t)
		return
	}
	if it.Bits < 32 {
		l.c.errs.add(pos, RuleTypes, "arithmetic on %s needs an explicit conversion to uint32 or uint64 first", it)
	}
	if it.Signed && (op == token.QUO || op == token.REM || op == token.SHR) {
		l.c.errs.add(pos, RuleExpr, "signed %s is outside the restricted subset (the ISA divides and shifts unsigned)", op)
	}
}

// exprInto lowers e so its value lands in dst, returning the value's
// type (want, when non-nil, is the context's expected type for
// untyped constants). Returns nil after reporting a diagnostic.
func (l *lowerer) exprInto(dst vreg, e ast.Expr, want Type) Type {
	if cv, ok := l.tryConst(e); ok {
		it := IntType{Bits: 64}
		if w, ok2 := want.(IntType); ok2 {
			it = w
			l.checkConstRange(e.Pos(), cv, it)
		}
		l.put(irIns{op: opMovImm, dst: dst, imm: cv, pos: e.Pos()})
		return it
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if x.Name == "nil" {
			l.put(irIns{op: opMovImm, dst: dst, imm: 0, pos: e.Pos()})
			return want
		}
		lc := l.lookup(x.Name)
		if lc == nil {
			l.c.errs.add(x.Pos(), RuleExpr, "undeclared identifier %s", x.Name)
			return nil
		}
		if lc.stack {
			it := lc.typ.(IntType)
			l.put(irIns{op: opLoad, size: sizeFor(it.Size()), dst: dst, src: vFP, off: -int32(lc.slot), pos: e.Pos()})
			return it
		}
		if lc.reg == vNone {
			return nil
		}
		if lc.reg != dst {
			l.put(irIns{op: opMovReg, dst: dst, src: lc.reg, pos: e.Pos()})
		}
		return lc.typ
	case *ast.SelectorExpr, *ast.IndexExpr:
		ref, ok := l.resolveRef(x)
		if !ok {
			return nil
		}
		return l.loadRef(dst, ref)
	case *ast.StarExpr:
		pv, pt := l.derefTarget(x)
		if pv == vNone {
			return nil
		}
		it := pt.Elem.(IntType)
		l.put(irIns{op: opLoad, size: sizeFor(it.Size()), dst: dst, src: pv, off: 0, pos: x.Pos()})
		return it
	case *ast.UnaryExpr:
		return l.unaryInto(dst, x, want)
	case *ast.BinaryExpr:
		return l.binaryInto(dst, x, want)
	case *ast.CallExpr:
		return l.callInto(dst, x, want)
	case *ast.BasicLit:
		if x.Kind == token.STRING {
			l.c.errs.add(x.Pos(), RuleString, "string values are outside the restricted subset (no dynamic memory)")
		} else {
			l.c.errs.add(x.Pos(), RuleExpr, "only integer literals are supported")
		}
		return nil
	case *ast.CompositeLit:
		l.c.errs.add(x.Pos(), RuleHeap, "composite literals build aggregates in memory; assign fields individually")
		return nil
	case *ast.FuncLit:
		l.c.errs.add(x.Pos(), RuleHeap, "function literals are outside the restricted subset")
		return nil
	case *ast.TypeAssertExpr:
		l.c.errs.add(x.Pos(), RuleIface, "type assertions need interfaces, which are outside the restricted subset")
		return nil
	}
	l.c.errs.add(e.Pos(), RuleExpr, "unsupported expression")
	return nil
}

func (l *lowerer) unaryInto(dst vreg, x *ast.UnaryExpr, want Type) Type {
	switch x.Op {
	case token.AND:
		id, ok := ast.Unparen(x.X).(*ast.Ident)
		if !ok {
			l.c.errs.add(x.Pos(), RuleHeap, "can only take the address of a stack local")
			return nil
		}
		lc := l.lookup(id.Name)
		if lc == nil || !lc.stack {
			l.c.errs.add(x.Pos(), RuleHeap, "can only take the address of a stack local")
			return nil
		}
		l.put(irIns{op: opFrameAddr, dst: dst, off: int32(lc.slot), pos: x.Pos()})
		return PtrType{Elem: lc.typ}
	case token.XOR: // ^x
		t := l.exprInto(dst, x.X, want)
		if t == nil {
			return nil
		}
		it, ok := t.(IntType)
		if !ok {
			l.c.errs.add(x.Pos(), RuleExpr, "cannot complement %s", t)
			return nil
		}
		l.checkArithType(x.Pos(), it, token.XOR)
		l.put(irIns{op: opALUImm, alu: ebpf.ALUXor, is32: is32(it), dst: dst, imm: -1, pos: x.Pos()})
		return it
	case token.SUB: // -x with non-constant x
		t := l.exprInto(dst, x.X, want)
		if t == nil {
			return nil
		}
		it, ok := t.(IntType)
		if !ok || !it.Signed {
			l.c.errs.add(x.Pos(), RuleExpr, "unary minus needs a signed operand")
			return nil
		}
		l.put(irIns{op: opALUImm, alu: ebpf.ALUNeg, is32: is32(it), dst: dst, pos: x.Pos()})
		return it
	case token.NOT:
		l.c.errs.add(x.Pos(), RuleExpr, "boolean values are outside the restricted subset; compare explicitly")
		return nil
	}
	l.c.errs.add(x.Pos(), RuleExpr, "unsupported unary operator %s", x.Op)
	return nil
}

// binaryInto lowers `X op Y` into dst two-address style: evaluate X
// into dst, then apply op with Y as immediate or register.
func (l *lowerer) binaryInto(dst vreg, x *ast.BinaryExpr, want Type) Type {
	aluOp, ok := aluForToken(x.Op)
	if !ok {
		switch x.Op {
		case token.LAND, token.LOR:
			l.c.errs.add(x.Pos(), RuleExpr, "boolean operators are outside the restricted subset; nest if statements")
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			l.c.errs.add(x.Pos(), RuleExpr, "comparisons are only allowed as if conditions")
		default:
			l.c.errs.add(x.Pos(), RuleExpr, "unsupported operator %s", x.Op)
		}
		return nil
	}
	if want == nil {
		if t := l.typeOf(x); t != nil {
			want = t
		}
	}
	// If Y reads what dst is about to overwrite (x = a - x), evaluate
	// Y into a temporary first.
	var yReg vreg = vNone
	if l.exprWrites(x.Y, dst) {
		yReg, _ = l.valueOf(x.Y)
		if yReg == vNone {
			return nil
		}
	}
	t := l.exprInto(dst, x.X, want)
	if t == nil {
		return nil
	}
	it, ok := t.(IntType)
	if !ok {
		l.c.errs.add(x.Pos(), RuleExpr, "arithmetic on %s is not defined", t)
		return nil
	}
	l.checkArithType(x.Pos(), it, x.Op)
	if yt := l.typeOf(x.Y); yt != nil {
		if yi, ok2 := yt.(IntType); !ok2 || (yi != it && x.Op != token.SHL && x.Op != token.SHR) {
			l.c.errs.add(x.Y.Pos(), RuleTypes, "mismatched operand types %s and %s", it, yt)
			return nil
		}
	}
	if !l.aluOp(aluOp, it, dst, x.Y, yReg, x.Pos()) {
		return nil
	}
	return it
}

// exprWrites reports whether evaluating e reads the local currently
// allocated to reg (conservative: any ident bound to that vreg).
func (l *lowerer) exprWrites(e ast.Expr, reg vreg) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if lc := l.lookup(id.Name); lc != nil && lc.reg == reg {
				found = true
			}
		}
		return !found
	})
	return found
}

// aluOp emits `dst op= rhs` for a dst of type it: the immediate form
// when rhs is a constant that fits one, the register form otherwise
// (pre, unless vNone, is rhs already evaluated). Both the binary
// expression and the compound assignment end here.
//
// Shifts follow Go, where a count at or past the operand's width yields
// 0, and not the ISA, which masks the count: a constant count must be
// below the width, and a variable one becomes an obligation checkBounds
// has to prove, like an array index.
func (l *lowerer) aluOp(op uint8, it IntType, dst vreg, rhs ast.Expr, pre vreg, pos token.Pos) bool {
	shift := op == ebpf.ALULsh || op == ebpf.ALURsh
	if pre == vNone {
		if cv, ok := l.tryConst(rhs); ok {
			if (op == ebpf.ALUDiv || op == ebpf.ALUMod) && cv == 0 {
				l.c.errs.add(rhs.Pos(), RuleExpr, "division by zero")
				return false
			}
			if shift && (cv < 0 || cv >= int64(it.Bits)) {
				l.c.errs.add(rhs.Pos(), RuleExpr, "shift count %d must be in [0, %d) for %s (the ISA masks the count; Go does not)", cv, it.Bits, it)
				return false
			}
			if cv >= -1<<31 && cv < 1<<31 {
				l.put(irIns{op: opALUImm, alu: op, is32: is32(it), dst: dst, imm: cv, pos: pos})
				return true
			}
		}
		if pre, _ = l.valueOf(rhs); pre == vNone {
			return false
		}
	}
	ins := irIns{op: opALUReg, alu: op, is32: is32(it), dst: dst, src: pre, pos: pos}
	if shift {
		ins.pos = rhs.Pos()
		ins.boundReg, ins.boundLen, ins.boundType = pre, int64(it.Bits), it.String()
	}
	l.put(ins)
	return true
}

// callInto lowers a call expression: a type conversion or a helper
// call whose result lands in dst.
func (l *lowerer) callInto(dst vreg, x *ast.CallExpr, want Type) Type {
	id, ok := ast.Unparen(x.Fun).(*ast.Ident)
	if !ok {
		l.c.errs.add(x.Pos(), RuleExpr, "only helper calls and conversions are allowed")
		return nil
	}
	if target, isConv := intTypes[id.Name]; isConv {
		return l.convInto(dst, x, target)
	}
	switch id.Name {
	case "new", "make", "append", "copy":
		l.c.errs.add(x.Pos(), RuleHeap, "%s allocates; the restricted subset has no heap", id.Name)
		return nil
	case "len", "cap":
		if at, ok2 := l.refType(x.Args[0]).(ArrayType); ok2 && len(x.Args) == 1 {
			l.put(irIns{op: opMovImm, dst: dst, imm: int64(at.N), pos: x.Pos()})
			return IntType{Bits: 64}
		}
		l.c.errs.add(x.Pos(), RuleExpr, "%s is only defined on fixed arrays", id.Name)
		return nil
	case "delete":
		l.c.errs.add(x.Pos(), RuleHeap, "Go maps are heap-allocated; use the declared map intrinsics instead")
		return nil
	case "panic", "print", "println":
		l.c.errs.add(x.Pos(), RuleStmt, "%s is outside the restricted subset", id.Name)
		return nil
	}
	h, ok := l.c.helpers[id.Name]
	if !ok {
		l.c.errs.add(x.Pos(), RuleHelper, "unknown helper %s; declare it with a //hyperion:helper directive", id.Name)
		return nil
	}
	res := l.helperCall(h, x)
	if res == vNone {
		if h.result == nil {
			l.c.errs.add(x.Pos(), RuleExpr, "helper %s has no result", h.name)
		}
		return nil
	}
	if res != dst {
		l.put(irIns{op: opMovReg, coalesce: true, dst: dst, src: res, pos: x.Pos()})
	}
	return h.result
}

// convInto lowers T(e). Values live zero-extended in registers, so
// widening is free; narrowing masks (or truncates via a 32-bit move).
func (l *lowerer) convInto(dst vreg, x *ast.CallExpr, target IntType) Type {
	if len(x.Args) != 1 {
		l.c.errs.add(x.Pos(), RuleExpr, "conversion takes one argument")
		return nil
	}
	st := l.exprInto(dst, x.Args[0], nil)
	if st == nil {
		return nil
	}
	src, ok := st.(IntType)
	if !ok {
		l.c.errs.add(x.Pos(), RuleTypes, "cannot convert %s to %s", st, target)
		return nil
	}
	switch {
	case target.Bits >= src.Bits && !src.Signed:
		// Already zero-extended in the register.
	case target.Bits == src.Bits:
		// Same width, signedness reinterpretation only.
	case target.Bits == 32:
		// 32-bit mov of a register onto itself zero-truncates.
		l.put(irIns{op: opMovReg, is32: true, dst: dst, src: dst, pos: x.Pos()})
	case target.Bits < 32:
		l.put(irIns{op: opALUImm, alu: ebpf.ALUAnd, dst: dst, imm: int64(1)<<target.Bits - 1, pos: x.Pos()})
	default: // widening a signed narrow value
		l.c.errs.add(x.Pos(), RuleTypes, "cannot widen signed %s; sign extension is outside the subset", src)
		return nil
	}
	return target
}

// helperCall marshals arguments into the helper calling convention
// (r1..r5) and emits the call. Returns the result vreg (precolored
// r0) or vNone for void helpers.
func (l *lowerer) helperCall(h *helperDecl, x *ast.CallExpr) vreg {
	if len(x.Args) != len(h.params) {
		l.c.errs.add(x.Pos(), RuleHelperSig, "helper %s takes %d arguments, got %d", h.name, len(h.params), len(x.Args))
		return vNone
	}
	args := make([]vreg, len(x.Args))
	for i, arg := range x.Args {
		av := l.fresh()
		l.precolor[av] = uint8(1 + i) // helper ABI: args in r1..r5
		args[i] = av
		switch pt := h.params[i].(type) {
		case IntType:
			if t := l.exprInto(av, arg, pt); t == nil {
				return vNone
			}
		case PtrType:
			t := l.exprInto(av, arg, pt)
			if t == nil {
				return vNone
			}
			at, ok := t.(PtrType)
			if !ok || at.Elem.Size() != pt.Elem.Size() {
				l.c.errs.add(arg.Pos(), RuleHelperSig, "helper %s argument %d wants %s, got %s", h.name, i+1, pt, t)
				return vNone
			}
		}
	}
	callIns := irIns{op: opCall, dst: vNone, src: vNone, imm: h.id, args: args, pos: x.Pos()}
	var res vreg = vNone
	if h.result != nil {
		res = l.fresh() // precolored r0: the call's result register
		callIns.dst = res
		l.precolor[res] = 0
	}
	l.put(callIns)
	return res
}
