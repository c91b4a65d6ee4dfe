package gofront

import (
	"go/ast"
	"go/constant"
	"go/token"

	"hyperion/internal/ebpf"
)

// mirrorCmp flips a comparison for operand swap (C < x  ⇒  x > C).
func mirrorCmp(tok token.Token) token.Token {
	switch tok {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	}
	return tok // ==, != are symmetric
}

// cond lowers a comparison as a conditional jump to lbl (negated when
// negate is set, for jump-over-body lowering).
func (l *lowerer) cond(e ast.Expr, lbl int, negate bool) {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok {
		l.c.errs.add(e.Pos(), RuleExpr, "if conditions must be comparisons (x == y, x < y, ...)")
		return
	}
	op := be.Op
	if _, isCmp := jmpForToken(op, false); !isCmp {
		switch op {
		case token.LAND, token.LOR:
			l.c.errs.add(be.Pos(), RuleExpr, "boolean operators are outside the restricted subset; nest if statements")
		default:
			l.c.errs.add(be.Pos(), RuleExpr, "if conditions must be comparisons (x == y, x < y, ...)")
		}
		return
	}
	x, y := be.X, be.Y

	// Both sides constant: the branch folds away at compile time, on
	// the exact values (-1 < 3 here as in Go, whatever their register
	// images compare as).
	if xv, xc := l.c.constExpr(x, l.constScope, false); xc {
		if yv, yc := l.c.constExpr(y, l.constScope, false); yc {
			if constant.Compare(xv, op, yv) != negate {
				l.put(irIns{op: opJmp, jop: ebpf.JmpA, dst: vNone, src: vNone, lbl: lbl, pos: e.Pos()})
				l.reachable = false
			}
			return
		}
		// Constant on the left only: swap so the register operand is dst.
		x, y = y, x
		op = mirrorCmp(op)
	}

	xt := l.typeOf(x)
	yt := l.typeOf(y)
	// Pointer comparisons: only ==/!= against nil (map-lookup results).
	if _, isPtr := xt.(PtrType); isPtr {
		if op != token.EQL && op != token.NEQ {
			l.c.errs.add(be.Pos(), RuleExpr, "pointers only compare with == and != against nil")
			return
		}
		if id, ok := ast.Unparen(y).(*ast.Ident); !ok || id.Name != "nil" {
			l.c.errs.add(y.Pos(), RuleExpr, "pointers only compare against nil")
			return
		}
		lv, _ := l.valueOf(x)
		if lv == vNone {
			return
		}
		jop, _ := jmpForToken(op, false)
		if negate {
			jop, _ = ebpf.NegJump(jop)
		}
		l.put(irIns{op: opJmp, jop: jop, dst: lv, src: vNone, imm: 0, lbl: lbl, pos: e.Pos()})
		return
	}

	signed, cmp32 := false, false
	if it, ok := xt.(IntType); ok {
		signed = it.Signed
		// Unsigned values are canonically zero-extended, so a 64-bit
		// compare is exact at every width (and is what the verifier's
		// range refinement understands). Signed 32-bit needs JMP32.
		cmp32 = it.Signed && it.Bits == 32
		if yi, ok2 := yt.(IntType); ok2 && yi != it {
			l.c.errs.add(y.Pos(), RuleTypes, "mismatched comparison types %s and %s", it, yi)
			return
		}
	} else if it, ok := yt.(IntType); ok {
		signed = it.Signed
		cmp32 = it.Signed && it.Bits == 32
	}
	jop, _ := jmpForToken(op, signed)
	if negate {
		jop, _ = ebpf.NegJump(jop)
	}
	lv, _ := l.valueOf(x)
	if lv == vNone {
		return
	}
	if cv, isConst := l.tryConst(y); isConst && cv >= -1<<31 && cv < 1<<31 {
		l.put(irIns{op: opJmp, jop: jop, is32: cmp32, dst: lv, src: vNone, imm: cv, lbl: lbl, pos: e.Pos()})
		return
	}
	rv, _ := l.valueOf(y)
	if rv == vNone {
		return
	}
	l.put(irIns{op: opJmp, jop: jop, is32: cmp32, dst: lv, src: rv, lbl: lbl, pos: e.Pos()})
}

// branchTarget resolves the label a bare goto/continue/break body
// statement jumps to, for the direct-conditional-jump lowering.
func (l *lowerer) branchTarget(st *ast.BranchStmt) (int, bool) {
	switch st.Tok {
	case token.GOTO:
		f, id, ok := l.findLabel(st.Label.Name)
		if !ok {
			l.c.errs.add(st.Label.Pos(), RuleGoto, "label %s is not declared in a reachable scope", st.Label.Name)
			return 0, false
		}
		if f.emitted[st.Label.Name] {
			l.c.errs.add(st.Pos(), RuleGoto, "goto %s jumps backward; programs must be loop-free (bounded for loops unroll)", st.Label.Name)
			return 0, false
		}
		return id, true
	case token.CONTINUE, token.BREAK:
		if st.Label != nil {
			l.c.errs.add(st.Pos(), RuleStmt, "labeled %s is outside the restricted subset", st.Tok)
			return 0, false
		}
		if len(l.loops) == 0 {
			l.c.errs.add(st.Pos(), RuleStmt, "%s outside a loop", st.Tok)
			return 0, false
		}
		lp := l.loops[len(l.loops)-1]
		if st.Tok == token.BREAK {
			return lp.brkLbl, true
		}
		return lp.contLbl, true
	}
	return 0, false
}

func (l *lowerer) ifStmt(st *ast.IfStmt) {
	if st.Init != nil {
		l.c.errs.add(st.Pos(), RuleStmt, "if statements cannot have an init clause")
		return
	}
	// `if cond { goto L }` (or continue/break) lowers to ONE direct
	// conditional jump — the shape hand-written programs use.
	if st.Else == nil && len(st.Body.List) == 1 {
		if br, ok := st.Body.List[0].(*ast.BranchStmt); ok {
			if target, ok2 := l.branchTarget(br); ok2 {
				l.cond(st.Cond, target, false)
			}
			return
		}
	}
	if st.Else == nil {
		end := l.newLabel()
		l.cond(st.Cond, end, true)
		l.blockStmts(st.Body.List)
		l.label(end)
		return
	}
	elseLbl, end := l.newLabel(), l.newLabel()
	l.cond(st.Cond, elseLbl, true)
	l.blockStmts(st.Body.List)
	bodyTerminated := l.terminated
	if !bodyTerminated {
		l.put(irIns{op: opJmp, jop: ebpf.JmpA, dst: vNone, src: vNone, lbl: end, pos: st.Pos()})
	}
	l.label(elseLbl)
	switch e := st.Else.(type) {
	case *ast.BlockStmt:
		l.blockStmts(e.List)
	case *ast.IfStmt:
		l.ifStmt(e)
	}
	if !bodyTerminated {
		l.label(end)
	}
}

func (l *lowerer) blockStmts(stmts []ast.Stmt) {
	l.pushScope()
	for _, s := range stmts {
		l.stmt(s)
	}
	l.popScope()
}

// forStmt unrolls a bounded counting loop. The accepted shape is
// `for i := C0; i < C1; i++` (also <=, and i += C steps); the loop
// variable is a per-copy compile-time constant inside the body.
func (l *lowerer) forStmt(st *ast.ForStmt) {
	bad := func(pos token.Pos) {
		l.c.errs.add(pos, RuleLoop, "for loops must have the form `for i := C; i < C; i++` (constant bounds and step) so they unroll at compile time")
	}
	init, ok := st.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		bad(st.Pos())
		return
	}
	name, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		bad(st.Pos())
		return
	}
	start, ok := int64(0), false
	if sv, isConst := l.c.constExpr(init.Rhs[0], l.constScope, false); isConst {
		start, ok = constant.Int64Val(sv)
	}
	if !ok {
		bad(init.Rhs[0].Pos())
		return
	}
	cond, ok := st.Cond.(*ast.BinaryExpr)
	if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
		bad(st.Cond.Pos())
		return
	}
	condID, ok := cond.X.(*ast.Ident)
	if !ok || condID.Name != name.Name {
		bad(cond.Pos())
		return
	}
	limit, ok := l.c.constExpr(cond.Y, l.constScope, false)
	if !ok {
		bad(cond.Y.Pos())
		return
	}
	inLoop := func(v int64) bool { return constant.Compare(constant.MakeInt64(v), cond.Op, limit) }
	step := int64(1)
	switch post := st.Post.(type) {
	case *ast.IncDecStmt:
		id, ok2 := post.X.(*ast.Ident)
		if !ok2 || id.Name != name.Name || post.Tok != token.INC {
			bad(post.Pos())
			return
		}
	case *ast.AssignStmt:
		id, ok2 := post.Lhs[0].(*ast.Ident)
		if post.Tok != token.ADD_ASSIGN || !ok2 || id.Name != name.Name {
			bad(post.Pos())
			return
		}
		step, ok2 = l.tryConst(post.Rhs[0])
		if !ok2 || step <= 0 {
			bad(post.Pos())
			return
		}
	default:
		bad(st.Pos())
		return
	}

	trips := int64(0)
	for v := start; inLoop(v); v += step {
		trips++
		if trips > maxUnroll {
			l.c.errs.add(st.Pos(), RuleLoop, "loop unrolls to more than %d iterations", maxUnroll)
			return
		}
	}

	brk := l.newLabel()
	for v := start; inLoop(v); v += step {
		cont := l.newLabel()
		l.pushScope()
		l.bind(name.Name, &local{name: name.Name, typ: IntType{Bits: 64}, reg: vNone, isConst: true, cval: v})
		l.loops = append(l.loops, loopCtx{contLbl: cont, brkLbl: brk})
		l.pushLabelFrame(st.Body.List)
		for _, s := range st.Body.List {
			l.stmt(s)
		}
		l.popLabelFrame()
		l.loops = l.loops[:len(l.loops)-1]
		l.popScope()
		l.label(cont)
		if len(l.ir) >= maxIR {
			return
		}
	}
	l.label(brk)
}

// callExpr lowers a call in statement position (result discarded).
func (l *lowerer) callExpr(x *ast.CallExpr, wantResult bool) {
	id, ok := ast.Unparen(x.Fun).(*ast.Ident)
	if !ok {
		l.c.errs.add(x.Pos(), RuleExpr, "only helper calls are allowed in statement position")
		return
	}
	if _, isConv := intTypes[id.Name]; isConv {
		l.c.errs.add(x.Pos(), RuleStmt, "conversion result is unused")
		return
	}
	switch id.Name {
	case "new", "make", "append", "copy":
		l.c.errs.add(x.Pos(), RuleHeap, "%s allocates; the restricted subset has no heap", id.Name)
		return
	case "delete":
		l.c.errs.add(x.Pos(), RuleHeap, "Go maps are heap-allocated; use the declared map intrinsics instead")
		return
	case "panic", "print", "println":
		l.c.errs.add(x.Pos(), RuleStmt, "%s is outside the restricted subset", id.Name)
		return
	}
	h, ok := l.c.helpers[id.Name]
	if !ok {
		l.c.errs.add(x.Pos(), RuleHelper, "unknown helper %s; declare it with a //hyperion:helper directive", id.Name)
		return
	}
	l.helperCall(h, x)
	_ = wantResult
}
