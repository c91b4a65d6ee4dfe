package gofront

import (
	"go/ast"
	"go/token"
	"slices"

	"hyperion/internal/ebpf"
)

// maxUnroll bounds a single loop's trip count; maxIR bounds the whole
// unrolled function (the ISA's MaxInsns backstops it again after
// emission).
const (
	maxUnroll = 1024
	maxIR     = 16384
)

// local is one named binding in the entry function: a register local,
// a stack slot (address-taken), or a compile-time constant (unrolled
// loop variables).
type local struct {
	name    string
	typ     Type
	reg     vreg
	slot    int32 // frame offset magnitude; address is r10-slot
	stack   bool
	isConst bool
	cval    int64
	version int // bumped on every assignment, keys the address CSE
}

// labelFrame is one goto-label namespace: the function body, or one
// unrolled copy of a loop body (body labels are renamed per copy).
type labelFrame struct {
	ids     map[string]int
	emitted map[string]bool
}

// loopCtx gives continue/break their targets inside an unrolled copy.
type loopCtx struct {
	contLbl int // end of the current iteration's copy
	brkLbl  int // after the last copy
}

type cseKey struct {
	local   *local
	version int
	scale   int
}

// lowerer walks the entry function's AST and produces IR.
type lowerer struct {
	c  *compiler
	ir []irIns
	nv vreg // next virtual register

	scopes    []map[string]*local
	frames    []*labelFrame
	loops     []loopCtx
	nextLabel int
	frameSize int32
	addrTaken map[string]bool
	cse       map[cseKey]vreg

	precolor map[vreg]uint8 // ABI-pinned vregs: ctx arg, call args, results

	vCtx       vreg
	reachable  bool // control can reach the next instruction
	terminated bool // last statement ended control flow
}

func newLowerer(c *compiler) *lowerer {
	return &lowerer{
		c: c, addrTaken: map[string]bool{}, cse: map[cseKey]vreg{},
		precolor: map[vreg]uint8{}, reachable: true,
	}
}

func (l *lowerer) fresh() vreg { v := l.nv; l.nv++; return v }

func (l *lowerer) newLabel() int { n := l.nextLabel; l.nextLabel++; return n }

// put appends ins, unless control cannot reach it: dead code is still
// checked, but emitting it would make the verifier refuse the program.
func (l *lowerer) put(ins irIns) {
	if !l.reachable && ins.op != opLabel {
		return
	}
	if len(l.ir) >= maxIR {
		// Reported once by the caller via the size check in lowerFunc.
		return
	}
	l.ir = append(l.ir, ins)
}

// label emits a jump target and invalidates the address CSE (register
// state at a merge point is path-dependent). Jumps only go forward, so
// a label that control cannot fall into and no emitted jump targets is
// never reached: it is dropped, and the code behind it stays dead.
func (l *lowerer) label(id int) {
	l.terminated = false
	if !l.reachable && !slices.ContainsFunc(l.ir, func(in irIns) bool { return in.op == opJmp && in.lbl == id }) {
		return
	}
	l.put(irIns{op: opLabel, lbl: id})
	l.cse = map[cseKey]vreg{}
	l.reachable = true
}

// --- scopes and locals ---

func (l *lowerer) pushScope() { l.scopes = append(l.scopes, map[string]*local{}) }
func (l *lowerer) popScope()  { l.scopes = l.scopes[:len(l.scopes)-1] }

func (l *lowerer) lookup(name string) *local {
	for i := len(l.scopes) - 1; i >= 0; i-- {
		if lc, ok := l.scopes[i][name]; ok {
			return lc
		}
	}
	return nil
}

func (l *lowerer) bind(name string, lc *local) {
	l.scopes[len(l.scopes)-1][name] = lc
}

// declare creates a local of type t, deciding register vs stack from
// the address-taken prescan.
func (l *lowerer) declare(pos token.Pos, name string, t Type) *local {
	lc := &local{name: name, typ: t, reg: vNone}
	if l.addrTaken[name] {
		it, ok := t.(IntType)
		if !ok {
			l.c.errs.add(pos, RuleTypes, "address-taken local %s must be an integer, got %s", name, t)
			return lc
		}
		size := int32(it.Size())
		// Each slot is size-aligned; the frame grows downward from r10.
		l.frameSize = (l.frameSize + size + size - 1) / size * size
		lc.slot = l.frameSize
		lc.stack = true
		if l.frameSize > ebpf.StackSize {
			l.c.errs.add(pos, RuleRegs, "stack locals exceed the %d-byte frame", ebpf.StackSize)
		}
	} else {
		lc.reg = l.fresh()
	}
	l.bind(name, lc)
	return lc
}

// --- labels ---

// collectLabels gathers the labels declared in stmts, without
// descending into nested for loops (their bodies get per-copy frames).
func collectLabels(stmts []ast.Stmt, frame *labelFrame, l *lowerer) {
	var walk func(s ast.Stmt)
	walk = func(s ast.Stmt) {
		switch st := s.(type) {
		case *ast.LabeledStmt:
			if _, dup := frame.ids[st.Label.Name]; dup {
				l.c.errs.add(st.Label.Pos(), RuleGoto, "label %s redeclared", st.Label.Name)
			} else {
				frame.ids[st.Label.Name] = l.newLabel()
			}
			walk(st.Stmt)
		case *ast.BlockStmt:
			for _, s2 := range st.List {
				walk(s2)
			}
		case *ast.IfStmt:
			walk(st.Body)
			if st.Else != nil {
				walk(st.Else)
			}
		case *ast.ForStmt:
			// per-copy frame; skip
		}
	}
	for _, s := range stmts {
		walk(s)
	}
}

func (l *lowerer) pushLabelFrame(stmts []ast.Stmt) {
	f := &labelFrame{ids: map[string]int{}, emitted: map[string]bool{}}
	collectLabels(stmts, f, l)
	l.frames = append(l.frames, f)
}

func (l *lowerer) popLabelFrame() { l.frames = l.frames[:len(l.frames)-1] }

func (l *lowerer) findLabel(name string) (*labelFrame, int, bool) {
	for i := len(l.frames) - 1; i >= 0; i-- {
		if id, ok := l.frames[i].ids[name]; ok {
			return l.frames[i], id, true
		}
	}
	return nil, 0, false
}

// --- function ---

// lowerFunc drives lowering of the entry function.
func (l *lowerer) lowerFunc(fn *ast.FuncDecl) {
	if l.c.ctxType == nil {
		return // entry signature already rejected
	}
	// Prescan: which locals have their address taken (those live on the
	// stack so &x is a materializable r10-relative pointer).
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.AND {
			if id, ok := u.X.(*ast.Ident); ok {
				l.addrTaken[id.Name] = true
			}
		}
		return true
	})

	l.pushScope()
	// The context pointer arrives in r1 and is pinned to r9 for the
	// program's lifetime, clear of the helper-clobbered argument range.
	argV := l.fresh()
	l.precolor[argV] = 1 // the VM passes ctx in r1
	l.vCtx = l.fresh()
	l.precolor[l.vCtx] = 9 // ctx pins to r9, preserved across helper calls
	l.put(irIns{op: opMovReg, dst: l.vCtx, src: argV, pos: fn.Pos()})
	l.bind(l.c.ctxName, &local{name: l.c.ctxName, typ: PtrType{Elem: l.c.ctxType}, reg: l.vCtx})

	l.pushLabelFrame(fn.Body.List)
	for _, s := range fn.Body.List {
		l.stmt(s)
	}
	l.popLabelFrame()
	l.popScope()
	if !l.terminated {
		l.c.errs.add(fn.Body.Rbrace, RuleEntry, "control may reach the end of %s without a return", fn.Name.Name)
	}
	if len(l.ir) >= maxIR {
		l.c.errs.add(fn.Pos(), RuleSize, "program exceeds %d IR instructions after unrolling", maxIR)
	}
}

// --- statements ---

func (l *lowerer) stmt(s ast.Stmt) {
	if len(l.c.errs.list) > 32 {
		return // avoid diagnostic storms on hopeless input
	}
	l.terminated = false
	switch st := s.(type) {
	case *ast.DeclStmt:
		l.declStmt(st)
	case *ast.AssignStmt:
		l.assignStmt(st)
	case *ast.IncDecStmt:
		l.incDecStmt(st)
	case *ast.IfStmt:
		l.ifStmt(st)
	case *ast.ForStmt:
		l.forStmt(st)
	case *ast.BranchStmt:
		l.branchStmt(st)
	case *ast.LabeledStmt:
		f, id, ok := l.findLabel(st.Label.Name)
		if !ok {
			l.c.errs.add(st.Label.Pos(), RuleGoto, "label %s is not declared in a reachable scope", st.Label.Name)
			return
		}
		f.emitted[st.Label.Name] = true
		l.label(id)
		l.stmt(st.Stmt)
	case *ast.ReturnStmt:
		l.returnStmt(st)
	case *ast.ExprStmt:
		call, ok := ast.Unparen(st.X).(*ast.CallExpr)
		if !ok {
			l.c.errs.add(st.X.Pos(), RuleStmt, "expression statements must be helper calls")
			return
		}
		l.callExpr(call, false)
	case *ast.BlockStmt:
		l.pushScope()
		for _, s2 := range st.List {
			l.stmt(s2)
		}
		l.popScope()
	case *ast.EmptyStmt:
	case *ast.RangeStmt:
		l.c.errs.add(st.Pos(), RuleLoop, "range loops are outside the restricted subset; use a bounded for loop")
	case *ast.GoStmt:
		l.c.errs.add(st.Pos(), RuleConc, "goroutines are outside the restricted subset")
	case *ast.DeferStmt:
		l.c.errs.add(st.Pos(), RuleConc, "defer is outside the restricted subset")
	case *ast.SelectStmt, *ast.SendStmt:
		l.c.errs.add(st.Pos(), RuleConc, "channel operations are outside the restricted subset")
	case *ast.SwitchStmt:
		l.c.errs.add(st.Pos(), RuleStmt, "switch is outside the restricted subset; use if/else chains")
	case *ast.TypeSwitchStmt:
		l.c.errs.add(st.Pos(), RuleIface, "type switches need interfaces, which are outside the restricted subset")
	default:
		l.c.errs.add(s.Pos(), RuleStmt, "unsupported statement")
	}
}

func (l *lowerer) declStmt(st *ast.DeclStmt) {
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		l.c.errs.add(st.Pos(), RuleStmt, "only var declarations are allowed inside the entry function")
		return
	}
	for _, spec := range gd.Specs {
		vs := spec.(*ast.ValueSpec)
		if vs.Type == nil {
			l.c.errs.add(vs.Pos(), RuleStmt, "var declarations need an explicit type (use := for inference)")
			continue
		}
		t, ok := l.c.resolveType(vs.Type)
		if !ok {
			continue
		}
		if len(vs.Values) != 0 && len(vs.Values) != len(vs.Names) {
			l.c.errs.add(vs.Pos(), RuleStmt, "mismatched var initializers")
			continue
		}
		for i, name := range vs.Names {
			if name.Name == "_" {
				continue
			}
			lc := l.declare(name.Pos(), name.Name, t)
			if len(vs.Values) > 0 {
				l.assignTo(lc, vs.Values[i], name.Pos())
			}
		}
	}
}

func (l *lowerer) assignStmt(st *ast.AssignStmt) {
	if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
		l.c.errs.add(st.Pos(), RuleStmt, "multiple assignment is outside the restricted subset")
		return
	}
	lhs, rhs := st.Lhs[0], st.Rhs[0]
	switch st.Tok {
	case token.DEFINE:
		id, ok := lhs.(*ast.Ident)
		if !ok {
			l.c.errs.add(lhs.Pos(), RuleStmt, "short declaration needs an identifier on the left")
			return
		}
		if id.Name == "_" {
			l.c.errs.add(id.Pos(), RuleStmt, "cannot declare _; drop the statement or name the result")
			return
		}
		t := l.typeOf(rhs)
		if t == nil {
			t = IntType{Bits: 64} // untyped constant defaults to uint64
		}
		if !validLocalType(t) {
			l.c.errs.add(rhs.Pos(), RuleTypes, "cannot declare a local of type %s", t)
			return
		}
		lc := l.declare(id.Pos(), id.Name, t)
		l.assignTo(lc, rhs, st.Pos())
	case token.ASSIGN:
		l.assign(lhs, rhs)
	default: // op-assign: x += e and friends
		id, ok := lhs.(*ast.Ident)
		if !ok {
			l.c.errs.add(lhs.Pos(), RuleStmt, "compound assignment needs a register local on the left")
			return
		}
		lc := l.lookup(id.Name)
		if lc == nil {
			l.c.errs.add(id.Pos(), RuleExpr, "undeclared variable %s", id.Name)
			return
		}
		if lc.isConst {
			l.c.errs.add(id.Pos(), RuleLoop, "cannot assign to loop variable %s (loops unroll at compile time)", id.Name)
			return
		}
		if lc.stack || lc.reg == vNone {
			l.c.errs.add(lhs.Pos(), RuleStmt, "compound assignment needs a register local on the left")
			return
		}
		aluOp, ok := aluForToken(assignOpToken(st.Tok))
		if !ok {
			l.c.errs.add(st.Pos(), RuleStmt, "unsupported compound assignment %s", st.Tok)
			return
		}
		it, _ := lc.typ.(IntType)
		l.checkArithType(st.Pos(), lc.typ, assignOpToken(st.Tok))
		l.aluOp(aluOp, it, lc.reg, rhs, vNone, st.Pos())
		lc.version++
	}
}

// assignOpToken maps ADD_ASSIGN → ADD etc.
func assignOpToken(t token.Token) token.Token {
	switch t {
	case token.ADD_ASSIGN:
		return token.ADD
	case token.SUB_ASSIGN:
		return token.SUB
	case token.MUL_ASSIGN:
		return token.MUL
	case token.QUO_ASSIGN:
		return token.QUO
	case token.REM_ASSIGN:
		return token.REM
	case token.AND_ASSIGN:
		return token.AND
	case token.OR_ASSIGN:
		return token.OR
	case token.XOR_ASSIGN:
		return token.XOR
	case token.SHL_ASSIGN:
		return token.SHL
	case token.SHR_ASSIGN:
		return token.SHR
	}
	return token.ILLEGAL
}

func (l *lowerer) incDecStmt(st *ast.IncDecStmt) {
	id, ok := st.X.(*ast.Ident)
	if !ok {
		l.c.errs.add(st.Pos(), RuleStmt, "++/-- needs a register local")
		return
	}
	lc := l.lookup(id.Name)
	if lc == nil || lc.stack || lc.isConst || lc.reg == vNone {
		l.c.errs.add(st.Pos(), RuleStmt, "++/-- needs a register local")
		return
	}
	op := ebpf.ALUAdd
	if st.Tok == token.DEC {
		op = ebpf.ALUSub
	}
	it, _ := lc.typ.(IntType)
	l.put(irIns{op: opALUImm, alu: op, is32: is32(it), dst: lc.reg, imm: 1, pos: st.Pos()})
	lc.version++
}

// assign lowers `lhs = rhs` for every lvalue form.
func (l *lowerer) assign(lhs, rhs ast.Expr) {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		lc := l.lookup(x.Name)
		if lc == nil {
			l.c.errs.add(x.Pos(), RuleExpr, "undeclared variable %s", x.Name)
			return
		}
		if lc.isConst {
			l.c.errs.add(x.Pos(), RuleLoop, "cannot assign to loop variable %s (loops unroll at compile time)", x.Name)
			return
		}
		l.assignTo(lc, rhs, x.Pos())
	case *ast.SelectorExpr, *ast.IndexExpr:
		ref, ok := l.resolveRef(lhs)
		if !ok {
			return
		}
		it, ok := ref.typ.(IntType)
		if !ok {
			l.c.errs.add(lhs.Pos(), RuleExpr, "cannot store a whole %s; assign a field or element", ref.typ)
			return
		}
		l.checkAssignable(rhs, it)
		l.storeRef(ref, rhs, it)
	case *ast.StarExpr:
		pv, pt := l.derefTarget(x)
		if pv == vNone {
			return
		}
		it := pt.Elem.(IntType)
		l.checkAssignable(rhs, it)
		l.storeMem(pv, 0, rhs, it, x.Pos())
	default:
		l.c.errs.add(lhs.Pos(), RuleStmt, "unsupported assignment target")
	}
}

// assignTo lowers `lc = rhs` for a named local.
func (l *lowerer) assignTo(lc *local, rhs ast.Expr, pos token.Pos) {
	it, isInt := lc.typ.(IntType)
	if isInt {
		l.checkAssignable(rhs, it)
	}
	if lc.stack {
		l.storeMem(vFP, -int32(lc.slot), rhs, it, pos)
		lc.version++
		return
	}
	if lc.reg == vNone {
		return // declaration already rejected
	}
	l.exprInto(lc.reg, rhs, lc.typ)
	lc.version++
}

// checkAssignable rejects typed mismatches that Go would refuse
// without a conversion.
func (l *lowerer) checkAssignable(rhs ast.Expr, want IntType) {
	t := l.typeOf(rhs)
	if t == nil {
		return // untyped constant adapts
	}
	if it, ok := t.(IntType); ok {
		if it != want {
			l.c.errs.add(rhs.Pos(), RuleTypes, "cannot assign %s to %s without a conversion", it, want)
		}
		return
	}
	l.c.errs.add(rhs.Pos(), RuleTypes, "cannot assign %s to %s", t, want)
}

func validLocalType(t Type) bool {
	switch tt := t.(type) {
	case IntType:
		return true
	case PtrType:
		_, ok := tt.Elem.(IntType)
		return ok
	}
	return false
}

func (l *lowerer) returnStmt(st *ast.ReturnStmt) {
	if len(st.Results) != 1 {
		l.c.errs.add(st.Pos(), RuleEntry, "entry function returns exactly one value")
		return
	}
	l.checkAssignable(st.Results[0], l.c.retType)
	rv := l.fresh()
	l.precolor[rv] = 0 // return value leaves in r0
	l.exprInto(rv, st.Results[0], l.c.retType)
	l.put(irIns{op: opRet, src: rv, pos: st.Pos()})
	l.terminated = true
	l.reachable = false
}

func (l *lowerer) branchStmt(st *ast.BranchStmt) {
	switch st.Tok {
	case token.GOTO:
		f, id, ok := l.findLabel(st.Label.Name)
		if !ok {
			l.c.errs.add(st.Label.Pos(), RuleGoto, "label %s is not declared in a reachable scope", st.Label.Name)
			return
		}
		if f.emitted[st.Label.Name] {
			l.c.errs.add(st.Pos(), RuleGoto, "goto %s jumps backward; programs must be loop-free (bounded for loops unroll)", st.Label.Name)
			return
		}
		l.put(irIns{op: opJmp, jop: ebpf.JmpA, dst: vNone, src: vNone, lbl: id, pos: st.Pos()})
		l.terminated = true
		l.reachable = false
	case token.CONTINUE, token.BREAK:
		if st.Label != nil {
			l.c.errs.add(st.Pos(), RuleStmt, "labeled %s is outside the restricted subset", st.Tok)
			return
		}
		if len(l.loops) == 0 {
			l.c.errs.add(st.Pos(), RuleStmt, "%s outside a loop", st.Tok)
			return
		}
		lp := l.loops[len(l.loops)-1]
		target := lp.contLbl
		if st.Tok == token.BREAK {
			target = lp.brkLbl
		}
		l.put(irIns{op: opJmp, jop: ebpf.JmpA, dst: vNone, src: vNone, lbl: target, pos: st.Pos()})
		l.terminated = true
		l.reachable = false
	default:
		l.c.errs.add(st.Pos(), RuleStmt, "unsupported branch %s", st.Tok)
	}
}
