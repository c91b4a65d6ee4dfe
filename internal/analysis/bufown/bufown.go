// Package bufown is the flow-sensitive wire.Buf ownership check: every
// owned reference must reach exactly one Release on every path.
//
// The zero-copy plane refcounts pooled buffers by hand (PR 6); the
// runtime catches double-releases with a panic, but a *leaked*
// reference — an early error return that skips Release — only shows up
// as a pool that slowly stops recycling. This pass proves the protocol
// per function, eBPF-verifier style, over the flow package's CFGs:
//
//   - a reference obtained from an owning source (wire.Pool.Get,
//     Buf.Retain, any function declared //wire:owns) must be Released,
//     returned, or handed to an escaping consumer on every path;
//   - a must-released reference must not be Released again or used;
//   - custody across //wire:sends calls (NIC.Send) is conditional on
//     the error result: the caller still owns the buffer on the
//     non-nil-error branch and must not touch it on the nil branch.
//
// The analysis is intentionally may-leak/must-misuse: a reference that
// *might* survive to function exit is reported as a leak (that is the
// point of the check), while double-release and use-after-release fire
// only when the bad state holds on every path, keeping false positives
// out of branchy datapath code. Escapes — storing a reference into a
// container, passing it to an unannotated callee, capturing it in a
// closure — end tracking silently: custody moved somewhere this
// intra-procedural pass cannot see. The lattice, the escape rules and
// the driver are the custody engine (custody.go), over flow's CFGs and
// solver; this file says what acquires and discharges a wire.Buf, the
// conditional-send refinement, composite-literal sources, and the
// overwrite and use-after-release checks.
//
// The check runs on every layer, including the harness and exempt
// layers: buffer custody is not a determinism contract, it is memory
// safety, and the self-lint gate runs it over the analysis framework
// itself.
package bufown

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"

	"hyperion/internal/analysis"
	"hyperion/internal/analysis/flow"
)

// Analyzer is the bufown pass.
var Analyzer = &analysis.Analyzer{
	Name: "bufown",
	Doc:  "flow-sensitive wire.Buf custody: every owned reference reaches exactly one Release",
	Run:  run,
}

const wirePath = analysis.ModulePath + "/internal/wire"

func run(pass *analysis.Pass) error {
	cons := flow.Collect(pass.NonTestFiles(), pass.TypesInfo)
	for _, pe := range cons.Errs {
		pass.Reportf(pe.Pos, "%s", pe.Msg)
	}
	// Each declaration and each literal nested in it is its own CFG.
	for _, f := range pass.NonTestFiles() {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p := &prob{pass: pass, cons: cons}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				c, _ := cons.Local(fn)
				p.owns = c.Owns
			}
			p.track(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					(&prob{pass: pass, cons: cons}).track(lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// prob is bufown's check of one function body.
type prob struct {
	pass *analysis.Pass
	cons *flow.Contracts
	owns bool // the function being analyzed is declared //wire:owns
	// seen is nil while the fixpoint iterates and set for the replay
	// walk, so a finding fires exactly once however often its node was
	// visited on the way.
	seen map[token.Pos]bool
}

// leak words the finding for an obligation that may still be held at
// function exit.
func (p *prob) leak(path string, c cell) {
	if c.m&gated != 0 {
		p.reportf(c.origin, "custody of %s depends on a send error that is never checked against nil", path)
		return
	}
	p.reportf(c.origin, "%s is not released on every path (leaked wire.Buf reference)", path)
}

// modelled: a callee with a contract is applied by applyContractArgs,
// so the escape walk must not treat its arguments as handed off.
func (p *prob) modelled(call *ast.CallExpr) bool {
	_, ok := p.cons.For(analysis.Callee(p.pass.TypesInfo, call))
	return ok
}

// use sees each tracked argument e as a call hands it off.
func (p *prob) use(e ast.Expr, path string, c cell) {
	if c.m == discharged {
		p.reportf(e.Pos(), "use of %s after Release", path)
	}
}

// FlowEdge resolves conditional-send custody on error-check branches:
// crossing `err != nil` (true) the send failed and the caller owns the
// buffer; crossing `err == nil` (true) custody moved to the wire.
func (p *prob) FlowEdge(e flow.Edge, s flow.State) flow.State {
	st := s.(custody)
	be, ok := e.Cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return st
	}
	errName, ok := errNilTest(be)
	if !ok {
		return st
	}
	var out custody
	// err is non-nil on the true branch of != and the false branch of ==.
	nonNil := (be.Op == token.NEQ) == (e.Kind == flow.EdgeTrue)
	for k, c := range st {
		if c.m&gated == 0 || c.gate != errName {
			continue
		}
		if out == nil {
			out = maps.Clone(st)
		}
		c.m &^= gated
		if nonNil {
			c.m |= held
		} else {
			c.m |= discharged
		}
		c.gate = ""
		out[k] = c
	}
	if out == nil {
		return st
	}
	return out
}

// errNilTest matches `x != nil` / `x == nil` / reversed, returning x's
// name when x is a plain identifier.
func errNilTest(be *ast.BinaryExpr) (string, bool) {
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNil(x) {
		x, y = y, x
	}
	id, ok := x.(*ast.Ident)
	if !ok || !isNil(y) {
		return "", false
	}
	return id.Name, true
}

// Transfer applies one CFG node: the acquire and discharge matchers,
// falling back on the escape rules (custody.go).
func (p *prob) Transfer(n ast.Node, s flow.State) flow.State {
	st := s.(custody)
	switch n := n.(type) {
	case *ast.AssignStmt:
		return p.assign(n, st)
	case *ast.ExprStmt:
		return p.exprStmt(n, st)
	case *ast.ReturnStmt:
		return p.returnStmt(n, st)
	case *ast.DeferStmt:
		// The deferred call's custody effect is modeled by the CFG's
		// defer chain; registration itself moves nothing.
		return st
	case *ast.GoStmt:
		return p.escapeCall(n.Call, p.escapeClosures(n, st))
	default:
		// Everything else, decomposed branch conditions included: uses
		// and nested calls only.
		st = p.escapeClosures(n, st)
		p.checkUses(n, st)
		return p.escapeNested(n, st)
	}
}

// assign handles sources (x := Get(), x.f = Retain()), moves
// (y := x), conditional sends (err := nic.Send(...)), and overwrites.
func (p *prob) assign(n *ast.AssignStmt, st custody) custody {
	st = p.escapeClosures(n, st)

	if len(n.Rhs) == 1 {
		rhs := ast.Unparen(n.Rhs[0])
		lhsPath := p.path(n.Lhs[0])

		if call, ok := rhs.(*ast.CallExpr); ok {
			return p.assignCall(n, call, lhsPath, st)
		}
		if lit, ok := rhs.(*ast.CompositeLit); ok && lhsPath != "" {
			return p.assignComposite(lit, lhsPath, st)
		}
		// y := x moves x's obligation to y, or escapes it where y is not
		// storage this pass can name (move, in custody.go, has the rules).
		if rhsPath := p.path(rhs); rhsPath != "" {
			out, moved := p.move(n.Lhs[0], rhsPath, st)
			if moved {
				p.overwritten(n, lhsPath, st)
			}
			return out
		}
	}

	// General case: nested calls escape their arguments; every lhs that
	// overwrites a tracked owned cell leaks it.
	for _, r := range n.Rhs {
		st = p.escapeNested(r, st)
	}
	out, cloned := st, false
	for _, l := range n.Lhs {
		lp := p.path(l)
		if _, ok := out[lp]; !ok {
			continue
		}
		if !cloned {
			out, cloned = maps.Clone(st), true
		}
		p.overwritten(n, lp, out)
		delete(out, lp)
	}
	return out
}

// assignCall binds the result of a call: owning sources create an
// obligation on the lhs; sends-contract calls mark the sent buffer
// conditional on the assigned error.
func (p *prob) assignCall(n *ast.AssignStmt, call *ast.CallExpr, lhsPath string, st custody) custody {
	info := p.pass.TypesInfo

	// x := y.Retain() — an owning source regardless of contract.
	if _, ok := p.bufMethod(call, "Retain"); ok {
		p.overwritten(n, lhsPath, st)
		if lhsPath == "" {
			p.reportf(call.Pos(), "owned reference from Retain is discarded (leaked wire.Buf reference)")
			return st
		}
		out := maps.Clone(st)
		out[lhsPath] = cell{origin: call.Pos(), m: held}
		return out
	}

	fn := analysis.Callee(info, call)
	if c, ok := p.cons.For(fn); ok {
		out := p.applyContractArgs(call, fn, c, st, n)
		if c.Owns {
			p.overwritten(n, lhsPath, out)
			if lhsPath == "" {
				p.reportf(call.Pos(), "owned result of %s is discarded (leaked wire.Buf reference)", fn.Name())
				return out
			}
			out = maps.Clone(out)
			delete(out, lhsPath)
			if isBufPtr(info.TypeOf(n.Lhs[0])) {
				out[lhsPath] = cell{origin: call.Pos(), m: held}
			}
		}
		return out
	}

	// Unannotated call: arguments escape; the result is untracked. A
	// tracked lhs overwritten by an unknown result leaks its old cell.
	st = p.escapeCall(call, st)
	if _, ok := st[lhsPath]; ok {
		p.overwritten(n, lhsPath, st)
		st = maps.Clone(st)
		delete(st, lhsPath)
	}
	return st
}

// assignComposite tracks owning sources nested in composite-literal
// fields: tx := relTx{buf: x.Retain()} binds an obligation to tx.buf,
// and f := Frame{Buf: hdr} moves hdr's obligation to f.Buf.
func (p *prob) assignComposite(lit *ast.CompositeLit, lhsPath string, st custody) custody {
	info := p.pass.TypesInfo
	out := maps.Clone(st)
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || !isBufPtr(info.TypeOf(kv.Value)) {
			continue
		}
		fieldPath := lhsPath + "." + key.Name
		val := ast.Unparen(kv.Value)
		if call, ok := val.(*ast.CallExpr); ok {
			_, owns := p.bufMethod(call, "Retain")
			if c, ok := p.cons.For(analysis.Callee(info, call)); ok && c.Owns {
				owns = true
			}
			if owns {
				out[fieldPath] = cell{origin: call.Pos(), m: held}
			}
			continue
		}
		if vp := p.path(val); vp != "" {
			if c, ok := out[vp]; ok {
				delete(out, vp)
				out[fieldPath] = c
			}
		}
	}
	return out
}

// exprStmt handles discharges (x.Release()), discarded sources, and
// generic escaping calls.
func (p *prob) exprStmt(n *ast.ExprStmt, st custody) custody {
	st = p.escapeClosures(n, st)
	call, ok := ast.Unparen(n.X).(*ast.CallExpr)
	if !ok {
		p.checkUses(n.X, st)
		return st
	}

	if recvPath, ok := p.bufMethod(call, "Release"); ok {
		out, again := st.discharge(recvPath)
		if again {
			p.reportf(call.Pos(), "%s is already released on every path reaching this Release (double release)", recvPath)
		}
		return out
	}
	if recvPath, ok := p.bufMethod(call, "Retain"); ok {
		// Discarded Retain: an extra reference now rides on the receiver
		// path and must be discharged like any other.
		if recvPath == "" {
			p.reportf(call.Pos(), "owned reference from Retain is discarded (leaked wire.Buf reference)")
			return st
		}
		out := maps.Clone(st)
		c, ok := out[recvPath]
		if !ok {
			c.origin = call.Pos()
		}
		c.m |= held
		out[recvPath] = c
		return out
	}

	fn := analysis.Callee(p.pass.TypesInfo, call)
	if c, ok := p.cons.For(fn); ok {
		if c.Owns {
			p.reportf(call.Pos(), "owned result of %s is discarded (leaked wire.Buf reference)", fn.Name())
		}
		return p.applyContractArgs(call, fn, c, st, nil)
	}
	return p.escapeCall(call, st)
}

// returnStmt escapes returned references (custody moves to the caller)
// and flags returning a must-released buffer from an owning function.
func (p *prob) returnStmt(n *ast.ReturnStmt, st custody) custody {
	out := p.escapeClosures(n, st)
	for _, r := range n.Results {
		out = p.escapeNested(r, out)
		rp := p.path(r)
		if c, ok := out[rp]; ok {
			if p.owns && c.m == discharged {
				p.reportf(n.Pos(), "returning %s after Release from a //wire:owns function", rp)
			}
			out = out.escape(rp)
		}
	}
	return out
}

// applyContractArgs applies a contract's sends to a call's arguments.
// assignCtx, when non-nil, is the assignment receiving the call's
// results (used to name the error variable gating a send). An argument
// the contract does not mention is borrowed — no escape: the contract
// is the interface.
func (p *prob) applyContractArgs(call *ast.CallExpr, fn *types.Func, c flow.Contract, st custody, assignCtx *ast.AssignStmt) custody {
	sig, _ := fn.Type().(*types.Signature)
	out := st
	for _, sr := range c.Sends {
		arg := argByParam(sig, call, sr.Param)
		if arg == nil {
			continue
		}
		sp := p.sentPath(arg, sr.Field)
		if sp == "" {
			continue
		}
		errName := ""
		if assignCtx != nil {
			errName = p.path(assignCtx.Lhs[len(assignCtx.Lhs)-1])
		}
		nc := cell{origin: call.Pos(), m: gated, gate: errName}
		if cc, ok := out[sp]; ok {
			nc.origin = cc.origin
		}
		if errName == "" || strings.Contains(errName, ".") {
			// Error discarded (or stored somewhere flow-opaque): the
			// failure branch can never release. Report at the call.
			p.reportf(call.Pos(), "error result of %s gates custody of %s; discarding it leaks the buffer on failure", fn.Name(), sp)
			nc.m, nc.gate = escaped, ""
		}
		out = maps.Clone(out)
		out[sp] = nc
	}
	return out
}

// sentPath resolves the access path of a conditionally-sent buffer:
// the argument itself, its named field, or — for composite-literal
// arguments like Frame{Buf: hdr} — the field's value.
func (p *prob) sentPath(arg ast.Expr, field string) string {
	arg = ast.Unparen(arg)
	if field == "" {
		return p.path(arg)
	}
	if lit, ok := arg.(*ast.CompositeLit); ok {
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == field {
				return p.path(kv.Value)
			}
		}
		return ""
	}
	if base := p.path(arg); base != "" {
		return base + "." + field
	}
	return ""
}

// argByParam maps a contract's parameter name to the call argument.
func argByParam(sig *types.Signature, call *ast.CallExpr, name string) ast.Expr {
	if sig == nil {
		return nil
	}
	params := sig.Params()
	for i := 0; i < params.Len() && i < len(call.Args); i++ {
		if params.At(i).Name() == name {
			return call.Args[i]
		}
	}
	return nil
}

// overwritten flags rebinding a path whose reference is owned on every
// incoming path — the old reference can never be released.
func (p *prob) overwritten(n *ast.AssignStmt, path string, st custody) {
	if st[path].m == held {
		p.reportf(n.Pos(), "%s is overwritten while still owning a reference (leaked wire.Buf reference)", path)
	}
}

// checkUses flags reads of a must-released reference.
func (p *prob) checkUses(n ast.Node, st custody) {
	if len(st) == 0 {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		e, ok := m.(ast.Expr)
		if !ok {
			return true
		}
		pth := p.path(e)
		if c, ok := st[pth]; ok && c.m == discharged {
			p.reportf(e.Pos(), "use of %s after Release", pth)
			return false
		}
		return true
	})
}

// bufMethod matches a call to the named method on a *wire.Buf
// receiver, returning the receiver's access path.
func (p *prob) bufMethod(call *ast.CallExpr, name string) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name || !isBufPtr(p.pass.TypesInfo.TypeOf(sel.X)) {
		return "", false
	}
	return p.path(sel.X), true
}

func isBufPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && analysis.IsNamed(ptr.Elem(), wirePath, "Buf")
}
