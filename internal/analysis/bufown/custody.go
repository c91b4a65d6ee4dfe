package bufown

import (
	"cmp"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"

	"hyperion/internal/analysis/flow"
)

// The custody engine: the lattice, the escape rules, the per-function
// driver, the report-once replay and the exit-leak listing. bufown's
// rules (bufown.go) say what acquires and what discharges a reference
// and word the findings; flow supplies the CFG and the solver.

// mask is the set of custody states an obligation may be in at a
// program point (a may-analysis joins paths by union).
type mask uint8

const (
	held       mask = 1 << iota // acquired; must be discharged before exit
	discharged                  // discharged; doing so again, or using it, is a bug
	escaped                     // custody moved out of intra-procedural view
	gated                       // held iff the error variable cell.gate is non-nil (the conditional send)
)

// cell is one obligation.
type cell struct {
	origin token.Pos // where the obligation was created
	m      mask
	gate   string // gated: the error variable deciding custody
}

// custody maps access paths (prob.path keys) to obligations. Treated
// as immutable: transfer functions maps.Clone before writing.
type custody map[string]cell

// escape ends tracking of the cell at path and of every cell beneath
// it (escaping op also escapes op.capsule).
func (st custody) escape(path string) custody {
	var out custody
	prefix := path + "."
	for k, c := range st {
		if k != path && !strings.HasPrefix(k, prefix) {
			continue
		}
		if out == nil {
			out = maps.Clone(st)
		}
		out[k] = cell{origin: c.origin, m: escaped}
	}
	if out == nil {
		return st
	}
	return out
}

// discharge marks the obligation at path discharged. Nothing changes
// where path is untracked or custody is unclear (escaped on some
// path); again reports that it was already discharged on every path
// reaching here — the must-misuse half of the may-leak/must-misuse
// asymmetry.
func (st custody) discharge(path string) (out custody, again bool) {
	c, ok := st[path]
	if !ok || c.m&escaped != 0 {
		return st, false
	}
	if c.m == discharged {
		return st, true
	}
	out = maps.Clone(st)
	out[path] = cell{origin: c.origin, m: discharged}
	return out, false
}

// track solves one function body to its fixpoint, replays every
// reachable block from its fixpoint input with reporting on, then
// lists what may still be held at exit.
func (p *prob) track(body *ast.BlockStmt) {
	g := flow.Build(body, p.pass.TypesInfo)
	res := flow.Solve(g, p)

	p.seen = make(map[token.Pos]bool)
	for _, blk := range g.Blocks {
		if st := res.In[blk]; st != nil {
			for _, n := range blk.Nodes {
				st = p.Transfer(n, st)
			}
		}
	}
	exit, _ := res.In[g.Exit].(custody)
	var leaks []string
	for k, c := range exit {
		if c.m&(held|gated) != 0 {
			leaks = append(leaks, k)
		}
	}
	// Ordered by (origin, path): one obligation reachable under two
	// paths is one finding (reportf keeps the first at a position),
	// and it names the least path on every run.
	slices.SortFunc(leaks, func(a, b string) int {
		return cmp.Or(cmp.Compare(exit[a].origin, exit[b].origin), cmp.Compare(a, b))
	})
	for _, k := range leaks {
		p.leak(k, exit[k])
	}
}

// prob is a flow.Problem over custody states; Transfer and FlowEdge
// are bufown's rules (bufown.go).

func (p *prob) Boundary() flow.State { return custody{} }

func (p *prob) Merge(a, b flow.State) flow.State {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := maps.Clone(a.(custody))
	for k, bc := range b.(custody) {
		ac, ok := out[k]
		if !ok {
			out[k] = bc
			continue
		}
		ac.m |= bc.m
		ac.origin = min(ac.origin, bc.origin)
		if ac.gate == "" {
			ac.gate = bc.gate
		}
		out[k] = ac
	}
	return out
}

func (p *prob) Equal(a, b flow.State) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return maps.Equal(a.(custody), b.(custody))
}

// reportf records a finding at pos: nothing while the fixpoint
// iterates, and once per position on the replay walk.
func (p *prob) reportf(pos token.Pos, format string, args ...any) {
	if p.seen == nil || p.seen[pos] {
		return
	}
	p.seen[pos] = true
	p.pass.Reportf(pos, format, args...)
}

// path returns the tracking key of an lvalue-ish expression: a dotted
// selector path of depth at most two ("hdr", "op.capsule") rooted at a
// function-local variable (parameters included). Anything else —
// package-level variables, map/index expressions, deeper chains, calls
// — returns "" and is not tracked; flow-sensitive obligations on such
// locations would need alias analysis to be sound.
func (p *prob) path(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if p.localVar(e) {
			return e.Name
		}
	case *ast.SelectorExpr:
		base, ok := ast.Unparen(e.X).(*ast.Ident)
		if !ok || !p.localVar(base) {
			return ""
		}
		// The selector must be a field access, not a package qualifier
		// or a method value.
		if sel, ok := p.pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return base.Name + "." + e.Sel.Name
		}
	}
	return ""
}

// localVar reports whether id names a function-local variable or
// parameter (not a package-level var, constant, field shorthand, or
// package name).
func (p *prob) localVar(id *ast.Ident) bool {
	v, ok := p.pass.TypesInfo.ObjectOf(id).(*types.Var)
	return ok && !v.IsField() && v.Parent() != p.pass.Pkg.Scope()
}

// move applies `lhs = from`, from being a path: the obligation follows
// the value. A blank lhs reads nothing and moves nothing. A store into
// storage the pass cannot name (a map slot, a field behind a pointer)
// publishes the reference into a structure with its own lifetime, and
// copying a root whose fields are tracked carries them out of view:
// both escape. moved reports that lhs's own path now holds what from
// held, whatever lhs held before.
func (p *prob) move(lhs ast.Expr, from string, st custody) (out custody, moved bool) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
		return st, false
	}
	c, tracked := st[from]
	to := p.path(lhs)
	switch {
	case !tracked || to == "" || storesThroughPointer(p.pass.TypesInfo, lhs):
		return st.escape(from), false
	case to == from:
		return st, false
	}
	out = maps.Clone(st)
	delete(out, from)
	out[to] = c
	return out, true
}

// storesThroughPointer reports whether lhs writes a field through a
// pointer — publishing the value into storage with its own lifetime.
func storesThroughPointer(info *types.Info, lhs ast.Expr) bool {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	_, ok = info.TypeOf(sel.X).(*types.Pointer)
	return ok
}

// escapeClosures escapes every cell whose root variable a function
// literal in n captures: the closure may discharge it at any later
// time.
func (p *prob) escapeClosures(n ast.Node, st custody) custody {
	if len(st) == 0 {
		return st
	}
	out := st
	ast.Inspect(n, func(m ast.Node) bool {
		lit, ok := m.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(b ast.Node) bool {
			// The capture test keys on the name of anything that
			// resolves to a variable; a false escape only silences.
			if id, ok := b.(*ast.Ident); ok {
				if _, isVar := p.pass.TypesInfo.ObjectOf(id).(*types.Var); isVar {
					out = out.escape(id.Name)
				}
			}
			return true
		})
		return false // the inner walk already covered nested literals
	})
	return out
}

// escapeCall ends tracking of everything call hands to its callee: the
// arguments (through & and composite-literal fields), a receiver that
// is not a *wire.Buf, and whatever calls nested in the arguments hand
// on in turn.
func (p *prob) escapeCall(call *ast.CallExpr, st custody) custody {
	out := st
	esc := func(e ast.Expr) {
		e = ast.Unparen(e)
		if lit, ok := e.(*ast.CompositeLit); ok {
			for _, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					out = out.escape(p.path(kv.Value))
				}
			}
			return
		}
		if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			e = ast.Unparen(ue.X)
		}
		path := p.path(e)
		if c, ok := out[path]; ok {
			p.use(e, path, c)
		}
		out = out.escape(path)
	}
	for _, a := range call.Args {
		esc(a)
	}
	if recv, neutral := p.receiver(call); recv != nil && !neutral {
		esc(recv) // op.attempt() hands op's tracked fields to the method
	}
	for _, a := range call.Args {
		out = p.escapeNested(a, out)
	}
	return out
}

// escapeNested applies escapeCall to every call anywhere in n (not
// behind a function literal) that is neither a *wire.Buf method nor
// modelled by a contract.
func (p *prob) escapeNested(n ast.Node, st custody) custody {
	out := st
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if _, neutral := p.receiver(m); !neutral && !p.modelled(m) {
				out = p.escapeCall(m, out)
			}
		}
		return true
	})
	return out
}

// receiver splits a method call: the receiver operand (nil for a plain
// call) and whether it is neutral, a *wire.Buf.
func (p *prob) receiver(call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	return sel.X, isBufPtr(p.pass.TypesInfo.TypeOf(sel.X))
}
