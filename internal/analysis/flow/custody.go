package flow

import (
	"cmp"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"

	"hyperion/internal/analysis"
)

// The custody engine: one lattice for every "acquire it, discharge it
// exactly once on every path" protocol. bufown (wire.Buf references)
// and spanpair (telemetry spans) are its two clients. The engine owns
// the state, the join, every escape rule, the per-function driver, the
// report-once replay and the exit-leak listing; a client says what
// acquires and what discharges (its Transfer) and words the findings.

// Mask is the set of custody states an obligation may be in at a
// program point (a may-analysis joins paths by union).
type Mask uint8

const (
	Held       Mask = 1 << iota // acquired; must be discharged before exit
	Discharged                  // discharged; doing so again, or using it, is a bug
	Escaped                     // custody moved out of intra-procedural view
	Gated                       // held iff the error variable Cell.Gate is non-nil (bufown's conditional send)
)

// Cell is one obligation.
type Cell struct {
	Origin token.Pos // where the obligation was created
	M      Mask
	Gate   string // Gated: the error variable deciding custody
}

// Custody maps access paths (Tracker.Path keys) to obligations. Treated
// as immutable: transfer functions maps.Clone before writing.
type Custody map[string]Cell

// Escape ends tracking of the cell at path and of every cell beneath
// it (escaping op also escapes op.capsule).
func (st Custody) Escape(path string) Custody {
	var out Custody
	prefix := path + "."
	for k, c := range st {
		if k != path && !strings.HasPrefix(k, prefix) {
			continue
		}
		if out == nil {
			out = maps.Clone(st)
		}
		out[k] = Cell{Origin: c.Origin, M: Escaped}
	}
	if out == nil {
		return st
	}
	return out
}

// Discharge marks the obligation at path discharged. Nothing changes
// where path is untracked or custody is unclear (escaped on some
// path); again reports that it was already discharged on every path
// reaching here — the must-misuse half of the may-leak/must-misuse
// asymmetry.
func (st Custody) Discharge(path string) (out Custody, again bool) {
	c, ok := st[path]
	if !ok || c.M&Escaped != 0 {
		return st, false
	}
	if c.M == Discharged {
		return st, true
	}
	out = maps.Clone(st)
	out[path] = Cell{Origin: c.Origin, M: Discharged}
	return out, false
}

// Rules is what one custody check adds to the engine.
type Rules interface {
	// Transfer applies one CFG node: the client's acquire and discharge
	// matchers, falling back on the Tracker's escape rules.
	Transfer(n ast.Node, st Custody) Custody
	// FlowEdge refines st crossing e; return st where the edge says
	// nothing about custody.
	FlowEdge(e Edge, st Custody) Custody
	// Neutral reports whether methods on a receiver of type t leave
	// custody where it is: the tracked type's own methods.
	Neutral(t types.Type) bool
	// Modelled reports whether Transfer accounts for call's arguments
	// itself, so the escape walk must not treat them as handed off.
	Modelled(call *ast.CallExpr) bool
	// Use sees each tracked argument e (at path, in state c) as a call
	// hands it off, before it escapes.
	Use(e ast.Expr, path string, c Cell)
	// Leak words the finding for an obligation that may still be held
	// at function exit.
	Leak(path string, c Cell)
}

// Tracker runs one Rules over one function body.
type Tracker struct {
	Pass  *analysis.Pass
	rules Rules
	// seen is nil while the fixpoint iterates and set for the replay
	// walk, so a finding fires exactly once however often its node was
	// visited on the way.
	seen map[token.Pos]bool
}

// Track runs a custody check over every function body of the pass:
// each declaration and each literal nested in it is its own CFG. rules
// builds the check's state for one body; decl is nil for a literal.
func Track(pass *analysis.Pass, rules func(t *Tracker, decl *ast.FuncDecl) Rules) {
	for _, f := range pass.NonTestFiles() {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			track(pass, fd.Body, fd, rules)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					track(pass, lit.Body, nil, rules)
				}
				return true
			})
		}
	}
}

func track(pass *analysis.Pass, body *ast.BlockStmt, decl *ast.FuncDecl, rules func(*Tracker, *ast.FuncDecl) Rules) {
	t := &Tracker{Pass: pass}
	t.rules = rules(t, decl)
	g := Build(body, pass.TypesInfo)
	res := Solve(g, problem{t})

	// Replay every reachable block from its fixpoint input with
	// reporting on, then list what may still be held at exit.
	t.seen = make(map[token.Pos]bool)
	for _, blk := range g.Blocks {
		if in := res.In[blk]; in != nil {
			transferBlock(problem{t}, blk, in)
		}
	}
	exit, _ := res.In[g.Exit].(Custody)
	var leaks []string
	for k, c := range exit {
		if c.M&(Held|Gated) != 0 {
			leaks = append(leaks, k)
		}
	}
	// Ordered by (origin, path): one obligation reachable under two
	// paths is one finding (Reportf keeps the first at a position),
	// and it names the least path on every run.
	slices.SortFunc(leaks, func(a, b string) int {
		return cmp.Or(cmp.Compare(exit[a].Origin, exit[b].Origin), cmp.Compare(a, b))
	})
	for _, k := range leaks {
		t.rules.Leak(k, exit[k])
	}
}

// problem adapts a Tracker to the solver.
type problem struct{ *Tracker }

func (p problem) Boundary() State { return Custody{} }

func (p problem) Transfer(n ast.Node, s State) State { return p.rules.Transfer(n, s.(Custody)) }

func (p problem) FlowEdge(e Edge, s State) State { return p.rules.FlowEdge(e, s.(Custody)) }

func (p problem) Merge(a, b State) State {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := maps.Clone(a.(Custody))
	for k, bc := range b.(Custody) {
		ac, ok := out[k]
		if !ok {
			out[k] = bc
			continue
		}
		ac.M |= bc.M
		ac.Origin = min(ac.Origin, bc.Origin)
		if ac.Gate == "" {
			ac.Gate = bc.Gate
		}
		out[k] = ac
	}
	return out
}

func (p problem) Equal(a, b State) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return maps.Equal(a.(Custody), b.(Custody))
}

// Reportf records a finding at pos: nothing while the fixpoint
// iterates, and once per position on the replay walk.
func (t *Tracker) Reportf(pos token.Pos, format string, args ...any) {
	if t.seen == nil || t.seen[pos] {
		return
	}
	t.seen[pos] = true
	t.Pass.Reportf(pos, format, args...)
}

// Path returns the tracking key of an lvalue-ish expression: a dotted
// selector path of depth at most two ("hdr", "op.capsule") rooted at a
// function-local variable (parameters included). Anything else —
// package-level variables, map/index expressions, deeper chains, calls
// — returns "" and is not tracked; flow-sensitive obligations on such
// locations would need alias analysis to be sound.
func (t *Tracker) Path(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if t.localVar(e) {
			return e.Name
		}
	case *ast.SelectorExpr:
		base, ok := ast.Unparen(e.X).(*ast.Ident)
		if !ok || !t.localVar(base) {
			return ""
		}
		// The selector must be a field access, not a package qualifier
		// or a method value.
		if sel, ok := t.Pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return base.Name + "." + e.Sel.Name
		}
	}
	return ""
}

// localVar reports whether id names a function-local variable or
// parameter (not a package-level var, constant, field shorthand, or
// package name).
func (t *Tracker) localVar(id *ast.Ident) bool {
	v, ok := t.Pass.TypesInfo.ObjectOf(id).(*types.Var)
	return ok && !v.IsField() && v.Parent() != t.Pass.Pkg.Scope()
}

// Move applies `lhs = from`, from being a path: the obligation follows
// the value. A blank lhs reads nothing and moves nothing. A store into
// storage the pass cannot name (a map slot, a field behind a pointer)
// publishes the reference into a structure with its own lifetime, and
// copying a root whose fields are tracked carries them out of view:
// both escape. moved reports that lhs's own path now holds what from
// held, whatever lhs held before.
func (t *Tracker) Move(lhs ast.Expr, from string, st Custody) (out Custody, moved bool) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
		return st, false
	}
	c, tracked := st[from]
	to := t.Path(lhs)
	switch {
	case !tracked || to == "" || storesThroughPointer(t.Pass.TypesInfo, lhs):
		return st.Escape(from), false
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

// EscapeClosures escapes every cell whose root variable a function
// literal in n captures: the closure may discharge it at any later
// time.
func (t *Tracker) EscapeClosures(n ast.Node, st Custody) Custody {
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
				if _, isVar := t.Pass.TypesInfo.ObjectOf(id).(*types.Var); isVar {
					out = out.Escape(id.Name)
				}
			}
			return true
		})
		return false // the inner walk already covered nested literals
	})
	return out
}

// EscapeCall ends tracking of everything call hands to its callee: the
// arguments (through & and composite-literal fields), a receiver whose
// type is not Neutral, and whatever calls nested in the arguments hand
// on in turn.
func (t *Tracker) EscapeCall(call *ast.CallExpr, st Custody) Custody {
	out := st
	escape := func(e ast.Expr) {
		e = ast.Unparen(e)
		if lit, ok := e.(*ast.CompositeLit); ok {
			for _, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					out = out.Escape(t.Path(kv.Value))
				}
			}
			return
		}
		if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			e = ast.Unparen(ue.X)
		}
		path := t.Path(e)
		if c, ok := out[path]; ok {
			t.rules.Use(e, path, c)
		}
		out = out.Escape(path)
	}
	for _, a := range call.Args {
		escape(a)
	}
	if recv, neutral := t.receiver(call); recv != nil && !neutral {
		escape(recv) // op.attempt() hands op's tracked fields to the method
	}
	for _, a := range call.Args {
		out = t.EscapeNested(a, out)
	}
	return out
}

// EscapeNested applies EscapeCall to every call anywhere in n (not
// behind a function literal) that is neither a Neutral method nor
// Modelled by the client.
func (t *Tracker) EscapeNested(n ast.Node, st Custody) Custody {
	out := st
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if _, neutral := t.receiver(m); !neutral && !t.rules.Modelled(m) {
				out = t.EscapeCall(m, out)
			}
		}
		return true
	})
	return out
}

// receiver splits a method call: the receiver operand (nil for a plain
// call) and whether its type is Neutral.
func (t *Tracker) receiver(call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	return sel.X, t.rules.Neutral(t.Pass.TypesInfo.TypeOf(sel.X))
}
