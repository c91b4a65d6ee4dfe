package flow

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// ---- a toy forward problem: track variables holding an un-released
// resource (`x := get()` gens, `x.Release()` kills, merge = union) ----

type ownState map[string]bool

type toyOwn struct{}

func (toyOwn) Boundary() State { return ownState{} }

func (toyOwn) Transfer(n ast.Node, s State) State {
	st := s.(ownState)
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
			if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "get" {
					if lhs, ok := n.Lhs[0].(*ast.Ident); ok {
						out := cloneOwn(st)
						out[lhs.Name] = true
						return out
					}
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" {
				if id, ok := sel.X.(*ast.Ident); ok && st[id.Name] {
					out := cloneOwn(st)
					delete(out, id.Name)
					return out
				}
			}
		}
	}
	return st
}

func (toyOwn) FlowEdge(e Edge, s State) State { return s }

func (toyOwn) Merge(a, b State) State {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := cloneOwn(a.(ownState))
	for k := range b.(ownState) {
		out[k] = true
	}
	return out
}

func (toyOwn) Equal(a, b State) bool { return ownEq(a, b) }

func cloneOwn(s ownState) ownState {
	out := make(ownState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func ownEq(a, b State) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	as, bs := a.(ownState), b.(ownState)
	if len(as) != len(bs) {
		return false
	}
	for k := range as {
		if !bs[k] {
			return false
		}
	}
	return true
}

func keys(s State) string {
	if s == nil {
		return "<unreached>"
	}
	var ks []string
	for k := range s.(ownState) {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, ",")
}

func TestSolveForwardLeak(t *testing.T) {
	tests := []struct {
		name   string
		body   string
		atExit string // owned set flowing into Exit
	}{
		{
			name: "balanced",
			body: `
	b := get()
	b.Release()
	return nil`,
			atExit: "",
		},
		{
			name: "leak_on_early_return",
			body: `
	b := get()
	if bad {
		return errBad
	}
	b.Release()
	return nil`,
			atExit: "b",
		},
		{
			name: "released_on_both_arms",
			body: `
	b := get()
	if bad {
		b.Release()
		return errBad
	}
	b.Release()
	return nil`,
			atExit: "",
		},
		{
			name: "defer_release",
			body: `
	b := get()
	defer b.Release()
	if bad {
		return errBad
	}
	return nil`,
			atExit: "",
		},
		{
			name: "loop_reacquire",
			body: `
	for i := 0; i < n; i++ {
		b := get()
		if flaky {
			continue
		}
		b.Release()
	}
	return nil`,
			atExit: "b",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, _ := buildSrc(t, tt.body)
			res := Solve(g, toyOwn{})
			if got := keys(res.In[g.Exit]); got != tt.atExit {
				t.Errorf("owned at exit = %q, want %q", got, tt.atExit)
			}
		})
	}
}

// TestSolveEdgeRefinement proves FlowEdge sees branch conditions: a
// problem that drops the owned mark when crossing the false edge of an
// `err != nil` test (the conditional-send custody rule).
type condOwn struct{ toyOwn }

func (condOwn) FlowEdge(e Edge, s State) State {
	if e.Cond == nil || s == nil {
		return s
	}
	be, ok := e.Cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ {
		return s
	}
	if id, ok := be.X.(*ast.Ident); ok && id.Name == "err" && e.Kind == EdgeFalse {
		// err == nil: transfer succeeded, obligation moves to callee
		return ownState{}
	}
	return s
}

func TestSolveEdgeRefinement(t *testing.T) {
	body := `
	b := get()
	err := send(b)
	if err != nil {
		b.Release()
		return err
	}
	return nil`
	g, _ := buildSrc(t, body)
	res := Solve(g, condOwn{})
	if got := keys(res.In[g.Exit]); got != "" {
		t.Errorf("owned at exit = %q, want empty (both paths discharge)", got)
	}
}

// TestSolveDeterministic runs the same analysis twice and compares the
// rendered fixpoint.
func TestSolveDeterministic(t *testing.T) {
	body := `
	b := get()
	c := get()
	if x {
		b.Release()
	} else {
		c.Release()
	}
	return nil`
	render := func() string {
		g, _ := buildSrc(t, body)
		res := Solve(g, toyOwn{})
		var sb strings.Builder
		for _, blk := range g.Blocks {
			sb.WriteString(keys(res.In[blk]) + "|" + keys(res.Out[blk]) + "\n")
		}
		return sb.String()
	}
	if a, b := render(), render(); a != b {
		t.Errorf("nondeterministic fixpoint:\n%s\nvs\n%s", a, b)
	}
}
