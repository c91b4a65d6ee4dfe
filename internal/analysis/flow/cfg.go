// Package flow is hyperlint's flow-sensitive layer: an intra-procedural
// control-flow-graph builder, a forward dataflow solver, the custody
// engine (custody.go) that the bufown and spanpair checkers are both
// clients of, and the //wire: ownership-contract grammar bufown reads.
//
// The paper's blueprint has no CPU-side debugger to fall back on: a
// datapath protocol that is only enforced by runtime panics (wire.Buf
// Retain/Release, telemetry span pairing) is a protocol that fails in
// the field. This layer lets those contracts be proven at build time,
// the way the eBPF verifier proves memory discipline before a program
// is ever loaded.
//
// # Control-flow graphs
//
// Build decomposes one function body into basic blocks of AST nodes in
// evaluation order. Branches, loops (for/range), switch/type-switch/
// select, labeled break/continue, goto, short-circuit && / || / ! in
// branch conditions, and panic/return edges are modeled. Conditional
// edges carry their leaf condition expression so dataflow problems can
// refine state on branch outcomes (e.g. "err != nil").
//
// Defer is modeled as a chain of blocks between every function exit and
// the Exit block, in reverse statement order: a `defer x.Release()`
// contributes its call to the chain, and a `defer func() { ... }()`
// contributes the literal's statements. The chain is approximate in two
// deliberate ways: conditionally-registered defers are assumed to run
// (sound for leak checking — it can only hide a leak, never invent
// one), and control flow inside deferred closures is flattened.
// Panic terminates its block with no successors: obligations on a
// panicking path are not reported, matching the runtime contract that a
// panic is already a bug.
package flow

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// EdgeKind classifies a CFG edge. The zero value is unconditional
// fallthrough.
type EdgeKind uint8

const (
	// EdgeTrue is taken when the edge's Cond evaluated true.
	EdgeTrue EdgeKind = iota + 1
	// EdgeFalse is taken when the edge's Cond evaluated false.
	EdgeFalse
)

// Edge is one directed CFG edge. Cond is the leaf condition expression
// for EdgeTrue/EdgeFalse edges (after short-circuit decomposition), nil
// for unconditional edges.
type Edge struct {
	To   *Block
	Kind EdgeKind
	Cond ast.Expr
}

// Block is a basic block: AST nodes in evaluation order with outgoing
// edges. Nodes are statements and, for decomposed conditions, bare
// expressions.
type Block struct {
	Index int
	Kind  string // human label for dumps: "entry", "if.then", "for.head", ...
	Nodes []ast.Node
	Succs []Edge
	Preds []*Block
}

// Graph is one function's CFG.
type Graph struct {
	Blocks []*Block
	Entry  *Block
	// Exit is the single normal exit, reached from every return and the
	// final fallthrough, after the defer chain. Checks that verify
	// "discharged on all paths" inspect state flowing into Exit.
	Exit *Block
}

// Build constructs the CFG of a function body. info may be nil; when
// present it sharpens panic detection (the panic builtin resolved
// through types rather than by name).
func Build(body *ast.BlockStmt, info *types.Info) *Graph {
	b := &builder{
		g:      &Graph{},
		info:   info,
		labels: make(map[string]*labelTarget),
	}
	b.g.Entry = b.newBlock("entry")
	b.cur = b.g.Entry
	ret := b.newBlock("return") // collector for returns + final fallthrough
	b.ret = ret
	b.stmtList(body.List)
	b.jump(ret)
	for _, pg := range b.pendingGotos {
		if t, ok := b.labels[pg.label]; ok {
			b.edgeFrom(pg.from, Edge{To: t.block})
		} else {
			b.edgeFrom(pg.from, Edge{To: ret}) // unresolved: conservative exit
		}
	}

	// Defer chain: return -> defer_n -> ... -> defer_1 -> exit.
	prev := ret
	for i := len(b.defers) - 1; i >= 0; i-- {
		d := b.defers[i]
		blk := b.newBlock("defer")
		blk.Nodes = deferredNodes(d)
		b.edgeFrom(prev, Edge{To: blk})
		prev = blk
	}
	b.g.Exit = b.newBlock("exit")
	b.edgeFrom(prev, Edge{To: b.g.Exit})

	for _, blk := range b.g.Blocks {
		for _, e := range blk.Succs {
			e.To.Preds = append(e.To.Preds, blk)
		}
	}
	return b.g
}

// deferredNodes is what a defer statement executes at function exit:
// the call itself (wrapped as a synthetic ExprStmt so dataflow problems
// see one uniform statement shape), or a deferred func literal's
// statements (flattened — nested control flow inside deferred closures
// is not decomposed).
func deferredNodes(d *ast.DeferStmt) []ast.Node {
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok && len(d.Call.Args) == 0 {
		nodes := make([]ast.Node, len(lit.Body.List))
		for i, s := range lit.Body.List {
			nodes[i] = s
		}
		return nodes
	}
	return []ast.Node{&ast.ExprStmt{X: d.Call}}
}

type labelTarget struct {
	block   *Block // target for goto / labeled loop head
	breakTo *Block // for labeled break
	contTo  *Block // for labeled continue
}

type pendingGoto struct {
	from  *Block
	label string
}

type loopFrame struct {
	breakTo *Block
	contTo  *Block
	label   string
}

type builder struct {
	g    *Graph
	info *types.Info
	cur  *Block
	ret  *Block

	defers       []*ast.DeferStmt
	loops        []loopFrame
	breakStack   []breakable // innermost-last break targets (loops + switches)
	labels       map[string]*labelTarget
	pendingGotos []pendingGoto
	pendingLabel string // label naming the next loop/switch
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) add(n ast.Node) {
	if b.cur != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *builder) edgeFrom(from *Block, e Edge) {
	if from != nil {
		from.Succs = append(from.Succs, e)
	}
}

// jump ends the current block with an unconditional edge and leaves the
// builder in a fresh unreachable block (dead code after return/branch
// still parses into nodes, but nothing flows into it).
func (b *builder) jump(to *Block) {
	b.edgeFrom(b.cur, Edge{To: to})
	b.cur = b.newBlock("unreachable")
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.EmptyStmt:
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.ExprStmt:
		b.add(s)
		if b.isNoReturn(s.X) {
			// panic()/os.Exit: terminate with no successor — obligations
			// on this path are the panic's problem, not the checker's.
			b.cur = b.newBlock("unreachable")
		}
	case *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.GoStmt:
		b.add(s)
	case *ast.DeferStmt:
		b.add(s) // argument evaluation happens here
		b.defers = append(b.defers, s)
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.ret)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, b.takeLabel())
	case *ast.RangeStmt:
		b.rangeStmt(s, b.takeLabel())
	case *ast.SwitchStmt:
		b.switchStmt(s, b.takeLabel())
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, b.takeLabel())
	case *ast.SelectStmt:
		b.selectStmt(s, b.takeLabel())
	default:
		b.add(s)
	}
}

func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	name := s.Label.Name
	switch s.Stmt.(type) {
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.pendingLabel = name
		b.stmt(s.Stmt)
	default:
		// Plain goto target: start a fresh block so the label has a
		// stable entry point.
		blk := b.newBlock("label." + name)
		b.edgeFrom(b.cur, Edge{To: blk})
		b.cur = blk
		b.labels[name] = &labelTarget{block: blk}
		b.stmt(s.Stmt)
	}
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			if t, ok := b.labels[s.Label.Name]; ok && t.breakTo != nil {
				b.jump(t.breakTo)
				return
			}
		} else {
			// Innermost breakable: loop or switch, whichever is nearer.
			// switches records its nesting position via the stack order;
			// we track both stacks and the statement builder pushes in
			// nesting order, so the nearest is whichever was pushed last.
			if blk := b.nearestBreak(); blk != nil {
				b.jump(blk)
				return
			}
		}
		b.jump(b.ret) // malformed; be conservative
	case token.CONTINUE:
		if s.Label != nil {
			if t, ok := b.labels[s.Label.Name]; ok && t.contTo != nil {
				b.jump(t.contTo)
				return
			}
		} else if n := len(b.loops); n > 0 {
			b.jump(b.loops[n-1].contTo)
			return
		}
		b.jump(b.ret)
	case token.GOTO:
		if s.Label != nil {
			b.pendingGotos = append(b.pendingGotos, pendingGoto{from: b.cur, label: s.Label.Name})
		}
		b.cur = b.newBlock("unreachable")
	case token.FALLTHROUGH:
		// Handled by switchStmt wiring case bodies; nothing to do here —
		// the explicit edge is added by the case loop.
	}
}

// breakables interleaves loops and switches by push order. We keep a
// single conceptual stack via a counter slice.
type breakable struct {
	blk    *Block
	isLoop bool
}

func (b *builder) nearestBreak() *Block {
	if len(b.breakStack) == 0 {
		return nil
	}
	return b.breakStack[len(b.breakStack)-1].blk
}

func (b *builder) pushLoop(breakTo, contTo *Block, label string) {
	b.loops = append(b.loops, loopFrame{breakTo: breakTo, contTo: contTo, label: label})
	b.breakStack = append(b.breakStack, breakable{blk: breakTo, isLoop: true})
	if label != "" {
		b.labels[label] = &labelTarget{block: contTo, breakTo: breakTo, contTo: contTo}
	}
}

func (b *builder) popLoop() {
	b.loops = b.loops[:len(b.loops)-1]
	b.breakStack = b.breakStack[:len(b.breakStack)-1]
}

func (b *builder) pushSwitch(breakTo *Block, label string) {
	b.breakStack = append(b.breakStack, breakable{blk: breakTo})
	if label != "" {
		b.labels[label] = &labelTarget{block: breakTo, breakTo: breakTo}
	}
}

func (b *builder) popSwitch() {
	b.breakStack = b.breakStack[:len(b.breakStack)-1]
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	then := b.newBlock("if.then")
	after := b.newBlock("if.after")
	els := after
	if s.Else != nil {
		els = b.newBlock("if.else")
	}
	b.cond(s.Cond, then, els)
	b.cur = then
	b.stmtList(s.Body.List)
	b.edgeFrom(b.cur, Edge{To: after})
	if s.Else != nil {
		b.cur = els
		b.stmt(s.Else)
		b.edgeFrom(b.cur, Edge{To: after})
	}
	b.cur = after
}

// cond wires the evaluation of a branch condition, decomposing
// short-circuit operators into edge-labeled leaf tests.
func (b *builder) cond(e ast.Expr, t, f *Block) {
	switch x := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			mid := b.newBlock("cond.and")
			b.cond(x.X, mid, f)
			b.cur = mid
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			mid := b.newBlock("cond.or")
			b.cond(x.X, t, mid)
			b.cur = mid
			b.cond(x.Y, t, f)
			return
		}
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	}
	leaf := ast.Unparen(e)
	b.add(leaf)
	b.edgeFrom(b.cur, Edge{To: t, Kind: EdgeTrue, Cond: leaf})
	b.edgeFrom(b.cur, Edge{To: f, Kind: EdgeFalse, Cond: leaf})
	b.cur = b.newBlock("unreachable")
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for.head")
	body := b.newBlock("for.body")
	after := b.newBlock("for.after")
	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
	}
	b.edgeFrom(b.cur, Edge{To: head})
	b.cur = head
	if s.Cond != nil {
		b.cond(s.Cond, body, after)
	} else {
		b.edgeFrom(b.cur, Edge{To: body})
		b.cur = b.newBlock("unreachable")
	}
	b.pushLoop(after, post, label)
	b.cur = body
	b.stmtList(s.Body.List)
	b.edgeFrom(b.cur, Edge{To: post})
	if s.Post != nil {
		b.cur = post
		b.stmt(s.Post)
		b.edgeFrom(b.cur, Edge{To: head})
	}
	b.popLoop()
	b.cur = after
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock("range.head")
	body := b.newBlock("range.body")
	after := b.newBlock("range.after")
	b.edgeFrom(b.cur, Edge{To: head})
	// The RangeStmt node stands for the per-iteration key/value binding
	// and the use of the ranged operand.
	head.Nodes = append(head.Nodes, s)
	b.edgeFrom(head, Edge{To: body})
	b.edgeFrom(head, Edge{To: after})
	b.pushLoop(after, head, label)
	b.cur = body
	b.stmtList(s.Body.List)
	b.edgeFrom(b.cur, Edge{To: head})
	b.popLoop()
	b.cur = after
}

func (b *builder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	after := b.newBlock("switch.after")
	b.pushSwitch(after, label)
	b.caseClauses(s.Body.List, after, func(cc *ast.CaseClause, blk *Block) {
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
	})
	b.popSwitch()
	b.cur = after
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Assign)
	after := b.newBlock("switch.after")
	b.pushSwitch(after, label)
	b.caseClauses(s.Body.List, after, nil)
	b.popSwitch()
	b.cur = after
}

// caseClauses wires a switch body: the dispatching block fans out to
// every case, each case body flows to after, and fallthrough chains to
// the next body.
func (b *builder) caseClauses(list []ast.Stmt, after *Block, addExprs func(*ast.CaseClause, *Block)) {
	dispatch := b.cur
	bodies := make([]*Block, len(list))
	hasDefault := false
	for i, cs := range list {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		kind := "case"
		if cc.List == nil {
			kind = "default"
			hasDefault = true
		}
		blk := b.newBlock(kind)
		bodies[i] = blk
		if addExprs != nil {
			addExprs(cc, blk)
		}
		b.edgeFrom(dispatch, Edge{To: blk})
	}
	if !hasDefault {
		b.edgeFrom(dispatch, Edge{To: after})
	}
	for i, cs := range list {
		cc, ok := cs.(*ast.CaseClause)
		if !ok || bodies[i] == nil {
			continue
		}
		b.cur = bodies[i]
		b.stmtList(cc.Body)
		if ft := fallsThrough(cc.Body); ft && i+1 < len(list) && bodies[i+1] != nil {
			b.edgeFrom(b.cur, Edge{To: bodies[i+1]})
		} else {
			b.edgeFrom(b.cur, Edge{To: after})
		}
	}
	b.cur = b.newBlock("unreachable")
}

func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	after := b.newBlock("select.after")
	dispatch := b.cur
	b.pushSwitch(after, label)
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock("comm")
		if cc.Comm != nil {
			blk.Nodes = append(blk.Nodes, cc.Comm)
		}
		b.edgeFrom(dispatch, Edge{To: blk})
		b.cur = blk
		b.stmtList(cc.Body)
		b.edgeFrom(b.cur, Edge{To: after})
	}
	b.popSwitch()
	b.cur = after
}

// isNoReturn reports whether a statement expression never returns:
// panic(...) or os.Exit(...).
func (b *builder) isNoReturn(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name != "panic" {
			return false
		}
		if b.info == nil {
			return true
		}
		_, isBuiltin := b.info.Uses[fun].(*types.Builtin)
		return isBuiltin
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok && id.Name == "os" && fun.Sel.Name == "Exit" {
			return true
		}
	}
	return false
}

// Dump renders the graph for golden tests: one section per reachable
// block with its nodes and labeled edges. Unreachable scratch blocks
// (dead code collectors) are elided.
func (g *Graph) Dump(fset *token.FileSet) string {
	var sb strings.Builder
	reachable := g.reachable()
	for _, blk := range g.Blocks {
		if !reachable[blk] && blk != g.Entry {
			continue
		}
		fmt.Fprintf(&sb, "b%d %s:\n", blk.Index, blk.Kind)
		for _, n := range blk.Nodes {
			fmt.Fprintf(&sb, "\t%s\n", nodeString(fset, n))
		}
		for _, e := range blk.Succs {
			if !reachable[e.To] {
				continue
			}
			switch e.Kind {
			case EdgeTrue:
				fmt.Fprintf(&sb, "\t-> b%d [true %s]\n", e.To.Index, nodeString(fset, e.Cond))
			case EdgeFalse:
				fmt.Fprintf(&sb, "\t-> b%d [false %s]\n", e.To.Index, nodeString(fset, e.Cond))
			default:
				fmt.Fprintf(&sb, "\t-> b%d\n", e.To.Index)
			}
		}
	}
	return sb.String()
}

// reachable marks blocks reachable from Entry. The builder's
// "unreachable" scratch blocks keep dumps and dataflow clean by never
// acquiring predecessors.
func (g *Graph) reachable() map[*Block]bool {
	seen := make(map[*Block]bool)
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, e := range b.Succs {
			walk(e.To)
		}
	}
	walk(g.Entry)
	return seen
}

func nodeString(fset *token.FileSet, n ast.Node) string {
	var sb strings.Builder
	cfg := printer.Config{Mode: printer.RawFormat}
	if err := cfg.Fprint(&sb, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	s := strings.Join(strings.Fields(sb.String()), " ")
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}
