package flow

import "go/ast"

// State is one dataflow fact set. nil means "unreached" (bottom): the
// solver never calls Transfer on a nil state and Merge treats nil as
// the identity.
type State any

// Problem defines one dataflow analysis over a Graph. Implementations
// must be pure: Transfer and FlowEdge return fresh or structurally
// shared states and never mutate their input (the solver memoizes
// states across iterations).
type Problem interface {
	// Boundary is the state entering the Entry block.
	Boundary() State
	// Transfer applies one node's gen/kill effect.
	Transfer(n ast.Node, s State) State
	// FlowEdge refines state crossing an edge — e.g. narrowing on an
	// `err != nil` branch. Return s unchanged when the edge is neutral.
	FlowEdge(e Edge, s State) State
	// Merge joins states at a confluence point. Either input may be nil
	// (unreached); Merge must treat nil as identity.
	Merge(a, b State) State
	// Equal reports state equality; the fixpoint terminates when no
	// block's output changes under Equal.
	Equal(a, b State) bool
}

// Result holds the fixpoint: In is the merged state entering each
// block and Out the state leaving it.
type Result struct {
	In  map[*Block]State
	Out map[*Block]State
}

// Solve iterates p forward over g to fixpoint with a deterministic worklist
// (blocks are revisited in index order, so diagnostics derived from the
// result are stable across runs).
func Solve(g *Graph, p Problem) *Result {
	res := &Result{
		In:  make(map[*Block]State, len(g.Blocks)),
		Out: make(map[*Block]State, len(g.Blocks)),
	}
	inWork := make([]bool, len(g.Blocks))
	work := &blockHeap{}
	push := func(b *Block) {
		if !inWork[b.Index] {
			inWork[b.Index] = true
			work.push(b)
		}
	}
	push(g.Entry)

	for work.len() > 0 {
		blk := work.pop()
		inWork[blk.Index] = false

		// Merge inputs.
		var in State
		if blk == g.Entry {
			in = p.Boundary()
		}
		for _, pred := range blk.Preds {
			out := res.Out[pred]
			if out == nil {
				continue
			}
			for _, e := range pred.Succs {
				if e.To == blk {
					in = p.Merge(in, p.FlowEdge(e, out))
				}
			}
		}
		res.In[blk] = in
		if in == nil {
			continue // unreached so far
		}

		out := transferBlock(p, blk, in)
		if p.Equal(res.Out[blk], out) {
			continue
		}
		res.Out[blk] = out
		for _, e := range blk.Succs {
			push(e.To)
		}
	}
	return res
}

func transferBlock(p Problem, blk *Block, in State) State {
	s := in
	for _, n := range blk.Nodes {
		s = p.Transfer(n, s)
	}
	return s
}

// blockHeap is a tiny binary min-heap on Block.Index, keeping worklist
// order — and therefore iteration order and any order-sensitive state
// construction — deterministic without sorting on every pop.
type blockHeap struct {
	blocks []*Block
}

func (h *blockHeap) len() int { return len(h.blocks) }

func (h *blockHeap) push(b *Block) {
	h.blocks = append(h.blocks, b)
	i := len(h.blocks) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.blocks[parent].Index <= h.blocks[i].Index {
			break
		}
		h.blocks[parent], h.blocks[i] = h.blocks[i], h.blocks[parent]
		i = parent
	}
}

func (h *blockHeap) pop() *Block {
	top := h.blocks[0]
	last := len(h.blocks) - 1
	h.blocks[0] = h.blocks[last]
	h.blocks = h.blocks[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.blocks) && h.blocks[l].Index < h.blocks[small].Index {
			small = l
		}
		if r < len(h.blocks) && h.blocks[r].Index < h.blocks[small].Index {
			small = r
		}
		if small == i {
			break
		}
		h.blocks[i], h.blocks[small] = h.blocks[small], h.blocks[i]
		i = small
	}
	return top
}
