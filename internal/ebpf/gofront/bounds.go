package gofront

import "hyperion/internal/ebpf"

// Unsigned interval analysis over the IR, used to discharge the
// obligations lowering attaches to instructions at compile time: a
// variable array index stays below the array length, a variable shift
// count below the operand width. This is the only check an array bound
// gets. The verifier holds the emitted load to the context window, not
// to the array inside it, so an index proven here wrongly reads a
// neighbouring field and nothing downstream objects.
//
// The arithmetic is not the frontend's: every transfer and refinement
// is ebpf.Interval's (ALU, Refine, Trunc32, ZeroExt), the same calls
// the verifier makes on the emitted instructions, so what is proven
// here the verifier proves again. What lives here is the walk. The IR's
// jumps are all forward, so the CFG is a DAG in source order and one
// linear pass with merged pending states per label is a complete
// fixpoint. Comparisons refine both operands on both edges, register-
// register compares included, which is what proves `lo` stays inside
// the node arrays across an unrolled binary search (`jge lo, hi` bounds
// lo by hi's maximum on the fallthrough edge); an edge no value can
// take contributes no state.

// state maps vregs to intervals; absent means top.
type state map[vreg]ebpf.Interval

func (s state) get(v vreg) ebpf.Interval {
	if iv, ok := s[v]; ok {
		return iv
	}
	return ebpf.Top
}

func (s state) set(v vreg, iv ebpf.Interval) {
	if iv == ebpf.Top {
		delete(s, v)
		return
	}
	s[v] = iv
}

func (s state) clone() state {
	c := make(state, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// join widens two states; regs must be bounded on both paths to stay
// bounded.
func join(a, b state) state {
	out := make(state)
	//hyperlint:allow(maprange) Join is pure and each k writes only out[k]; visit order cannot matter
	for k, va := range a {
		if vb, ok := b[k]; ok {
			out[k] = va.Join(vb)
		}
	}
	return out
}

// checkBounds runs the analysis and reports every obligation it
// cannot discharge.
func checkBounds(c *compiler, ir []irIns) {
	pending := map[int][]state{}
	cur := state{}
	alive := true

	flowTo := func(lbl int, s state) {
		pending[lbl] = append(pending[lbl], s)
	}

	for _, ins := range ir {
		if ins.op == opLabel {
			var merged state
			haveMerged := false
			if alive {
				merged = cur
				haveMerged = true
			}
			for _, s := range pending[ins.lbl] {
				if !haveMerged {
					merged = s
					haveMerged = true
				} else {
					merged = join(merged, s)
				}
			}
			delete(pending, ins.lbl)
			if !haveMerged {
				alive = false
				cur = state{}
				continue
			}
			cur, alive = merged, true
			continue
		}
		if !alive {
			continue
		}
		if ins.boundLen > 0 {
			iv := cur.get(ins.boundReg)
			what := "index"
			if ins.op == opALUReg {
				what = "shift count"
			}
			if iv == ebpf.Top {
				c.errs.add(ins.pos, RuleBounds,
					"cannot prove the %s stays below %d for %s (value is unbounded here)",
					what, ins.boundLen, ins.boundType)
			} else if iv.Hi >= uint64(ins.boundLen) {
				c.errs.add(ins.pos, RuleBounds,
					"cannot prove the %s stays below %d for %s (possible range [%d, %d])",
					what, ins.boundLen, ins.boundType, iv.Lo, iv.Hi)
			}
		}
		imm := ebpf.Exact(uint64(ins.imm))
		switch ins.op {
		case opMovImm:
			cur.set(ins.dst, imm)
		case opMovReg:
			cur.set(ins.dst, ebpf.ALU(ebpf.ALUMov, ins.is32, ebpf.Top, cur.get(ins.src)))
		case opALUImm:
			cur.set(ins.dst, ebpf.ALU(ins.alu, ins.is32, cur.get(ins.dst), imm))
		case opALUReg:
			cur.set(ins.dst, ebpf.ALU(ins.alu, ins.is32, cur.get(ins.dst), cur.get(ins.src)))
		case opLoad:
			// The width is the emitted load's own, read back off it.
			cur.set(ins.dst, ebpf.ZeroExt(8*ebpf.LoadMem(ins.size, 0, 0, 0).SizeBytes()))
		case opFrameAddr:
			cur.set(ins.dst, ebpf.Top)
		case opCall:
			if ins.dst >= 0 {
				cur.set(ins.dst, ebpf.Top)
			}
		case opRet:
			alive = false
			cur = state{}
		case opJmp:
			if ins.jop == ebpf.JmpA {
				flowTo(ins.lbl, cur)
				alive = false
				cur = state{}
				continue
			}
			a, b := cur.get(ins.dst), imm
			if ins.src != vNone {
				b = cur.get(ins.src)
			}
			// edge narrows both operands in s to the values that send the
			// branch that way, or reports that none do.
			edge := func(s state, taken bool) bool {
				ra, rb, ok := ebpf.Refine(ins.jop, ins.is32, taken, a, b)
				if ins.dst >= 0 {
					s.set(ins.dst, ra)
				}
				if ins.src >= 0 {
					s.set(ins.src, rb)
				}
				return ok
			}
			if taken := cur.clone(); edge(taken, true) {
				flowTo(ins.lbl, taken)
			}
			if !edge(cur, false) {
				alive = false
				cur = state{}
			}
		}
	}
}
