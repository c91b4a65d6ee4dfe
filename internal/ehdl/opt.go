package ehdl

import (
	"errors"

	"hyperion/internal/ebpf"
)

// Optimize performs the "program warping" passes: in-block constant
// propagation, constant branch folding, dead-code elimination, and
// relayout. Fewer instructions mean shallower pipelines and smaller
// bitstreams, which is exactly where the hardware wins come from.
func Optimize(prog []ebpf.Instruction) ([]ebpf.Instruction, error) {
	g, err := buildGraph(prog)
	if err != nil {
		return nil, err
	}
	changed := true
	for iter := 0; changed && iter < 8; iter++ {
		changed = false
		if constProp(g) {
			changed = true
		}
		if foldBranches(g) {
			changed = true
		}
		if deadCode(g) {
			changed = true
		}
	}
	return g.emit()
}

// graph is a jump-resolved program: each node knows its explicit target
// index instead of a slot-relative offset.
type graph struct {
	ins     []ebpf.Instruction
	target  []int // resolved jump target (instruction index), -1 if n/a
	removed []bool
}

func buildGraph(prog []ebpf.Instruction) (*graph, error) {
	target, err := ebpf.JumpTargets(prog)
	if err != nil {
		return nil, err
	}
	return &graph{
		ins:     append([]ebpf.Instruction(nil), prog...),
		target:  target,
		removed: make([]bool, len(prog)),
	}, nil
}

// leaders marks basic-block entry points among live instructions.
func (g *graph) leaders() []bool {
	lead := make([]bool, len(g.ins))
	mark := func(i int) {
		if i >= 0 && i < len(lead) {
			lead[i] = true
		}
	}
	mark(g.next(0))
	for i, ins := range g.ins {
		if g.removed[i] {
			continue
		}
		if ins.IsJump() {
			mark(g.next(g.target[i])) // a removed target falls to the next live one
			mark(g.next(i + 1))
		}
	}
	return lead
}

// next returns the first live instruction at or after i.
func (g *graph) next(i int) int {
	for ; i < len(g.ins); i++ {
		if !g.removed[i] {
			return i
		}
	}
	return -1
}

// consts is the block-local register state both folding passes sweep
// with: which registers hold a known constant, and its value.
type consts struct {
	known [ebpf.NumRegs]bool
	val   [ebpf.NumRegs]uint64
}

func (c *consts) set(r uint8, v uint64) { c.known[r], c.val[r] = true, v }

// clobber forgets every register a non-ALU instruction overwrites.
func (c *consts) clobber(ins ebpf.Instruction) {
	switch {
	case ins.Class() == ebpf.ClassLDX:
		c.known[ins.Dst] = false
	case ins.IsCall():
		for r := ebpf.R0; r <= ebpf.R5; r++ {
			c.known[r] = false
		}
	case ins.IsAtomic() && ins.Imm == ebpf.AtomicCmpXchg:
		c.known[ebpf.R0] = false
	case ins.IsAtomic() && ins.Imm&ebpf.AtomicFetch != 0:
		c.known[ins.Src] = false
	}
}

// immOperand rewrites a register operand to an immediate when the
// register is a known constant that fits one.
func (c *consts) immOperand(ins *ebpf.Instruction) bool {
	if ins.Op&ebpf.SrcReg == 0 || !c.known[ins.Src] || !fitsImm32(c.val[ins.Src]) {
		return false
	}
	ins.Op &^= ebpf.SrcReg
	ins.Imm = int32(c.val[ins.Src])
	ins.Src = 0
	return true
}

func fitsImm32(v uint64) bool { return int64(v) == int64(int32(v)) }

// constProp propagates known register constants within basic blocks,
// rewriting register operands to immediates and folding ALU results.
func constProp(g *graph) bool {
	lead := g.leaders()
	changed := false
	var c consts
	for i := 0; i < len(g.ins); i++ {
		if g.removed[i] {
			continue
		}
		if lead[i] {
			c = consts{}
		}
		ins := &g.ins[i]
		cls := ins.Class()
		switch {
		case ins.IsLDDW():
			c.set(ins.Dst, uint64(ins.Imm64))
		case cls == ebpf.ClassALU64 || cls == ebpf.ClassALU:
			if ins.IsEndian() {
				// The source bit selects byte order here, not an operand.
				c.known[ins.Dst] = false
				break
			}
			if c.immOperand(ins) {
				changed = true
			}
			op := ins.Op & 0xf0
			if ins.Op&ebpf.SrcReg != 0 || (op != ebpf.ALUMov && !c.known[ins.Dst]) {
				c.known[ins.Dst] = false
				break
			}
			r, ok := ebpf.EvalALU(op, cls == ebpf.ClassALU, c.val[ins.Dst], uint64(int64(ins.Imm)))
			if !ok {
				c.known[ins.Dst] = false
				break
			}
			c.set(ins.Dst, r)
			// Replace the whole computation with a mov of the result
			// when it fits (strength reduction to a constant).
			if op != ebpf.ALUMov && fitsImm32(r) {
				*ins = ebpf.Instruction{Op: cls | ebpf.ALUMov, Dst: ins.Dst, Imm: int32(r)}
				changed = true
			}
		case ins.IsJump():
			if c.immOperand(ins) {
				changed = true
			}
		default:
			c.clobber(*ins)
		}
	}
	return changed
}

// foldBranches turns always/never-taken constant comparisons into
// unconditional jumps or removals. It only fires when the comparison's
// dst register is a mov or lddw constant in the same block, which is
// what constProp leaves behind.
func foldBranches(g *graph) bool {
	lead := g.leaders()
	changed := false
	var c consts
	for i := 0; i < len(g.ins); i++ {
		if g.removed[i] {
			continue
		}
		if lead[i] {
			c = consts{}
		}
		ins := &g.ins[i]
		cls := ins.Class()
		switch {
		case ins.IsLDDW():
			c.set(ins.Dst, uint64(ins.Imm64))
		case cls == ebpf.ClassALU64 || cls == ebpf.ClassALU:
			c.known[ins.Dst] = false
			if ins.Op&^0x07 == ebpf.ALUMov { // mov with an immediate operand
				v, _ := ebpf.EvalALU(ebpf.ALUMov, cls == ebpf.ClassALU, 0, uint64(int64(ins.Imm)))
				c.set(ins.Dst, v)
			}
		case ins.IsJump():
			if ins.Op&ebpf.SrcReg != 0 || !c.known[ins.Dst] || ins.Op&0xf0 == ebpf.JmpA {
				break
			}
			taken, ok := ebpf.EvalJump(ins.Op&0xf0, cls == ebpf.ClassJMP32, c.val[ins.Dst], uint64(int64(ins.Imm)))
			if !ok {
				break
			}
			if taken {
				t := g.target[i]
				*ins = ebpf.Ja(0)
				g.target[i] = t
			} else {
				g.removed[i] = true
				g.target[i] = -1
			}
			changed = true
		default:
			c.clobber(*ins)
		}
	}
	if changed {
		g.sweepUnreachable()
	}
	return changed
}

// sweepUnreachable removes instructions no longer reachable from entry.
func (g *graph) sweepUnreachable() {
	reach := make([]bool, len(g.ins))
	var visit func(i int)
	visit = func(i int) {
		for i >= 0 && i < len(g.ins) {
			if g.removed[i] {
				i++
				continue
			}
			if reach[i] {
				return
			}
			reach[i] = true
			ins := g.ins[i]
			if ins.IsExit() {
				return
			}
			if ins.IsJump() {
				visit(g.target[i])
				if ins.Op&0xf0 == ebpf.JmpA {
					return
				}
			}
			i++
		}
	}
	visit(0)
	for i := range g.ins {
		if !g.removed[i] && !reach[i] {
			g.removed[i] = true
			g.target[i] = -1
		}
	}
}

// deadCode removes pure register writes whose results are never read.
// A single reverse pass suffices because verified programs only jump
// forward.
func deadCode(g *graph) bool {
	n := len(g.ins)
	liveIn := make([]uint16, n) // bitmask of live registers at entry of i
	liveOf := func(i int) uint16 {
		if i < 0 || i >= n {
			return 0
		}
		return liveIn[i]
	}
	changed := false
	for i := n - 1; i >= 0; i-- {
		if g.removed[i] {
			if i+1 < n {
				liveIn[i] = liveOf(g.next(i + 1))
			}
			continue
		}
		ins := g.ins[i]
		var out uint16
		cls := ins.Class()
		switch {
		case ins.IsExit():
			out = 1 << ebpf.R0
		case ins.IsJump():
			out = liveOf(g.target[i])
			if ins.Op&0xf0 != ebpf.JmpA {
				out |= liveOf(g.next(i + 1))
			}
		default:
			out = liveOf(g.next(i + 1))
		}
		in := out
		switch {
		case ins.IsLDDW():
			if out&(1<<ins.Dst) == 0 {
				g.removed[i] = true
				changed = true
				in = out
				break
			}
			in &^= 1 << ins.Dst
		case cls == ebpf.ClassALU64 || cls == ebpf.ClassALU:
			dstBit := uint16(1) << ins.Dst
			if out&dstBit == 0 {
				g.removed[i] = true
				changed = true
				break
			}
			op := ins.Op & 0xf0
			if op == ebpf.ALUMov {
				in &^= dstBit
			}
			if ins.Op&ebpf.SrcReg != 0 {
				in |= 1 << ins.Src
			}
			if op != ebpf.ALUMov {
				in |= dstBit
			}
		case cls == ebpf.ClassLDX:
			// Loads may fault; they are kept even if dst is dead — but a
			// verified program's loads cannot fault, so dead loads go too.
			if out&(1<<ins.Dst) == 0 {
				g.removed[i] = true
				changed = true
				break
			}
			in &^= 1 << ins.Dst
			in |= 1 << ins.Src
		case cls == ebpf.ClassSTX:
			in |= 1<<ins.Dst | 1<<ins.Src
			if ins.IsAtomic() && ins.Imm == ebpf.AtomicCmpXchg {
				in |= 1 << ebpf.R0 // the value compared against
			}
		case cls == ebpf.ClassST:
			in |= 1 << ins.Dst
		case ins.IsCall():
			in &^= 1 << ebpf.R0
			in |= 1<<ebpf.R1 | 1<<ebpf.R2 | 1<<ebpf.R3 | 1<<ebpf.R4 | 1<<ebpf.R5
		case ins.IsJump():
			in |= 1 << ins.Dst
			if ins.Op&ebpf.SrcReg != 0 {
				in |= 1 << ins.Src
			}
		}
		liveIn[i] = in
	}
	return changed
}

// emit rebuilds a compact program with recomputed jump offsets.
func (g *graph) emit() ([]ebpf.Instruction, error) {
	newIdx := make([]int, len(g.ins))
	var out []ebpf.Instruction
	for i, ins := range g.ins {
		if g.removed[i] {
			newIdx[i] = -1
			continue
		}
		newIdx[i] = len(out)
		out = append(out, ins)
	}
	// Redirect targets that pointed at removed instructions to the next
	// live one.
	resolve := func(old int) int {
		for old < len(g.ins) && g.removed[old] {
			old++
		}
		if old >= len(g.ins) {
			return -1
		}
		return newIdx[old]
	}
	// Compute slot positions of the new program.
	slotOf := make([]int, len(out)+1)
	for i, ins := range out {
		slotOf[i+1] = slotOf[i] + 1
		if ins.IsLDDW() {
			slotOf[i+1]++
		}
	}
	oi := 0
	for i := range g.ins {
		if g.removed[i] {
			continue
		}
		if g.ins[i].IsJump() {
			t := resolve(g.target[i])
			if t < 0 {
				return nil, errors.New("ehdl: jump target eliminated")
			}
			off := slotOf[t] - (slotOf[oi] + 1)
			if off < -32768 || off > 32767 {
				return nil, errors.New("ehdl: relayout offset overflow")
			}
			out[oi].Off = int16(off)
		}
		oi++
	}
	if len(out) == 0 {
		return nil, errors.New("ehdl: optimizer removed entire program")
	}
	return out, nil
}
