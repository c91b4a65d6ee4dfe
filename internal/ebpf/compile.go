package ebpf

// Closure-compiled backend. After a program is loaded (and normally
// verified), the VM lowers it into basic blocks, fuses common sequences
// into superinstructions, and emits closure-threaded code. Run
// dispatches to the compiled artifact by default; the interpreter
// remains the reference implementation (RunInterpreted) and the
// fallback for programs the compiler declines (back-edges, overlong
// programs).
//
// Lowering pipeline per block:
//   - error-free register ops (ALU, endian, LDDW) are pre-decoded into
//     µop runs (uops.go) executed by one switch loop — no per-insn
//     closure dispatch;
//   - a block-local constant folder evaluates µops whose operands are
//     all known (using the runtime µop executor itself, so folded and
//     executed results cannot diverge), materializing constants lazily
//     at their first runtime consumer; constants dead at block exit
//     (per a whole-program liveness pass) are never written at all;
//   - conditional branches over known constants resolve statically;
//   - runs of loads off one base fuse into a single bounds check, and
//     a load adjacent to a conditional branch fuses into the
//     terminator; loads/stores carry inline ctx/stack fast paths;
//   - helper calls are devirtualized at compile time, with direct fast
//     paths for the built-in map helpers.
//
// Equivalence contract with the interpreter, relied on by the
// differential tests in compile_test.go:
//   - identical r0 result and identical final map/window state;
//   - identical Steps, TotalSteps, and HelperCalls accounting at run
//     boundaries, including on error paths (the interpreter charges a
//     step before executing the faulting instruction);
//   - identical error classes and messages (ErrBadMemAccess,
//     ErrUnknownHelper, ErrBadInstruction, ErrFellOffEnd, helper
//     wrapping);
//   - identical r1-r5 clobbering on helper calls.
//
// Step accounting is batched: entering a block charges every
// instruction on the block's success path at once; a faulting operation
// refunds the instructions that never executed (its static "overshoot")
// before returning the error. TotalSteps is folded in once per run.

import "fmt"

// regFile is the preallocated register file a compiled program runs on.
// It is sized to 16 (not NumRegs) so that hot-path register indexes can
// be masked with &15, which lets the compiler prove away every bounds
// check; slots 11-15 are never addressed by lowered code (register
// fields are 0-10 everywhere a program can construct them).
type regFile = [16]uint64

// fallOp is a fallible operation: memory access, helper call, atomic,
// or an unsupported instruction that faults when reached.
type fallOp func(vm *VM, r *regFile) error

// step is one compiled body operation: a µop run or a fallible op.
type step struct {
	ops  []uop
	fall fallOp
}

// Terminator sentinels returned in place of a block index.
const (
	termExit   = -1 // return r[R0]
	termOffEnd = -2 // ErrFellOffEnd
)

// cblock is one basic block: straight-line body plus a terminator.
type cblock struct {
	insns int64 // instructions retired on the success path (body + counted terminator)
	body  []step
	// term decides the next block (or a sentinel). nil means a static
	// transfer to next (fallthrough, ja, or a folded branch).
	term func(vm *VM, r *regFile) (int, error)
	next int
	// retKnown marks a termExit block whose return value is a
	// compile-time constant (ret); the r0 materialization is elided
	// because registers are unobservable after exit.
	ret      uint64
	retKnown bool
}

type compiledProg struct {
	blocks []cblock
	// zero lists the registers to clear on entry: registers the program
	// can read before writing (entry-liveness), minus r1/r2/r10 which
	// are always initialized. Everything else keeps stale bits that no
	// execution path can observe.
	zero []uint8
}

// runCompiled executes the compiled artifact with the same entry
// conventions as the interpreter.
func (vm *VM) runCompiled(ctx []byte) (uint64, error) {
	vm.ctx = ctx
	cp := vm.compiled
	r := &vm.regs
	for _, d := range cp.zero {
		r[d&15] = 0
	}
	r[R1] = ctxBase
	r[R2] = uint64(len(ctx))
	r[R10] = stackBase + StackSize
	// The interpreter zeroes the stack every run. Stack contents are
	// observable only after something wrote to it (program stores,
	// which clear stackClean), so a still-clean stack can skip the
	// memclr with identical semantics.
	if !vm.stackClean {
		vm.stack = [StackSize]byte{}
		vm.stackClean = true
	}
	vm.Steps = 0

	bi := 0
	for {
		b := &cp.blocks[bi]
		vm.Steps += b.insns
		for i := range b.body {
			st := &b.body[i]
			if st.fall == nil {
				runUops(r, st.ops)
				continue
			}
			if err := st.fall(vm, r); err != nil {
				vm.TotalSteps += vm.Steps
				return 0, err
			}
		}
		next := b.next
		if b.term != nil {
			var err error
			next, err = b.term(vm, r)
			if err != nil {
				vm.TotalSteps += vm.Steps
				return 0, err
			}
		}
		if next < 0 {
			vm.TotalSteps += vm.Steps
			if next == termExit {
				// term closures only ever return real block indexes, so a
				// termExit here came from b.next and b's ret fields apply.
				if b.retKnown {
					return b.ret, nil
				}
				return r[R0], nil
			}
			return 0, ErrFellOffEnd
		}
		bi = next
	}
}

// compile lowers vm.prog into a compiledProg, or returns nil when the
// program is outside the compiler's domain (back-edges, which only the
// interpreter's step limit can bound, or programs long enough to trip
// StepLimit on a straight path).
func compile(vm *VM) *compiledProg {
	prog, targets := vm.prog, vm.targets
	n := len(prog)
	if n == 0 || n > StepLimit {
		return nil
	}
	for i, t := range targets {
		if t >= 0 && t <= i {
			return nil // back-edge: interpreter enforces the step limit
		}
	}

	// Block leaders: entry, every jump target, and every instruction
	// after a control transfer.
	leader := make([]bool, n)
	leader[0] = true
	for i, ins := range prog {
		if !isTerminator(ins) {
			continue
		}
		if t := targets[i]; t >= 0 {
			leader[t] = true
		}
		if i+1 < n {
			leader[i+1] = true
		}
	}
	blockOf := make([]int, n+1)
	nblocks := 0
	for i := 0; i < n; i++ {
		if leader[i] {
			nblocks++
		}
		blockOf[i] = nblocks - 1
	}
	blockOf[n] = termOffEnd

	starts := make([]int, nblocks+1)
	bi := 0
	for i := 0; i < n; i++ {
		if leader[i] {
			starts[bi] = i
			bi++
		}
	}
	starts[nblocks] = n

	liveIn, liveOut := liveness(prog, targets, blockOf, starts)

	cp := &compiledProg{blocks: make([]cblock, nblocks)}
	for bi := 0; bi < nblocks; bi++ {
		cp.blocks[bi] = compileBlock(vm, prog, targets, blockOf, starts[bi], starts[bi+1], liveOut[bi])
	}

	// Chain-merge: a block with a static successor (fallthrough, ja, or
	// a constant-folded branch) absorbs it when its own body cannot
	// fault — µop runs never return early, so the batched step charge
	// stays exact: on a fault inside the absorbed tail, the refund is
	// relative to the tail's own instruction count, which composes.
	// Processing bottom-up (successors have higher indexes) resolves
	// whole chains in one pass; absorbed blocks stay in the slice for
	// their other predecessors.
	for bi := nblocks - 1; bi >= 0; bi-- {
		b := &cp.blocks[bi]
		for b.term == nil && b.next >= 0 && !hasFall(b.body) {
			y := &cp.blocks[b.next]
			b.insns += y.insns
			b.body = mergeBodies(b.body, y.body)
			b.term = y.term
			b.next = y.next
		}
	}

	// Exit-value peephole: a block reaching exit whose final µop is
	// "mov r0, C" returns C without touching the register file — after
	// exit, registers are unobservable, so the store is dead. (Merged
	// bodies copy step headers, so trimming here never aliases a block
	// still reachable by another path.)
	for bi := range cp.blocks {
		b := &cp.blocks[bi]
		if b.term != nil || b.next != termExit || len(b.body) == 0 {
			continue
		}
		st := &b.body[len(b.body)-1]
		if st.fall != nil || len(st.ops) == 0 {
			continue
		}
		lo := st.ops[len(st.ops)-1]
		if lo.k != kMovI || lo.d != R0 {
			continue
		}
		b.ret, b.retKnown = lo.iv, true
		st.ops = st.ops[:len(st.ops)-1]
		// With the return value pinned, any trailing run of µops whose
		// destination is r0 is dead: µops write only their destination,
		// and nothing after them reads r0.
		for len(st.ops) > 0 && st.ops[len(st.ops)-1].d == R0 {
			st.ops = st.ops[:len(st.ops)-1]
		}
		if len(st.ops) == 0 {
			b.body = b.body[:len(b.body)-1]
		}
	}

	for d := uint8(0); d < NumRegs; d++ {
		if liveIn[0]&rbit(d) != 0 && d != R1 && d != R2 && d != R10 {
			cp.zero = append(cp.zero, d)
		}
	}
	return cp
}

func hasFall(body []step) bool {
	for i := range body {
		if body[i].fall != nil {
			return true
		}
	}
	return false
}

// mergeBodies concatenates two block bodies, joining µop runs at the
// seam so the merged block keeps a single dispatch per run.
func mergeBodies(a, b []step) []step {
	out := append([]step(nil), a...)
	if len(out) > 0 && len(b) > 0 && out[len(out)-1].fall == nil && b[0].fall == nil {
		joined := append(append([]uop(nil), out[len(out)-1].ops...), b[0].ops...)
		out[len(out)-1] = step{ops: joined}
		b = b[1:]
	}
	return append(out, b...)
}

// isTerminator reports whether ins ends a basic block (jump or exit; a
// helper call does not).
func isTerminator(ins Instruction) bool {
	cls := ins.Class()
	if cls != ClassJMP && cls != ClassJMP32 {
		return false
	}
	return ins.Op&0xf0 != JmpCall
}

func rbit(d uint8) uint16 { return 1 << d }

// insReads returns the registers ins reads on its success path.
func insReads(ins Instruction) uint16 {
	if ins.IsLDDW() {
		return 0
	}
	switch ins.Class() {
	case ClassALU, ClassALU64:
		if ins.IsEndian() {
			return rbit(ins.Dst)
		}
		m := uint16(0)
		if ins.Op&0xf0 != ALUMov {
			m |= rbit(ins.Dst)
		}
		if ins.Op&SrcReg != 0 {
			m |= rbit(ins.Src)
		}
		return m
	case ClassJMP, ClassJMP32:
		switch ins.Op & 0xf0 {
		case JmpExit:
			return rbit(R0)
		case JmpCall:
			return rbit(R1) | rbit(R2) | rbit(R3) | rbit(R4) | rbit(R5)
		case JmpA:
			return 0
		default:
			m := rbit(ins.Dst)
			if ins.Op&SrcReg != 0 {
				m |= rbit(ins.Src)
			}
			return m
		}
	case ClassLDX:
		return rbit(ins.Src)
	case ClassSTX:
		m := rbit(ins.Dst) | rbit(ins.Src)
		if ins.IsAtomic() && ins.Imm == AtomicCmpXchg {
			m |= rbit(R0)
		}
		return m
	case ClassST:
		return rbit(ins.Dst)
	}
	return 0
}

// insWrites returns the registers ins writes on its success path.
func insWrites(ins Instruction) uint16 {
	if ins.IsLDDW() {
		return rbit(ins.Dst)
	}
	switch ins.Class() {
	case ClassALU, ClassALU64:
		return rbit(ins.Dst)
	case ClassJMP, ClassJMP32:
		if ins.Op&0xf0 == JmpCall {
			return rbit(R0) | rbit(R1) | rbit(R2) | rbit(R3) | rbit(R4) | rbit(R5)
		}
		return 0
	case ClassLDX:
		return rbit(ins.Dst)
	case ClassSTX:
		if ins.IsAtomic() {
			m := uint16(0)
			if ins.Imm == AtomicCmpXchg {
				m |= rbit(R0)
			} else if ins.Imm&AtomicFetch != 0 {
				m |= rbit(ins.Src)
			}
			return m
		}
	}
	return 0
}

// liveness computes per-block live-in/live-out register sets. The CFG
// is forward-only (compile rejects back-edges), so one reverse pass in
// block order is exact.
func liveness(prog []Instruction, targets []int, blockOf []int, starts []int) (liveIn, liveOut []uint16) {
	nblocks := len(starts) - 1
	n := len(prog)
	use := make([]uint16, nblocks)
	def := make([]uint16, nblocks)
	for b := 0; b < nblocks; b++ {
		for i := starts[b]; i < starts[b+1]; i++ {
			use[b] |= insReads(prog[i]) &^ def[b]
			def[b] |= insWrites(prog[i])
		}
	}
	liveIn = make([]uint16, nblocks)
	liveOut = make([]uint16, nblocks)
	for b := nblocks - 1; b >= 0; b-- {
		last := starts[b+1] - 1
		ins := prog[last]
		out := uint16(0)
		if isTerminator(ins) {
			op := ins.Op & 0xf0
			if op != JmpExit {
				if t := blockOf[targets[last]]; t >= 0 {
					out |= liveIn[t]
				}
				if op != JmpA && last+1 < n {
					out |= liveIn[blockOf[last+1]]
				}
			}
		} else if starts[b+1] < n {
			out |= liveIn[blockOf[starts[b+1]]]
		}
		liveOut[b] = out
		liveIn[b] = use[b] | (out &^ def[b])
	}
	return liveIn, liveOut
}

// bcomp builds one block's body with block-local constant folding.
// known marks registers holding a compile-time constant; mat marks
// known registers whose constant has already been written to the
// runtime register file. Known-but-unmaterialized constants are flushed
// lazily at their first runtime consumer, or dropped entirely if
// nothing live ever reads them.
type bcomp struct {
	known uint16
	mat   uint16
	konst regFile
	ops   []uop
	body  []step
}

func (bc *bcomp) isKnown(d uint8) bool { return bc.known&rbit(d) != 0 }

func (bc *bcomp) setConst(d uint8, v uint64) {
	bc.konst[d] = v
	bc.known |= rbit(d)
	bc.mat &^= rbit(d)
}

// setConstMat records a constant that the runtime already materializes
// itself (e.g. the call closures zero r1-r5).
func (bc *bcomp) setConstMat(d uint8, v uint64) {
	bc.konst[d] = v
	bc.known |= rbit(d)
	bc.mat |= rbit(d)
}

func (bc *bcomp) clobber(d uint8) {
	bc.known &^= rbit(d)
	bc.mat &^= rbit(d)
}

// flush materializes d's pending constant into the register file.
func (bc *bcomp) flush(d uint8) {
	if bc.known&rbit(d) != 0 && bc.mat&rbit(d) == 0 {
		bc.ops = append(bc.ops, uop{k: kMovI, d: d, iv: bc.konst[d]})
		bc.mat |= rbit(d)
	}
}

func (bc *bcomp) flushMask(m uint16) {
	for d := uint8(0); d < NumRegs; d++ {
		if m&rbit(d) != 0 {
			bc.flush(d)
		}
	}
}

// cut ends the pending µop run, emitting it as one body step.
func (bc *bcomp) cut() {
	if len(bc.ops) > 0 {
		bc.body = append(bc.body, step{ops: bc.ops})
		bc.ops = nil
	}
}

// push adds one register-only µop, folding it when every operand is a
// known constant. Folding runs the op through the runtime executor on a
// scratch register file, so folded results are the executed results.
func (bc *bcomp) push(op uop) {
	rd, rs := uopReadsD(op.k), uopReadsS(op.k)
	if (!rd || bc.isKnown(op.d)) && (!rs || bc.isKnown(op.s)) {
		var tmp regFile
		if rd {
			tmp[op.d] = bc.konst[op.d]
		}
		if rs {
			tmp[op.s] = bc.konst[op.s]
		}
		one := [1]uop{op}
		runUops(&tmp, one[:])
		bc.setConst(op.d, tmp[op.d])
		return
	}
	if rd {
		bc.flush(op.d)
	}
	if rs {
		bc.flush(op.s)
	}
	bc.clobber(op.d)
	bc.ops = append(bc.ops, op)
}

// pushFall appends a fallible op after materializing the registers it
// reads and cutting the pending µop run.
func (bc *bcomp) pushFall(reads uint16, f fallOp) {
	bc.flushMask(reads)
	bc.cut()
	bc.body = append(bc.body, step{fall: f})
}

// compileBlock lowers instructions [start, end) into one basic block.
func compileBlock(vm *VM, prog []Instruction, targets []int, blockOf []int, start, end int, liveOut uint16) cblock {
	b := cblock{insns: int64(end - start), next: blockOf[end]}
	last := end - 1
	hasTerm := isTerminator(prog[last])
	bodyEnd := end
	if hasTerm {
		bodyEnd = last
	}

	bc := &bcomp{}

	// Fused load→compare→branch: the last load before the block's
	// conditional branch becomes part of the terminator, sinking past
	// any intervening pure register ops that neither touch the load's
	// base/destination nor read its result. Reordering is sound because
	// registers are unobservable outside the VM: the sunk ops' inputs
	// and the load's address are unaffected, and on a load fault the
	// extra register writes are dead. The fault refund stays keyed to
	// the load's original program position.
	var fusedTerm func(vm *VM, r *regFile) (int, error)
	sinkIdx := -1
	if hasTerm {
		L := bodyEnd - 1
		for L >= start {
			if _, _, ok := lowerRegIns(prog[L]); !ok {
				break
			}
			L--
		}
		if L >= start && prog[L].Class() == ClassLDX && prog[L].SizeBytes() != 0 {
			ld := prog[L]
			ok := true
			for j := L + 1; j < bodyEnd; j++ {
				if insWrites(prog[j])&(rbit(ld.Dst)|rbit(ld.Src)) != 0 ||
					insReads(prog[j])&rbit(ld.Dst) != 0 {
					ok = false
					break
				}
			}
			if ok {
				refund := b.insns - int64(L-start+1)
				if t := fuseLoadBranch(prog, targets, blockOf, L, last, refund); t != nil {
					fusedTerm = t
					sinkIdx = L
				}
			}
		}
	}

	for i := start; i < bodyEnd; {
		if i == sinkIdx {
			i++
			continue
		}
		ins := prog[i]
		if op, emit, ok := lowerRegIns(ins); ok {
			// emit=false is an architectural no-op (le64, mod64 by a
			// constant zero): register state is unchanged.
			if emit {
				bc.push(op)
			}
			i++
			continue
		}
		// overshoot: instructions charged on block entry that this op's
		// fault means never executed (everything after it, terminator
		// included).
		overshoot := b.insns - int64(i-start+1)
		gEnd := bodyEnd
		if sinkIdx >= 0 && sinkIdx < gEnd {
			gEnd = sinkIdx // the sunk load executes in the terminator
		}
		if g := compileLoadGroup(prog, start, i, gEnd, b.insns); g.op != nil {
			bc.pushFall(rbit(ins.Src), g.op)
			for k := 0; k < g.count; k++ {
				bc.clobber(prog[i+k].Dst)
			}
			i += g.count
			continue
		}
		bc.pushFall(insReads(ins), compileFallOp(vm, ins, overshoot))
		// Post-state: registers the op writes at runtime.
		switch ins.Class() {
		case ClassLDX:
			bc.clobber(ins.Dst)
		case ClassSTX:
			if ins.IsAtomic() {
				if ins.Imm == AtomicCmpXchg {
					bc.clobber(R0)
				} else if ins.Imm&AtomicFetch != 0 {
					bc.clobber(ins.Src)
				}
			}
		case ClassJMP, ClassJMP32: // helper call
			bc.clobber(R0)
			for _, d := range [...]uint8{R1, R2, R3, R4, R5} {
				bc.setConstMat(d, 0) // call closures zero r1-r5 themselves
			}
		}
		i++
	}

	switch {
	case fusedTerm != nil:
		jmp := prog[last]
		reads := insReads(prog[sinkIdx]) | rbit(jmp.Dst)
		if jmp.Op&SrcReg != 0 {
			reads |= rbit(jmp.Src)
		}
		bc.flushMask(reads | liveOut)
		bc.cut()
		b.term = fusedTerm
	case !hasTerm:
		bc.flushMask(liveOut)
		bc.cut()
		b.next = blockOf[end] // falls through; blockOf[n] is termOffEnd
	default:
		ins := prog[last]
		op := ins.Op & 0xf0
		switch op {
		case JmpExit:
			bc.flush(R0)
			bc.cut()
			b.next = termExit
		case JmpA:
			bc.flushMask(liveOut)
			bc.cut()
			b.next = blockOf[targets[last]]
		default:
			pred := jumpPred(ins)
			if pred == nil {
				// Unsupported jump op: counted, then faults. Pending
				// constants are dead on the error path.
				bc.cut()
				err := fmt.Errorf("%w: jmp op %#x", ErrBadInstruction, ins.Op)
				b.term = func(vm *VM, r *regFile) (int, error) { return 0, err }
				break
			}
			taken := blockOf[targets[last]]
			fall := termOffEnd
			if last+1 < len(prog) {
				fall = blockOf[last+1]
			}
			readsS := ins.Op&SrcReg != 0
			if bc.isKnown(ins.Dst) && (!readsS || bc.isKnown(ins.Src)) {
				// Both operands constant: resolve the branch statically
				// (evaluated with the runtime predicate itself).
				var tmp regFile
				tmp[ins.Dst] = bc.konst[ins.Dst]
				if readsS {
					tmp[ins.Src] = bc.konst[ins.Src]
				}
				if pred(&tmp) {
					b.next = taken
				} else {
					b.next = fall
				}
				bc.flushMask(liveOut)
				bc.cut()
				break
			}
			bc.flush(ins.Dst)
			if readsS {
				bc.flush(ins.Src)
			}
			bc.flushMask(liveOut)
			bc.cut()
			b.term = func(vm *VM, r *regFile) (int, error) {
				if pred(r) {
					return taken, nil
				}
				return fall, nil
			}
		}
	}
	b.body = bc.body
	return b
}

// errOp builds a fallible op that always faults with err, refunding the
// uncharged tail of the block.
func errOp(err error, overshoot int64) fallOp {
	return func(vm *VM, r *regFile) error {
		vm.Steps -= overshoot
		return err
	}
}

// compileFallOp lowers a fallible (memory/helper/atomic/unsupported)
// instruction.
func compileFallOp(vm *VM, ins Instruction, overshoot int64) fallOp {
	switch ins.Class() {
	case ClassALU, ClassALU64:
		if ins.IsEndian() {
			return errOp(fmt.Errorf("%w: endian width %d", ErrBadInstruction, ins.Imm), overshoot)
		}
		return errOp(fmt.Errorf("%w: alu op %#x", ErrBadInstruction, ins.Op), overshoot)
	case ClassJMP, ClassJMP32:
		if ins.Op&0xf0 == JmpCall {
			return compileCall(vm, ins, overshoot)
		}
		// Unsupported jump op reached mid-block (never emitted as a
		// terminator because compileBlock rejects it first).
		return errOp(fmt.Errorf("%w: jmp op %#x", ErrBadInstruction, ins.Op), overshoot)
	case ClassLD:
		return errOp(fmt.Errorf("%w: ld op %#x", ErrBadInstruction, ins.Op), overshoot)
	case ClassLDX:
		return compileLoad(ins, overshoot)
	case ClassSTX:
		if ins.IsAtomic() {
			return compileAtomic(ins, overshoot)
		}
		return compileStoreReg(ins, overshoot)
	case ClassST:
		return compileStoreImm(ins, overshoot)
	}
	return errOp(fmt.Errorf("%w: class %#x", ErrBadInstruction, ins.Op), overshoot)
}

// fuseLoadBranch builds a load→compare→branch superinstruction when the
// instruction before a conditional branch is a plain LDX. The load's
// destination is still written (later blocks may read it).
func fuseLoadBranch(prog []Instruction, targets []int, blockOf []int, loadIdx, jmpIdx int, refund int64) func(vm *VM, r *regFile) (int, error) {
	ld := prog[loadIdx]
	if ld.Class() != ClassLDX || ld.SizeBytes() == 0 {
		return nil
	}
	jmp := prog[jmpIdx]
	op := jmp.Op & 0xf0
	if op == JmpExit || op == JmpCall || op == JmpA {
		return nil
	}
	pred := jumpPred(jmp)
	if pred == nil {
		return nil
	}
	taken := blockOf[targets[jmpIdx]]
	fall := termOffEnd
	if jmpIdx+1 < len(prog) {
		fall = blockOf[jmpIdx+1]
	}
	d, s, off := ld.Dst, ld.Src, uint64(int64(ld.Off))
	size := uint64(ld.SizeBytes())
	// Specialized form for the dominant filter pattern — a 64-bit
	// eq/ne-immediate test on the register just loaded — comparing the
	// loaded value directly instead of through the predicate closure.
	if jmp.Class() == ClassJMP && jmp.Op&SrcReg == 0 && jmp.Dst == d &&
		(op == JmpEq || op == JmpNe) {
		iv := uint64(int64(jmp.Imm))
		eq := op == JmpEq
		return func(vm *VM, r *regFile) (int, error) {
			a := r[s&15] + off
			var v uint64
			if o := a - ctxBase; o < uint64(len(vm.ctx)) && o+size <= uint64(len(vm.ctx)) {
				v = loadLE(vm.ctx[o:], int(size))
			} else if o := a - stackBase; o < StackSize && o+size <= StackSize {
				v = loadLE(vm.stack[o:], int(size))
			} else {
				var err error
				v, err = vm.memLoad(a, int(size))
				if err != nil {
					vm.Steps -= refund
					return 0, err
				}
			}
			r[d&15] = v
			if (v == iv) == eq {
				return taken, nil
			}
			return fall, nil
		}
	}
	return func(vm *VM, r *regFile) (int, error) {
		a := r[s&15] + off
		var v uint64
		if o := a - ctxBase; o < uint64(len(vm.ctx)) && o+size <= uint64(len(vm.ctx)) {
			v = loadLE(vm.ctx[o:], int(size))
		} else if o := a - stackBase; o < StackSize && o+size <= StackSize {
			v = loadLE(vm.stack[o:], int(size))
		} else {
			var err error
			v, err = vm.memLoad(a, int(size))
			if err != nil {
				// Everything past the load's original position was
				// pre-charged but never executed.
				vm.Steps -= refund
				return 0, err
			}
		}
		r[d&15] = v
		if pred(r) {
			return taken, nil
		}
		return fall, nil
	}
}

func loadLE(b []byte, size int) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(b[1])<<8 | uint64(b[0])
	case 4:
		return uint64(uint32(b[3])<<24 | uint32(b[2])<<16 | uint32(b[1])<<8 | uint32(b[0]))
	default:
		return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	}
}

// jumpPred specializes a conditional jump's predicate, replicating the
// interpreter's operand handling (JMP32 compares zero-extended 32-bit
// values). Returns nil for unknown jump ops.
func jumpPred(ins Instruction) func(r *regFile) bool {
	d := ins.Dst
	is32 := ins.Class() == ClassJMP32
	op := ins.Op & 0xf0
	if ins.Op&SrcReg != 0 {
		s := ins.Src
		if is32 {
			switch op {
			case JmpEq:
				return func(r *regFile) bool { return uint32(r[d&15]) == uint32(r[s&15]) }
			case JmpNe:
				return func(r *regFile) bool { return uint32(r[d&15]) != uint32(r[s&15]) }
			case JmpGt:
				return func(r *regFile) bool { return uint32(r[d&15]) > uint32(r[s&15]) }
			case JmpGe:
				return func(r *regFile) bool { return uint32(r[d&15]) >= uint32(r[s&15]) }
			case JmpLt:
				return func(r *regFile) bool { return uint32(r[d&15]) < uint32(r[s&15]) }
			case JmpLe:
				return func(r *regFile) bool { return uint32(r[d&15]) <= uint32(r[s&15]) }
			case JmpSet:
				return func(r *regFile) bool { return uint32(r[d&15])&uint32(r[s&15]) != 0 }
			case JmpSGt:
				return func(r *regFile) bool { return int64(uint64(uint32(r[d&15]))) > int64(uint64(uint32(r[s&15]))) }
			case JmpSGe:
				return func(r *regFile) bool { return int64(uint64(uint32(r[d&15]))) >= int64(uint64(uint32(r[s&15]))) }
			case JmpSLt:
				return func(r *regFile) bool { return int64(uint64(uint32(r[d&15]))) < int64(uint64(uint32(r[s&15]))) }
			case JmpSLe:
				return func(r *regFile) bool { return int64(uint64(uint32(r[d&15]))) <= int64(uint64(uint32(r[s&15]))) }
			}
			return nil
		}
		switch op {
		case JmpEq:
			return func(r *regFile) bool { return r[d&15] == r[s&15] }
		case JmpNe:
			return func(r *regFile) bool { return r[d&15] != r[s&15] }
		case JmpGt:
			return func(r *regFile) bool { return r[d&15] > r[s&15] }
		case JmpGe:
			return func(r *regFile) bool { return r[d&15] >= r[s&15] }
		case JmpLt:
			return func(r *regFile) bool { return r[d&15] < r[s&15] }
		case JmpLe:
			return func(r *regFile) bool { return r[d&15] <= r[s&15] }
		case JmpSet:
			return func(r *regFile) bool { return r[d&15]&r[s&15] != 0 }
		case JmpSGt:
			return func(r *regFile) bool { return int64(r[d&15]) > int64(r[s&15]) }
		case JmpSGe:
			return func(r *regFile) bool { return int64(r[d&15]) >= int64(r[s&15]) }
		case JmpSLt:
			return func(r *regFile) bool { return int64(r[d&15]) < int64(r[s&15]) }
		case JmpSLe:
			return func(r *regFile) bool { return int64(r[d&15]) <= int64(r[s&15]) }
		}
		return nil
	}
	if is32 {
		iv := uint32(uint64(int64(ins.Imm)))
		switch op {
		case JmpEq:
			return func(r *regFile) bool { return uint32(r[d&15]) == iv }
		case JmpNe:
			return func(r *regFile) bool { return uint32(r[d&15]) != iv }
		case JmpGt:
			return func(r *regFile) bool { return uint32(r[d&15]) > iv }
		case JmpGe:
			return func(r *regFile) bool { return uint32(r[d&15]) >= iv }
		case JmpLt:
			return func(r *regFile) bool { return uint32(r[d&15]) < iv }
		case JmpLe:
			return func(r *regFile) bool { return uint32(r[d&15]) <= iv }
		case JmpSet:
			return func(r *regFile) bool { return uint32(r[d&15])&iv != 0 }
		case JmpSGt:
			return func(r *regFile) bool { return int64(uint64(uint32(r[d&15]))) > int64(uint64(iv)) }
		case JmpSGe:
			return func(r *regFile) bool { return int64(uint64(uint32(r[d&15]))) >= int64(uint64(iv)) }
		case JmpSLt:
			return func(r *regFile) bool { return int64(uint64(uint32(r[d&15]))) < int64(uint64(iv)) }
		case JmpSLe:
			return func(r *regFile) bool { return int64(uint64(uint32(r[d&15]))) <= int64(uint64(iv)) }
		}
		return nil
	}
	iv := uint64(int64(ins.Imm))
	switch op {
	case JmpEq:
		return func(r *regFile) bool { return r[d&15] == iv }
	case JmpNe:
		return func(r *regFile) bool { return r[d&15] != iv }
	case JmpGt:
		return func(r *regFile) bool { return r[d&15] > iv }
	case JmpGe:
		return func(r *regFile) bool { return r[d&15] >= iv }
	case JmpLt:
		return func(r *regFile) bool { return r[d&15] < iv }
	case JmpLe:
		return func(r *regFile) bool { return r[d&15] <= iv }
	case JmpSet:
		return func(r *regFile) bool { return r[d&15]&iv != 0 }
	case JmpSGt:
		return func(r *regFile) bool { return int64(r[d&15]) > int64(iv) }
	case JmpSGe:
		return func(r *regFile) bool { return int64(r[d&15]) >= int64(iv) }
	case JmpSLt:
		return func(r *regFile) bool { return int64(r[d&15]) < int64(iv) }
	case JmpSLe:
		return func(r *regFile) bool { return int64(r[d&15]) <= int64(iv) }
	}
	return nil
}
