package ebpf

import (
	"errors"
	"fmt"
)

// The verifier statically proves a program safe before it may run on the
// DPU or be compiled to hardware: every register read is preceded by a
// write, all memory accesses stay within the stack / context / map-value
// windows they were derived from, map pointers are null-checked before
// use, calls are restricted to the builtin helpers, and control flow is a
// forward-only DAG (no back-edges), which both bounds execution and is
// what makes eHDL pipelining possible.
//
// Like the Linux verifier it is an abstract interpreter over register
// states with unsigned value-range tracking: scalars carry an Interval
// (interval.go), conditional branches refine both operands per edge and
// drop the edges no value can take, and pointer arithmetic with a
// bounded scalar is allowed as long as every byte of the resulting
// access window stays in bounds. That is what lets XRP-style programs
// index into a map value with a computed offset. Unlike Linux it
// insists on loop-free programs, so one forward pass with per-edge
// state merging suffices.

// MaxInsns bounds program size (matches the classic kernel limit).
const MaxInsns = 4096

// ErrVerify wraps all verification failures.
var ErrVerify = errors.New("ebpf: verification failed")

// VerifierConfig parameterizes verification.
type VerifierConfig struct {
	// CtxSize is the guaranteed-accessible context size in bytes.
	CtxSize int
	// Maps resolves map ids used with the map helpers.
	Maps *MapSet
}

// DefaultVerifierConfig allows the builtins with a 512-byte context.
func DefaultVerifierConfig(maps *MapSet) VerifierConfig {
	return VerifierConfig{CtxSize: 512, Maps: maps}
}

type regType uint8

const (
	tUninit regType = iota
	tScalar
	tPtrStack
	tPtrCtx
	tMapValue
	tMapValueOrNull
)

func (t regType) String() string {
	switch t {
	case tUninit:
		return "uninit"
	case tScalar:
		return "scalar"
	case tPtrStack:
		return "stack_ptr"
	case tPtrCtx:
		return "ctx_ptr"
	case tMapValue:
		return "map_value"
	case tMapValueOrNull:
		return "map_value_or_null"
	}
	return "?"
}

// regState is the abstract value of one register.
//
// A scalar's val is its unsigned range; an exact one is a known
// constant. Pointers track a constant offset from their region base
// (off) plus, in val, the bounded variable offset accumulated from
// ptr+scalar arithmetic.
type regState struct {
	typ   regType
	off   int64
	val   Interval
	mapID int // for map value pointers
}

func scalar(val Interval) regState { return regState{typ: tScalar, val: val} }

func scalarConst(v int64) regState { return scalar(Exact(uint64(v))) }

func scalarUnknown() regState { return scalar(Top) }

func (r regState) exact() bool { return r.typ == tScalar && r.val.IsExact() }

// constVal returns the exact value as signed.
func (r regState) constVal() int64 { return int64(r.val.Lo) }

type absState struct {
	regs  [NumRegs]regState
	stack [StackSize]bool // initialized bytes (offset from stack base)
	live  bool
}

func entryState() absState {
	var s absState
	s.live = true
	s.regs[R1] = regState{typ: tPtrCtx}
	s.regs[R2] = scalarUnknown()
	s.regs[R10] = regState{typ: tPtrStack, off: StackSize}
	return s
}

// merge combines two predecessor states conservatively.
func merge(a, b absState) absState {
	if !a.live {
		return b
	}
	if !b.live {
		return a
	}
	var out absState
	out.live = true
	for i := range a.regs {
		ra, rb := a.regs[i], b.regs[i]
		if ra.typ != rb.typ || ra.off != rb.off || ra.mapID != rb.mapID {
			out.regs[i] = regState{typ: tUninit}
			continue
		}
		ra.val = ra.val.Join(rb.val)
		out.regs[i] = ra
	}
	for i := range a.stack {
		out.stack[i] = a.stack[i] && b.stack[i]
	}
	return out
}

type verifier struct {
	prog    []Instruction
	targets []int
	cfg     VerifierConfig
}

// Verify checks prog against cfg. A nil error means the program is safe
// to execute and to compile.
func Verify(prog []Instruction, cfg VerifierConfig) error {
	if len(prog) == 0 {
		return fmt.Errorf("%w: empty program", ErrVerify)
	}
	if len(prog) > MaxInsns {
		return fmt.Errorf("%w: %d instructions exceeds limit %d", ErrVerify, len(prog), MaxInsns)
	}
	targets, err := JumpTargets(prog)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrVerify, err)
	}
	v := &verifier{prog: prog, targets: targets, cfg: cfg}

	// Structural pass: forward-only control flow, reachability, and that
	// every path ends in exit.
	reach := make([]bool, len(prog))
	reach[0] = true
	for i, ins := range prog {
		if ins.IsJump() {
			if targets[i] <= i {
				return fmt.Errorf("%w: insn %d: back-edge to insn %d (loops are rejected)", ErrVerify, i, targets[i])
			}
			if reach[i] {
				reach[targets[i]] = true
			}
		}
		fallsThrough := !ins.IsExit() && !(ins.IsJump() && ins.Op&0xf0 == JmpA)
		if fallsThrough && reach[i] {
			if i+1 >= len(prog) {
				return fmt.Errorf("%w: insn %d: execution can fall off program end", ErrVerify, i)
			}
			reach[i+1] = true
		}
	}
	for i := range prog {
		if !reach[i] {
			return fmt.Errorf("%w: insn %d is unreachable", ErrVerify, i)
		}
	}

	// Dataflow pass: forward abstract interpretation. Because all edges
	// go forward, in-order processing sees every predecessor first. An
	// instruction no feasible edge leads to cannot execute and is not
	// checked.
	in := make([]absState, len(prog))
	in[0] = entryState()
	for i := range prog {
		if !in[i].live {
			continue
		}
		outs, err := v.step(i, in[i])
		if err != nil {
			return fmt.Errorf("%w: insn %d (%s): %v", ErrVerify, i, v.prog[i], err)
		}
		for _, o := range outs {
			if o.next >= len(prog) {
				continue
			}
			if in[o.next].live {
				in[o.next] = merge(in[o.next], o.st)
			} else {
				in[o.next] = o.st
			}
		}
	}
	return nil
}

type edge struct {
	next int
	st   absState
}

func (v *verifier) step(pc int, st absState) ([]edge, error) {
	ins := v.prog[pc]
	readReg := func(r uint8) (regState, error) {
		if st.regs[r].typ == tUninit {
			return regState{}, fmt.Errorf("read of uninitialized r%d", r)
		}
		return st.regs[r], nil
	}
	writeReg := func(r uint8, s regState) error {
		if r == R10 {
			return errors.New("write to read-only frame pointer r10")
		}
		st.regs[r] = s
		return nil
	}

	switch ins.Class() {
	case ClassALU64, ClassALU:
		if ins.IsEndian() {
			dst, err := readReg(ins.Dst)
			if err != nil {
				return nil, err
			}
			if dst.typ != tScalar {
				return nil, fmt.Errorf("byte-order conversion of %s", dst.typ)
			}
			if ins.Imm != 16 && ins.Imm != 32 && ins.Imm != 64 {
				return nil, fmt.Errorf("endian width %d", ins.Imm)
			}
			if err := writeReg(ins.Dst, scalar(ZeroExt(int(ins.Imm)))); err != nil {
				return nil, err
			}
			return []edge{{pc + 1, st}}, nil
		}
		out, err := v.alu(&st, ins)
		if err != nil {
			return nil, err
		}
		if err := writeReg(ins.Dst, out); err != nil {
			return nil, err
		}
		return []edge{{pc + 1, st}}, nil

	case ClassLD:
		if !ins.IsLDDW() {
			return nil, fmt.Errorf("unsupported LD mode %#x", ins.Op)
		}
		if err := writeReg(ins.Dst, scalarConst(ins.Imm64)); err != nil {
			return nil, err
		}
		return []edge{{pc + 1, st}}, nil

	case ClassLDX:
		base, err := readReg(ins.Src)
		if err != nil {
			return nil, err
		}
		if err := v.checkMem(&st, base, int64(ins.Off), ins.SizeBytes(), false); err != nil {
			return nil, err
		}
		// Loads of fewer than 8 bytes zero-extend, bounding the result.
		if err := writeReg(ins.Dst, scalar(ZeroExt(8*ins.SizeBytes()))); err != nil {
			return nil, err
		}
		return []edge{{pc + 1, st}}, nil

	case ClassSTX, ClassST:
		base, err := readReg(ins.Dst)
		if err != nil {
			return nil, err
		}
		if ins.Class() == ClassSTX {
			if _, err := readReg(ins.Src); err != nil {
				return nil, err
			}
		}
		if ins.IsAtomic() {
			size := ins.SizeBytes()
			if size != 4 && size != 8 {
				return nil, fmt.Errorf("atomic width %d", size)
			}
			switch ins.Imm {
			case AtomicAdd, AtomicOr, AtomicAnd, AtomicXor,
				AtomicAdd | AtomicFetch, AtomicOr | AtomicFetch,
				AtomicAnd | AtomicFetch, AtomicXor | AtomicFetch,
				AtomicXchg, AtomicCmpXchg:
			default:
				return nil, fmt.Errorf("unknown atomic op %#x", ins.Imm)
			}
			// Atomics read and write the location.
			if err := v.checkMem(&st, base, int64(ins.Off), size, false); err != nil {
				return nil, err
			}
			if err := v.checkMem(&st, base, int64(ins.Off), size, true); err != nil {
				return nil, err
			}
			if ins.Imm == AtomicCmpXchg {
				if st.regs[R0].typ == tUninit {
					return nil, errors.New("cmpxchg with uninitialized r0")
				}
				st.regs[R0] = scalarUnknown()
			} else if ins.Imm&AtomicFetch != 0 {
				if err := writeReg(ins.Src, scalarUnknown()); err != nil {
					return nil, err
				}
			}
			return []edge{{pc + 1, st}}, nil
		}
		if err := v.checkMem(&st, base, int64(ins.Off), ins.SizeBytes(), true); err != nil {
			return nil, err
		}
		return []edge{{pc + 1, st}}, nil

	case ClassJMP, ClassJMP32:
		op := ins.Op & 0xf0
		switch op {
		case JmpExit:
			r0 := st.regs[R0]
			if r0.typ == tUninit {
				return nil, errors.New("exit with uninitialized r0")
			}
			if r0.typ != tScalar {
				return nil, fmt.Errorf("exit with %s in r0 (pointer leak)", r0.typ)
			}
			return nil, nil
		case JmpCall:
			return v.call(pc, st, ins)
		case JmpA:
			return []edge{{v.targets[pc], st}}, nil
		}
		if op > JmpSLe {
			return nil, fmt.Errorf("unknown jump op %#x", ins.Op)
		}
		dst, err := readReg(ins.Dst)
		if err != nil {
			return nil, err
		}
		var src regState
		if ins.Op&SrcReg != 0 {
			src, err = readReg(ins.Src)
			if err != nil {
				return nil, err
			}
		} else {
			src = scalarConst(int64(ins.Imm))
		}
		srcKnownZero := src.exact() && src.val.Lo == 0

		takenSt, fallSt := st, st
		switch {
		case dst.typ == tMapValueOrNull && srcKnownZero && (op == JmpEq || op == JmpNe):
			refined := dst
			refined.typ = tMapValue
			null := scalarConst(0)
			if op == JmpEq { // taken: null, fall-through: valid pointer
				takenSt.regs[ins.Dst] = null
				fallSt.regs[ins.Dst] = refined
			} else { // taken: valid pointer, fall-through: null
				takenSt.regs[ins.Dst] = refined
				fallSt.regs[ins.Dst] = null
			}
		case dst.typ == tScalar:
			if src.typ != tScalar {
				break
			}
			// Each edge sees both operands narrowed to the values that
			// take it; an edge none can take carries no state.
			refine := func(e *absState, taken bool) {
				d, s, ok := Refine(op, ins.Class() == ClassJMP32, taken, dst.val, src.val)
				e.live = ok
				e.regs[ins.Dst].val = d
				if ins.Op&SrcReg != 0 {
					e.regs[ins.Src].val = s
				}
			}
			refine(&takenSt, true)
			refine(&fallSt, false)
		default:
			if !(op == JmpEq || op == JmpNe) || !srcKnownZero {
				return nil, fmt.Errorf("conditional jump on %s", dst.typ)
			}
		}
		out := make([]edge, 0, 2)
		if takenSt.live {
			out = append(out, edge{v.targets[pc], takenSt})
		}
		if fallSt.live {
			out = append(out, edge{pc + 1, fallSt})
		}
		return out, nil
	}
	return nil, fmt.Errorf("unsupported class %#x", ins.Op)
}

// alu computes the abstract result of an ALU instruction.
func (v *verifier) alu(st *absState, ins Instruction) (regState, error) {
	is32 := ins.Class() == ClassALU
	op := ins.Op & 0xf0
	if op > ALUArsh {
		return regState{}, fmt.Errorf("unknown ALU op %#x", ins.Op)
	}

	var src regState
	if ins.Op&SrcReg != 0 {
		src = st.regs[ins.Src]
		if src.typ == tUninit {
			return regState{}, fmt.Errorf("read of uninitialized r%d", ins.Src)
		}
	} else {
		src = scalarConst(int64(ins.Imm))
	}
	if op == ALUMov {
		if is32 && src.typ != tScalar {
			return regState{}, errors.New("32-bit mov of a pointer truncates it")
		}
		if is32 {
			return scalar(src.val.Trunc32()), nil
		}
		return src, nil
	}
	dst := st.regs[ins.Dst]
	if dst.typ == tUninit {
		return regState{}, fmt.Errorf("read of uninitialized r%d", ins.Dst)
	}

	isPtr := func(t regType) bool {
		return t == tPtrStack || t == tPtrCtx || t == tMapValue
	}

	// Pointer arithmetic: 64-bit add/sub with exact or bounded scalars.
	if isPtr(dst.typ) {
		if is32 {
			return regState{}, errors.New("32-bit arithmetic on a pointer")
		}
		if src.typ != tScalar {
			return regState{}, fmt.Errorf("pointer arithmetic with %s", src.typ)
		}
		switch op {
		case ALUAdd:
			out := dst
			if src.exact() {
				out.off += src.constVal()
				return out, nil
			}
			// Bounded variable offset: fold into the range; the bound
			// check happens at dereference time.
			if src.val.Hi >= 1<<31 {
				return regState{}, fmt.Errorf("pointer arithmetic with unbounded scalar on %s", dst.typ)
			}
			out.val = ALU(ALUAdd, false, out.val, src.val)
			return out, nil
		case ALUSub:
			if !src.exact() {
				return regState{}, fmt.Errorf("pointer subtraction with variable scalar on %s", dst.typ)
			}
			out := dst
			out.off -= src.constVal()
			return out, nil
		default:
			return regState{}, fmt.Errorf("ALU op on %s", dst.typ)
		}
	}
	if isPtr(src.typ) {
		return regState{}, fmt.Errorf("ALU with pointer operand %s", src.typ)
	}
	if dst.typ == tMapValueOrNull || src.typ == tMapValueOrNull {
		return regState{}, errors.New("arithmetic on possibly-null map pointer")
	}

	return scalar(ALU(op, is32, dst.val, src.val)), nil
}

// checkMem validates a load or store of size bytes at base + insnOff,
// where base may carry a bounded variable offset: every byte of
// [off+val.Lo, off+val.Hi+size) must be inside the region.
func (v *verifier) checkMem(st *absState, base regState, off int64, size int, write bool) error {
	if base.typ == tScalar {
		return errors.New("dereference of scalar (not a pointer)")
	}
	if base.typ == tMapValueOrNull {
		return errors.New("dereference of possibly-null map pointer (missing null check)")
	}
	if base.val.Hi >= 1<<31 {
		return errors.New("dereference with unbounded variable offset")
	}
	lo := base.off + off + int64(base.val.Lo)
	hi := base.off + off + int64(base.val.Hi) + int64(size)
	switch base.typ {
	case tPtrStack:
		if lo < 0 || hi > StackSize {
			return fmt.Errorf("stack access [%d,%d) outside [-%d,0) of r10", lo-StackSize, hi-StackSize, StackSize)
		}
		if write {
			if base.val.IsExact() {
				for i := lo; i < hi; i++ {
					st.stack[i] = true
				}
			}
			// Variable-offset writes initialize an unknown byte; mark
			// nothing (sound for later reads).
			return nil
		}
		for i := lo; i < hi; i++ {
			if !st.stack[i] {
				return fmt.Errorf("read of uninitialized stack byte at r10%+d", i-StackSize)
			}
		}
		return nil
	case tPtrCtx:
		if lo < 0 || hi > int64(v.cfg.CtxSize) {
			return fmt.Errorf("ctx access [%d,%d) outside [0,%d)", lo, hi, v.cfg.CtxSize)
		}
		return nil
	case tMapValue:
		m, err := v.cfg.Maps.Get(base.mapID)
		if err != nil {
			return err
		}
		if lo < 0 || hi > int64(m.ValueSize()) {
			return fmt.Errorf("map value access [%d,%d) outside [0,%d)", lo, hi, m.ValueSize())
		}
		return nil
	}
	return fmt.Errorf("dereference of %s", base.typ)
}

// call validates a helper call and applies its effects.
func (v *verifier) call(pc int, st absState, ins Instruction) ([]edge, error) {
	switch ins.Imm {
	case HelperMapLookup, HelperMapUpdate, HelperMapDelete:
		r1 := st.regs[R1]
		if !r1.exact() {
			return nil, errors.New("map helper requires a constant map id in r1")
		}
		if v.cfg.Maps == nil {
			return nil, errors.New("program uses maps but none are configured")
		}
		m, err := v.cfg.Maps.Get(int(r1.val.Lo))
		if err != nil {
			return nil, err
		}
		if err := v.checkMem(&st, st.regs[R2], 0, m.KeySize(), false); err != nil {
			return nil, fmt.Errorf("map key (r2): %v", err)
		}
		if ins.Imm == HelperMapUpdate {
			if err := v.checkMem(&st, st.regs[R3], 0, m.ValueSize(), false); err != nil {
				return nil, fmt.Errorf("map value (r3): %v", err)
			}
		}
		if ins.Imm == HelperMapLookup {
			st.regs[R0] = regState{typ: tMapValueOrNull, mapID: int(r1.val.Lo)}
		} else {
			st.regs[R0] = scalarUnknown()
		}
	case HelperKtime, HelperTrace:
		st.regs[R0] = scalarUnknown()
	default:
		return nil, fmt.Errorf("call to unknown or disallowed helper %d", ins.Imm)
	}
	for _, r := range []uint8{R1, R2, R3, R4, R5} {
		st.regs[r] = regState{typ: tUninit}
	}
	return []edge{{pc + 1, st}}, nil
}
