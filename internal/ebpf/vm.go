package ebpf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

func byteSwap32(v uint32) uint32 { return bits.ReverseBytes32(v) }
func byteSwap64(v uint64) uint64 { return bits.ReverseBytes64(v) }

// Address-space layout for VM pointers. eBPF registers hold uint64s; the
// VM maps fixed ranges onto Go byte slices so programs can dereference
// stack, context, and helper-returned windows without ever seeing real
// addresses.
const (
	StackSize = 512
	stackBase = 0x1000_0000
	ctxBase   = 0x2000_0000
	winBase   = 0x4000_0000
	winStride = 0x0010_0000 // max 1 MiB per window
)

// Built-in helper ids (kernel-flavoured numbering).
const (
	HelperMapLookup int32 = 1
	HelperMapUpdate int32 = 2
	HelperMapDelete int32 = 3
	HelperKtime     int32 = 5
	HelperTrace     int32 = 6
)

// HelperFunc implements one helper call. args are r1..r5; the returned
// value lands in r0.
type HelperFunc func(vm *VM, args [5]uint64) (uint64, error)

// Helper couples a helper implementation with its name (for the verifier
// and diagnostics).
type Helper struct {
	Name string
	Fn   HelperFunc
}

// Runtime errors.
var (
	ErrNoProgram      = errors.New("ebpf: no program loaded")
	ErrStepLimit      = errors.New("ebpf: runtime instruction limit exceeded")
	ErrBadMemAccess   = errors.New("ebpf: invalid memory access")
	ErrUnknownHelper  = errors.New("ebpf: call to unknown helper")
	ErrBadInstruction = errors.New("ebpf: unsupported instruction")
	ErrFellOffEnd     = errors.New("ebpf: execution fell off program end")
)

// StepLimit bounds one execution (the verifier rejects loops, but helper
// chains and long straight-line programs still need a backstop).
const StepLimit = 4 << 20

type window struct {
	base     uint64
	data     []byte
	writable bool
}

// VM executes eBPF programs. It is not safe for concurrent use; create
// one VM per execution context (each fabric slot gets its own).
type VM struct {
	prog    []Instruction
	targets []int // jump target instruction index, -1 for non-jumps
	Maps    *MapSet
	helpers map[int32]Helper
	// Now supplies the ktime helper; defaults to a counter when nil.
	Now func() uint64
	// Trace receives HelperTrace output.
	Trace func(v uint64)

	stack   [StackSize]byte
	ctx     []byte
	windows []window
	fakeNow uint64

	Steps       int64 // instructions executed in the last Run
	TotalSteps  int64 // cumulative
	HelperCalls int64
}

// NewVM creates a VM with the standard helpers registered.
func NewVM(maps *MapSet) *VM {
	if maps == nil {
		maps = &MapSet{}
	}
	vm := &VM{Maps: maps, helpers: make(map[int32]Helper)}
	vm.registerBuiltins()
	return vm
}

// RegisterHelper installs a helper by id, replacing any existing one.
func (vm *VM) RegisterHelper(id int32, h Helper) {
	vm.helpers[id] = h
}

// Load installs a program after computing its jump table.
func (vm *VM) Load(prog []Instruction) error {
	targets, err := JumpTargets(prog)
	if err != nil {
		return err
	}
	vm.prog = prog
	vm.targets = targets
	return nil
}

// JumpTargets resolves every branch's slot-relative offset to the index
// of the instruction it lands on (-1 for instructions that do not
// branch), accounting for two-slot LDDW instructions. It is the one
// place a jump offset is interpreted: the VM, the verifier and ehdl all
// work on its result.
func JumpTargets(prog []Instruction) ([]int, error) {
	slotOf := make([]int, len(prog)+1)
	for i, ins := range prog {
		slotOf[i+1] = slotOf[i] + 1
		if ins.IsLDDW() {
			slotOf[i+1]++
		}
	}
	targets := make([]int, len(prog))
	for i, ins := range prog {
		// Decoded register nibbles span 0..15 but only NumRegs exist;
		// rejecting here covers both Verify and a bare Load.
		if ins.Dst >= NumRegs || ins.Src >= NumRegs {
			return nil, fmt.Errorf("ebpf: insn %d: register out of range (dst r%d, src r%d)", i, ins.Dst, ins.Src)
		}
		targets[i] = -1
		if !ins.IsJump() {
			continue
		}
		dstSlot := slotOf[i] + 1 + int(ins.Off)
		// slotOf is ascending, so the instruction starting at dstSlot, if
		// there is one, is found by search; the second half of an LDDW
		// and anything outside the program start no instruction.
		idx := sort.SearchInts(slotOf[:len(prog)], dstSlot)
		if idx == len(prog) || slotOf[idx] != dstSlot {
			return nil, fmt.Errorf("ebpf: insn %d: jump to invalid slot %d", i, dstSlot)
		}
		targets[i] = idx
	}
	return targets, nil
}

// AddWindow exposes data to the program at a fresh virtual address,
// returning that address. Windows persist until ResetWindows.
func (vm *VM) AddWindow(data []byte, writable bool) uint64 {
	if len(data) > winStride {
		panic("ebpf: window too large")
	}
	base := uint64(winBase + len(vm.windows)*winStride)
	vm.windows = append(vm.windows, window{base: base, data: data, writable: writable})
	return base
}

// ResetWindows drops all registered windows.
func (vm *VM) ResetWindows() { vm.windows = vm.windows[:0] }

// resolve returns the backing slice for [addr, addr+size) and whether
// writes are permitted.
func (vm *VM) resolve(addr uint64, size int) ([]byte, bool, error) {
	end := addr + uint64(size)
	if end < addr { // address-space wrap
		return nil, false, fmt.Errorf("%w: [%#x,%#x)", ErrBadMemAccess, addr, end)
	}
	switch {
	case addr >= stackBase && end <= stackBase+StackSize:
		return vm.stack[addr-stackBase : end-stackBase], true, nil
	case addr >= ctxBase && end <= ctxBase+uint64(len(vm.ctx)):
		return vm.ctx[addr-ctxBase : end-ctxBase], true, nil
	}
	for i := range vm.windows {
		w := &vm.windows[i]
		if addr >= w.base && end <= w.base+uint64(len(w.data)) {
			return w.data[addr-w.base : end-w.base], w.writable, nil
		}
	}
	return nil, false, fmt.Errorf("%w: [%#x,%#x)", ErrBadMemAccess, addr, end)
}

func (vm *VM) memLoad(addr uint64, size int) (uint64, error) {
	b, _, err := vm.resolve(addr, size)
	if err != nil {
		return 0, err
	}
	switch size {
	case 1:
		return uint64(b[0]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(b)), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(b)), nil
	default:
		return binary.LittleEndian.Uint64(b), nil
	}
}

func (vm *VM) memStore(addr uint64, size int, val uint64) error {
	b, writable, err := vm.resolve(addr, size)
	if err != nil {
		return err
	}
	if !writable {
		return fmt.Errorf("%w: write to read-only window at %#x", ErrBadMemAccess, addr)
	}
	switch size {
	case 1:
		b[0] = byte(val)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(val))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(val))
	default:
		binary.LittleEndian.PutUint64(b, val)
	}
	return nil
}

// ReadBytes copies size bytes from program-visible memory (for helpers
// taking pointer arguments).
func (vm *VM) ReadBytes(addr uint64, size int) ([]byte, error) {
	b, _, err := vm.resolve(addr, size)
	if err != nil {
		return nil, err
	}
	out := make([]byte, size)
	copy(out, b)
	return out, nil
}

// helperArgBytes resolves a map helper's pointer argument. The built-in
// HashMap never retains key/value slices, so it reads program memory in
// place; any other Map implementation gets a defensive copy.
func (vm *VM) helperArgBytes(m Map, addr uint64, size int) ([]byte, error) {
	switch m.(type) {
	case *HashMap:
		b, _, err := vm.resolve(addr, size)
		return b, err
	default:
		return vm.ReadBytes(addr, size)
	}
}

// Run executes the loaded program with ctx mapped at the context base
// (r1 points to it, r2 holds its length), returning r0. It interprets
// one instruction per step; Steps, TotalSteps and HelperCalls count
// exactly what executed, including the instruction that faulted.
func (vm *VM) Run(ctx []byte) (uint64, error) {
	if vm.prog == nil {
		return 0, ErrNoProgram
	}
	vm.ctx = ctx
	var r [NumRegs]uint64
	r[R1] = ctxBase
	r[R2] = uint64(len(ctx))
	r[R10] = stackBase + StackSize
	for i := range vm.stack {
		vm.stack[i] = 0
	}
	vm.Steps = 0

	pc := 0
	for {
		if pc < 0 || pc >= len(vm.prog) {
			return 0, ErrFellOffEnd
		}
		if vm.Steps >= StepLimit {
			return 0, ErrStepLimit
		}
		vm.Steps++
		vm.TotalSteps++
		ins := vm.prog[pc]

		switch ins.Class() {
		case ClassALU64, ClassALU:
			if ins.IsEndian() {
				v := r[ins.Dst]
				switch ins.Imm {
				case 16:
					v &= 0xffff
					if ins.Op&SrcReg != 0 { // to big-endian
						v = uint64(v>>8 | (v&0xff)<<8)
					}
				case 32:
					v &= 0xffffffff
					if ins.Op&SrcReg != 0 {
						v = uint64(byteSwap32(uint32(v)))
					}
				case 64:
					if ins.Op&SrcReg != 0 {
						v = byteSwap64(v)
					}
				default:
					return 0, fmt.Errorf("%w: endian width %d", ErrBadInstruction, ins.Imm)
				}
				r[ins.Dst] = v
				pc++
				continue
			}
			is32 := ins.Class() == ClassALU
			var src uint64
			if ins.Op&SrcReg != 0 {
				src = r[ins.Src]
			} else {
				src = uint64(int64(ins.Imm))
			}
			dst := r[ins.Dst]
			if is32 {
				dst = uint64(uint32(dst))
				src = uint64(uint32(src))
			}
			var res uint64
			switch ins.Op & 0xf0 {
			case ALUAdd:
				res = dst + src
			case ALUSub:
				res = dst - src
			case ALUMul:
				res = dst * src
			case ALUDiv:
				if src == 0 {
					res = 0 // ISA-defined: division by zero yields 0
				} else {
					res = dst / src
				}
			case ALUMod:
				if src == 0 {
					res = dst // ISA-defined: modulo by zero keeps dst
				} else {
					res = dst % src
				}
			case ALUOr:
				res = dst | src
			case ALUAnd:
				res = dst & src
			case ALUXor:
				res = dst ^ src
			case ALULsh:
				if is32 {
					res = dst << (src & 31)
				} else {
					res = dst << (src & 63)
				}
			case ALURsh:
				if is32 {
					res = dst >> (src & 31)
				} else {
					res = dst >> (src & 63)
				}
			case ALUArsh:
				if is32 {
					res = uint64(uint32(int32(uint32(dst)) >> (src & 31)))
				} else {
					res = uint64(int64(dst) >> (src & 63))
				}
			case ALUNeg:
				res = -dst
			case ALUMov:
				res = src
			default:
				return 0, fmt.Errorf("%w: alu op %#x", ErrBadInstruction, ins.Op)
			}
			if is32 {
				res = uint64(uint32(res))
			}
			r[ins.Dst] = res
			pc++

		case ClassJMP, ClassJMP32:
			op := ins.Op & 0xf0
			if op == JmpExit {
				return r[R0], nil
			}
			if op == JmpCall {
				h, ok := vm.helpers[ins.Imm]
				if !ok {
					return 0, fmt.Errorf("%w: id %d", ErrUnknownHelper, ins.Imm)
				}
				vm.HelperCalls++
				ret, err := h.Fn(vm, [5]uint64{r[R1], r[R2], r[R3], r[R4], r[R5]})
				if err != nil {
					return 0, fmt.Errorf("ebpf: helper %s: %w", h.Name, err)
				}
				r[R0] = ret
				// r1-r5 are clobbered by calls.
				r[R1], r[R2], r[R3], r[R4], r[R5] = 0, 0, 0, 0, 0
				pc++
				continue
			}
			var src uint64
			if ins.Op&SrcReg != 0 {
				src = r[ins.Src]
			} else {
				src = uint64(int64(ins.Imm))
			}
			dst := r[ins.Dst]
			sdst, ssrc := int64(dst), int64(src)
			if ins.Class() == ClassJMP32 {
				dst = uint64(uint32(dst))
				src = uint64(uint32(src))
				sdst, ssrc = int64(int32(dst)), int64(int32(src))
			}
			var taken bool
			switch op {
			case JmpA:
				taken = true
			case JmpEq:
				taken = dst == src
			case JmpNe:
				taken = dst != src
			case JmpGt:
				taken = dst > src
			case JmpGe:
				taken = dst >= src
			case JmpLt:
				taken = dst < src
			case JmpLe:
				taken = dst <= src
			case JmpSet:
				taken = dst&src != 0
			case JmpSGt:
				taken = sdst > ssrc
			case JmpSGe:
				taken = sdst >= ssrc
			case JmpSLt:
				taken = sdst < ssrc
			case JmpSLe:
				taken = sdst <= ssrc
			default:
				return 0, fmt.Errorf("%w: jmp op %#x", ErrBadInstruction, ins.Op)
			}
			if taken {
				pc = vm.targets[pc]
			} else {
				pc++
			}

		case ClassLD:
			if !ins.IsLDDW() {
				return 0, fmt.Errorf("%w: ld op %#x", ErrBadInstruction, ins.Op)
			}
			r[ins.Dst] = uint64(ins.Imm64)
			pc++

		case ClassLDX:
			v, err := vm.memLoad(r[ins.Src]+uint64(int64(ins.Off)), ins.SizeBytes())
			if err != nil {
				return 0, err
			}
			r[ins.Dst] = v
			pc++

		case ClassSTX:
			if ins.IsAtomic() {
				size := ins.SizeBytes()
				if size != 4 && size != 8 {
					return 0, fmt.Errorf("%w: atomic width %d", ErrBadInstruction, size)
				}
				addr := r[ins.Dst] + uint64(int64(ins.Off))
				old, err := vm.memLoad(addr, size)
				if err != nil {
					return 0, err
				}
				src := r[ins.Src]
				if size == 4 {
					src = uint64(uint32(src))
				}
				var newVal uint64
				writeBack := true
				switch ins.Imm {
				case AtomicAdd, AtomicAdd | AtomicFetch:
					newVal = old + src
				case AtomicOr, AtomicOr | AtomicFetch:
					newVal = old | src
				case AtomicAnd, AtomicAnd | AtomicFetch:
					newVal = old & src
				case AtomicXor, AtomicXor | AtomicFetch:
					newVal = old ^ src
				case AtomicXchg:
					newVal = src
				case AtomicCmpXchg:
					cmp := r[R0]
					if size == 4 {
						cmp = uint64(uint32(cmp))
					}
					if old == cmp {
						newVal = src
					} else {
						writeBack = false
					}
					r[R0] = old
				default:
					return 0, fmt.Errorf("%w: atomic op %#x", ErrBadInstruction, ins.Imm)
				}
				if writeBack {
					if err := vm.memStore(addr, size, newVal); err != nil {
						return 0, err
					}
				}
				if ins.Imm&AtomicFetch != 0 && ins.Imm != AtomicCmpXchg {
					r[ins.Src] = old
				}
				pc++
				continue
			}
			if err := vm.memStore(r[ins.Dst]+uint64(int64(ins.Off)), ins.SizeBytes(), r[ins.Src]); err != nil {
				return 0, err
			}
			pc++

		case ClassST:
			if err := vm.memStore(r[ins.Dst]+uint64(int64(ins.Off)), ins.SizeBytes(), uint64(int64(ins.Imm))); err != nil {
				return 0, err
			}
			pc++

		default:
			return 0, fmt.Errorf("%w: class %#x", ErrBadInstruction, ins.Op)
		}
	}
}

// EvalALU is the value ALU operation op (ALUAdd … ALUArsh, the opcode's
// high nibble) leaves in its destination register given the register's
// old value dst and the operand src, at 32 or 64 bits. A 32-bit
// operation sees only the low halves of both and zero-extends its
// result. ok is false exactly where Run answers ErrBadInstruction; byte
// swaps (IsEndian) are not ALU operations and are not evaluated here.
//
// Run keeps its own inline copy of this switch because a call per
// instruction costs BenchmarkVM 8–14 % (DESIGN §6);
// TestEvalMatchesInterpreter holds the two together, and everything
// else that needs the exact result of an instruction — the verifier's
// constant tracking, ehdl's constant folding — calls this.
func EvalALU(op uint8, is32 bool, dst, src uint64) (res uint64, ok bool) {
	mask := shiftMask(is32)
	if is32 {
		dst, src = uint64(uint32(dst)), uint64(uint32(src))
	}
	switch op {
	case ALUAdd:
		res = dst + src
	case ALUSub:
		res = dst - src
	case ALUMul:
		res = dst * src
	case ALUDiv:
		if src != 0 { // ISA-defined: division by zero yields 0
			res = dst / src
		}
	case ALUMod:
		res = dst // ISA-defined: modulo by zero keeps dst
		if src != 0 {
			res = dst % src
		}
	case ALUOr:
		res = dst | src
	case ALUAnd:
		res = dst & src
	case ALUXor:
		res = dst ^ src
	case ALULsh:
		res = dst << (src & mask)
	case ALURsh:
		res = dst >> (src & mask)
	case ALUArsh:
		if is32 {
			res = uint64(int32(dst) >> (src & mask))
		} else {
			res = uint64(int64(dst) >> (src & mask))
		}
	case ALUNeg:
		res = -dst
	case ALUMov:
		res = src
	default:
		return 0, false
	}
	if is32 {
		res = uint64(uint32(res))
	}
	return res, true
}

// shiftMask is what a shift at the given width ANDs its count with.
func shiftMask(is32 bool) uint64 {
	if is32 {
		return 31
	}
	return 63
}

// EvalJump reports whether branch operation op (JmpA … JmpSLe) is taken
// when it compares dst with src; a JMP32 branch compares the low halves,
// sign-extended from bit 31 for the signed orders. ok is false where Run
// answers ErrBadInstruction, and for call and exit, which do not branch.
// Like EvalALU it is pinned to Run's inline switch by
// TestEvalMatchesInterpreter.
func EvalJump(op uint8, is32 bool, dst, src uint64) (taken, ok bool) {
	sdst, ssrc := int64(dst), int64(src)
	if is32 {
		dst, src = uint64(uint32(dst)), uint64(uint32(src))
		sdst, ssrc = int64(int32(dst)), int64(int32(src))
	}
	switch op {
	case JmpA:
		return true, true
	case JmpEq:
		return dst == src, true
	case JmpNe:
		return dst != src, true
	case JmpGt:
		return dst > src, true
	case JmpGe:
		return dst >= src, true
	case JmpLt:
		return dst < src, true
	case JmpLe:
		return dst <= src, true
	case JmpSet:
		return dst&src != 0, true
	case JmpSGt:
		return sdst > ssrc, true
	case JmpSGe:
		return sdst >= ssrc, true
	case JmpSLt:
		return sdst < ssrc, true
	case JmpSLe:
		return sdst <= ssrc, true
	}
	return false, false
}

func (vm *VM) registerBuiltins() {
	vm.RegisterHelper(HelperMapLookup, Helper{Name: "map_lookup_elem", Fn: func(vm *VM, a [5]uint64) (uint64, error) {
		m, err := vm.Maps.Get(int(a[0]))
		if err != nil {
			return 0, err
		}
		key, err := vm.helperArgBytes(m, a[1], m.KeySize())
		if err != nil {
			return 0, err
		}
		val, ok := m.Lookup(key)
		if !ok {
			return 0, nil
		}
		return vm.AddWindow(val, true), nil
	}})
	vm.RegisterHelper(HelperMapUpdate, Helper{Name: "map_update_elem", Fn: func(vm *VM, a [5]uint64) (uint64, error) {
		m, err := vm.Maps.Get(int(a[0]))
		if err != nil {
			return 0, err
		}
		key, err := vm.helperArgBytes(m, a[1], m.KeySize())
		if err != nil {
			return 0, err
		}
		val, err := vm.helperArgBytes(m, a[2], m.ValueSize())
		if err != nil {
			return 0, err
		}
		if err := m.Update(key, val); err != nil {
			return ^uint64(0), nil // -1: full or invalid
		}
		return 0, nil
	}})
	vm.RegisterHelper(HelperMapDelete, Helper{Name: "map_delete_elem", Fn: func(vm *VM, a [5]uint64) (uint64, error) {
		m, err := vm.Maps.Get(int(a[0]))
		if err != nil {
			return 0, err
		}
		key, err := vm.helperArgBytes(m, a[1], m.KeySize())
		if err != nil {
			return 0, err
		}
		if m.Delete(key) {
			return 0, nil
		}
		return ^uint64(0), nil
	}})
	vm.RegisterHelper(HelperKtime, Helper{Name: "ktime_get_ns", Fn: func(vm *VM, a [5]uint64) (uint64, error) {
		if vm.Now != nil {
			return vm.Now(), nil
		}
		vm.fakeNow++
		return vm.fakeNow, nil
	}})
	vm.RegisterHelper(HelperTrace, Helper{Name: "trace", Fn: func(vm *VM, a [5]uint64) (uint64, error) {
		if vm.Trace != nil {
			vm.Trace(a[0])
		}
		return 0, nil
	}})
}
