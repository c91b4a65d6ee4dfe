// Package ebpf implements the accelerator-independent intermediate
// representation the paper proposes for programming Hyperion: the eBPF
// instruction set, a binary encoder/decoder, a two-pass assembler, an
// interpreter VM with maps and helper calls, and a static verifier in the
// spirit of the Linux verifier (simplified symbolic checks).
//
// The Linux kernel implementation is one of many possible eBPF execution
// environments; this package is another, and internal/ehdl is a third
// (compiling verified programs into simulated fabric pipelines).
package ebpf

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Register names r0..r10.
const (
	R0 uint8 = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10 // frame pointer, read-only
	NumRegs
)

// Instruction classes (low 3 bits of the opcode).
const (
	ClassLD    uint8 = 0x00
	ClassLDX   uint8 = 0x01
	ClassST    uint8 = 0x02
	ClassSTX   uint8 = 0x03
	ClassALU   uint8 = 0x04
	ClassJMP   uint8 = 0x05
	ClassJMP32 uint8 = 0x06
	ClassALU64 uint8 = 0x07
)

// Source bit: operand comes from a register rather than the immediate.
const SrcReg uint8 = 0x08

// ALU/JMP operation codes (high 4 bits).
const (
	ALUAdd  uint8 = 0x00
	ALUSub  uint8 = 0x10
	ALUMul  uint8 = 0x20
	ALUDiv  uint8 = 0x30
	ALUOr   uint8 = 0x40
	ALUAnd  uint8 = 0x50
	ALULsh  uint8 = 0x60
	ALURsh  uint8 = 0x70
	ALUNeg  uint8 = 0x80
	ALUMod  uint8 = 0x90
	ALUXor  uint8 = 0xa0
	ALUMov  uint8 = 0xb0
	ALUArsh uint8 = 0xc0

	JmpA    uint8 = 0x00
	JmpEq   uint8 = 0x10
	JmpGt   uint8 = 0x20
	JmpGe   uint8 = 0x30
	JmpSet  uint8 = 0x40
	JmpNe   uint8 = 0x50
	JmpSGt  uint8 = 0x60
	JmpSGe  uint8 = 0x70
	JmpCall uint8 = 0x80
	JmpExit uint8 = 0x90
	JmpLt   uint8 = 0xa0
	JmpLe   uint8 = 0xb0
	JmpSLt  uint8 = 0xc0
	JmpSLe  uint8 = 0xd0
)

// Memory access sizes (bits 3-4 for LD/ST classes).
const (
	SizeW  uint8 = 0x00 // 4 bytes
	SizeH  uint8 = 0x08 // 2 bytes
	SizeB  uint8 = 0x10 // 1 byte
	SizeDW uint8 = 0x18 // 8 bytes
)

// Memory access modes (bits 5-7 for LD/ST classes).
const (
	ModeIMM    uint8 = 0x00
	ModeMEM    uint8 = 0x60
	ModeATOMIC uint8 = 0xc0
)

// Endianness conversion (ALU class, op 0xd0; the source bit selects the
// target byte order and Imm selects the width).
const ALUEnd uint8 = 0xd0

// Atomic operation selectors (carried in Imm for ModeATOMIC).
const (
	AtomicAdd     int32 = 0x00
	AtomicOr      int32 = 0x40
	AtomicAnd     int32 = 0x50
	AtomicXor     int32 = 0xa0
	AtomicFetch   int32 = 0x01
	AtomicXchg    int32 = 0xe1
	AtomicCmpXchg int32 = 0xf1
)

// Instruction is one decoded eBPF instruction. LDDW (64-bit immediate)
// occupies two encoding slots but one Instruction with Imm64 set.
type Instruction struct {
	Op  uint8
	Dst uint8
	Src uint8
	Off int16
	Imm int32
	// Imm64 is the full immediate for LDDW.
	Imm64 int64
}

// Class returns the instruction class bits.
func (ins Instruction) Class() uint8 { return ins.Op & 0x07 }

// IsLDDW reports whether ins is the two-slot 64-bit load-immediate.
func (ins Instruction) IsLDDW() bool { return ins.Op == ClassLD|SizeDW|ModeIMM }

// isJmpClass reports whether ins is in the JMP or JMP32 class.
func (ins Instruction) isJmpClass() bool {
	cls := ins.Class()
	return cls == ClassJMP || cls == ClassJMP32
}

// IsJump reports whether ins is a branch to Off, conditional or not:
// any JMP/JMP32-class instruction other than call and exit.
func (ins Instruction) IsJump() bool {
	return ins.isJmpClass() && !ins.IsCall() && !ins.IsExit()
}

// IsCall reports whether ins is a helper call.
func (ins Instruction) IsCall() bool { return ins.isJmpClass() && ins.Op&0xf0 == JmpCall }

// IsExit reports whether ins ends the program.
func (ins Instruction) IsExit() bool { return ins.isJmpClass() && ins.Op&0xf0 == JmpExit }

// SizeBytes returns the memory access width for LD/ST instructions.
func (ins Instruction) SizeBytes() int {
	switch ins.Op & 0x18 {
	case SizeW:
		return 4
	case SizeH:
		return 2
	case SizeB:
		return 1
	case SizeDW:
		return 8
	}
	return 0
}

// Errors from encoding and decoding.
var (
	ErrTruncated = errors.New("ebpf: truncated instruction stream")
	ErrBadLDDW   = errors.New("ebpf: malformed lddw pair")
)

// Encode serializes a program to the 8-byte-per-slot eBPF wire format.
func Encode(prog []Instruction) []byte {
	var out []byte
	var buf [8]byte
	put := func(op, regs uint8, off int16, imm int32) {
		buf[0] = op
		buf[1] = regs
		binary.LittleEndian.PutUint16(buf[2:], uint16(off))
		binary.LittleEndian.PutUint32(buf[4:], uint32(imm))
		out = append(out, buf[:]...)
	}
	for _, ins := range prog {
		regs := ins.Dst&0x0f | (ins.Src&0x0f)<<4
		if ins.IsLDDW() {
			put(ins.Op, regs, ins.Off, int32(uint32(uint64(ins.Imm64))))
			put(0, 0, 0, int32(uint32(uint64(ins.Imm64)>>32)))
			continue
		}
		put(ins.Op, regs, ins.Off, ins.Imm)
	}
	return out
}

// Decode parses the wire format back into instructions.
func Decode(raw []byte) ([]Instruction, error) {
	if len(raw)%8 != 0 {
		return nil, ErrTruncated
	}
	var prog []Instruction
	for i := 0; i < len(raw); i += 8 {
		op := raw[i]
		ins := Instruction{
			Op:  op,
			Dst: raw[i+1] & 0x0f,
			Src: raw[i+1] >> 4,
			Off: int16(binary.LittleEndian.Uint16(raw[i+2:])),
			Imm: int32(binary.LittleEndian.Uint32(raw[i+4:])),
		}
		if ins.IsLDDW() {
			if i+16 > len(raw) {
				return nil, ErrBadLDDW
			}
			hi := binary.LittleEndian.Uint32(raw[i+12:])
			ins.Imm64 = int64(uint64(uint32(ins.Imm)) | uint64(hi)<<32)
			ins.Imm = 0 // the full immediate lives in Imm64
			i += 8
		}
		prog = append(prog, ins)
	}
	return prog, nil
}

// Convenience constructors used by the assembler, tests, and program
// builders. They read like the kernel's asm macros.

// Mov64Imm is dst = imm.
func Mov64Imm(dst uint8, imm int32) Instruction {
	return Instruction{Op: ClassALU64 | ALUMov, Dst: dst, Imm: imm}
}

// Mov64Reg is dst = src.
func Mov64Reg(dst, src uint8) Instruction {
	return Instruction{Op: ClassALU64 | ALUMov | SrcReg, Dst: dst, Src: src}
}

// ALU64Imm applies op (ALUAdd...) with an immediate operand.
func ALU64Imm(op, dst uint8, imm int32) Instruction {
	return Instruction{Op: ClassALU64 | op, Dst: dst, Imm: imm}
}

// ALU64Reg applies op with a register operand.
func ALU64Reg(op, dst, src uint8) Instruction {
	return Instruction{Op: ClassALU64 | op | SrcReg, Dst: dst, Src: src}
}

// LoadImm64 is the two-slot dst = imm64.
func LoadImm64(dst uint8, imm int64) Instruction {
	return Instruction{Op: ClassLD | SizeDW | ModeIMM, Dst: dst, Imm64: imm}
}

// LoadMem is dst = *(size*)(src + off).
func LoadMem(size, dst, src uint8, off int16) Instruction {
	return Instruction{Op: ClassLDX | size | ModeMEM, Dst: dst, Src: src, Off: off}
}

// StoreMem is *(size*)(dst + off) = src.
func StoreMem(size, dst, src uint8, off int16) Instruction {
	return Instruction{Op: ClassSTX | size | ModeMEM, Dst: dst, Src: src, Off: off}
}

// StoreImm is *(size*)(dst + off) = imm.
func StoreImm(size, dst uint8, off int16, imm int32) Instruction {
	return Instruction{Op: ClassST | size | ModeMEM, Dst: dst, Off: off, Imm: imm}
}

// JumpImm is a conditional jump comparing dst with an immediate.
func JumpImm(op, dst uint8, imm int32, off int16) Instruction {
	return Instruction{Op: ClassJMP | op, Dst: dst, Imm: imm, Off: off}
}

// JumpReg is a conditional jump comparing dst with src.
func JumpReg(op, dst, src uint8, off int16) Instruction {
	return Instruction{Op: ClassJMP | op | SrcReg, Dst: dst, Src: src, Off: off}
}

// Atomic builds an atomic read-modify-write on *(size*)(dst+off) with
// operand src. Only SizeW and SizeDW are legal.
func Atomic(size, dst, src uint8, off int16, op int32) Instruction {
	return Instruction{Op: ClassSTX | size | ModeATOMIC, Dst: dst, Src: src, Off: off, Imm: op}
}

// Endian converts dst to big- or little-endian at the given width
// (16/32/64), zero-filling above the width.
func Endian(dst uint8, big bool, width int32) Instruction {
	op := ClassALU | ALUEnd
	if big {
		op |= SrcReg
	}
	return Instruction{Op: op, Dst: dst, Imm: width}
}

// IsAtomic reports whether ins is an atomic memory operation.
func (ins Instruction) IsAtomic() bool {
	return ins.Class() == ClassSTX && ins.Op&0xe0 == ModeATOMIC
}

// IsEndian reports whether ins is a byte-order conversion.
func (ins Instruction) IsEndian() bool {
	return ins.Class() == ClassALU && ins.Op&0xf0 == ALUEnd
}

// Ja is an unconditional jump.
func Ja(off int16) Instruction { return Instruction{Op: ClassJMP | JmpA, Off: off} }

// Call invokes helper id.
func Call(id int32) Instruction { return Instruction{Op: ClassJMP | JmpCall, Imm: id} }

// Exit returns r0.
func Exit() Instruction { return Instruction{Op: ClassJMP | JmpExit} }

// String renders an instruction in assembler syntax.
func (ins Instruction) String() string {
	if s, err := disasmOne(ins); err == nil {
		return s
	}
	return fmt.Sprintf("raw{op=%#02x dst=r%d src=r%d off=%d imm=%d}", ins.Op, ins.Dst, ins.Src, ins.Off, ins.Imm)
}
