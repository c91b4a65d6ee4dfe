package gofront

import (
	"go/token"

	"hyperion/internal/ebpf"
)

// The typed IR sits between the AST and the instruction stream. It is
// deliberately shaped like eBPF — two-address ALU ops, load/store with
// displacement, conditional forward jumps — but over an unbounded set
// of virtual registers, so lowering never has to think about register
// pressure and the allocator never has to think about Go. Each IR
// instruction maps to exactly one eBPF instruction at emission, except
// vFrameAddr (two: mov+sub) — that 1:1 discipline is what makes the
// frontend's output predictable enough to differential-test against
// hand-written assembly instruction for instruction.

// vreg is a virtual register id. vNone marks an unused operand slot;
// vFP addresses the read-only frame pointer r10 directly.
type vreg int

const (
	vNone vreg = -1
	vFP   vreg = -2
)

type irOp uint8

const (
	opMovImm    irOp = iota // dst = imm
	opMovReg                // dst = src
	opALUImm                // dst = dst <alu> imm
	opALUReg                // dst = dst <alu> src
	opLoad                  // dst = *(size*)(base + off)
	opStore                 // *(size*)(base + off) = src
	opStoreImm              // *(size*)(base + off) = imm
	opFrameAddr             // dst = r10 - off (two instructions)
	opCall                  // call imm; args precolored r1.., result clobbers r0
	opJmp                   // if dst <cond> (src|imm) goto label; JmpA unconditional
	opLabel                 // jump target
	opRet                   // exit (return value precolored into r0 beforehand)
)

// irIns is one IR instruction. Operand use depends on op; pos points
// at the source construct for diagnostics.
type irIns struct {
	op   irOp
	alu  uint8 // ebpf.ALU* selector for opALU*
	jop  uint8 // ebpf.Jmp* selector for opJmp
	is32 bool  // 32-bit ALU class (wraps at 32 bits)
	size uint8 // ebpf.Size* for load/store
	dst  vreg
	src  vreg
	imm  int64
	off  int32 // load/store displacement, frame offset
	lbl  int   // opJmp target / opLabel id

	// coalesce marks a register move that exists only to name a call
	// result; it vanishes at emission when the allocator gives both
	// sides the same physical register.
	coalesce bool

	// Proof obligation: when boundLen > 0, the interval analysis must
	// prove value(boundReg) < boundLen at this point. On the move that
	// starts an address computation it is an array index against the
	// array's length; on a register shift, the count against the
	// operand's width. boundType is the array or operand type, for the
	// diagnostic.
	boundReg  vreg
	boundLen  int64
	boundType string

	// args lists a call's marshaled argument vregs (precolored r1..),
	// keeping them live up to the call for the allocator.
	args []vreg

	pos token.Pos
}

// sizeFor maps a byte width to the eBPF access size selector.
func sizeFor(bytes int) uint8 {
	switch bytes {
	case 1:
		return ebpf.SizeB
	case 2:
		return ebpf.SizeH
	case 4:
		return ebpf.SizeW
	default:
		return ebpf.SizeDW
	}
}
