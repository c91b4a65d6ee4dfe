package ebpf

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// Verifier soundness (accepted ⇒ never faults), checked generatively:
// progGen emits a population in which most programs are unsafe, Verify
// picks the ones it believes, and every one of those must then run to
// its exit on the VM with no error at all.

// diffMaps builds the MapSet generated programs run against: a hash map
// (id 0) holding 0xfeed→0xbeef and an array map (id 1) with slot 1 = 77.
func diffMaps() *MapSet {
	ms := &MapSet{}
	h := NewHashMap(8, 8, 4)
	k := make([]byte, 8)
	v := make([]byte, 8)
	binary.LittleEndian.PutUint64(k, 0xfeed)
	binary.LittleEndian.PutUint64(v, 0xbeef)
	if err := h.Update(k, v); err != nil {
		panic(err)
	}
	ms.Add(h)
	a := NewArrayMap(8, 4)
	binary.LittleEndian.PutUint64(v, 77)
	ak := make([]byte, 4)
	binary.LittleEndian.PutUint32(ak, 1)
	if err := a.Update(ak, v); err != nil {
		panic(err)
	}
	ms.Add(a)
	return ms
}

// progGen generates random programs: forward-only control flow, a mix of
// ALU/endian/LDDW/memory/jump/call instructions, including faulting and
// chaotic ones (wild pointers, unknown helpers, reads of clobbered
// registers) that the verifier has to tell apart from the safe ones.
type progGen struct {
	rng     *rand.Rand
	ctxSize int
	guarded bool // the last program has a guardedAccess in it
}

var genALUOps = []uint8{ALUAdd, ALUSub, ALUMul, ALUDiv, ALUMod, ALUOr, ALUAnd, ALUXor, ALULsh, ALURsh, ALUArsh, ALUMov}

// gen builds one random program. Jumps are generated in instruction
// index space and fixed up to slot offsets afterwards (LDDW is two
// slots).
func (g *progGen) gen() []Instruction {
	r := g.rng
	g.guarded = false
	n := 4 + r.Intn(40)
	var prog []Instruction
	jumps := map[int]int{} // insn index -> target insn index, -1 for any later one (fixed up below)
	scratch := []uint8{R0, R2, R3, R4, R5, R6, R7, R8, R9}
	reg := func() uint8 { return scratch[r.Intn(len(scratch))] }
	sizes := []uint8{SizeB, SizeH, SizeW, SizeDW}
	// Seed a few scalars so early reg-reg ops have data.
	for _, d := range []uint8{R0, R3, R6} {
		prog = append(prog, Mov64Imm(d, int32(r.Uint32())))
	}
	for len(prog) < n {
		switch r.Intn(16) {
		case 0: // alu64 imm
			prog = append(prog, ALU64Imm(genALUOps[r.Intn(len(genALUOps))], reg(), int32(r.Uint32())))
		case 1: // alu64 reg
			op := genALUOps[r.Intn(len(genALUOps))]
			prog = append(prog, ALU64Reg(op, reg(), reg()))
		case 2: // alu32 imm / reg
			op := genALUOps[r.Intn(len(genALUOps))]
			ins := ALU64Imm(op, reg(), int32(r.Uint32()))
			ins.Op = ins.Op&^uint8(0x07) | ClassALU
			if r.Intn(2) == 0 {
				ins = ALU64Reg(op, reg(), reg())
				ins.Op = ins.Op&^uint8(0x07) | ClassALU
			}
			prog = append(prog, ins)
		case 3: // neg
			ins := ALU64Imm(ALUNeg, reg(), 0)
			if r.Intn(2) == 0 {
				ins.Op = ins.Op&^uint8(0x07) | ClassALU
			}
			prog = append(prog, ins)
		case 4: // lddw
			prog = append(prog, LoadImm64(reg(), int64(r.Uint64())))
		case 5: // endian
			widths := []int32{16, 32, 64}
			prog = append(prog, Endian(reg(), r.Intn(2) == 0, widths[r.Intn(3)]))
		case 6: // ctx load (usually in bounds; r1 may be clobbered by calls)
			sz := sizes[r.Intn(4)]
			off := int16(r.Intn(g.ctxSize))
			prog = append(prog, LoadMem(sz, reg(), R1, off))
		case 7: // consecutive ctx loads
			k := 2 + r.Intn(3)
			for j := 0; j < k; j++ {
				sz := sizes[r.Intn(4)]
				prog = append(prog, LoadMem(sz, reg(), R1, int16(r.Intn(g.ctxSize))))
			}
		case 8: // stack store + load back
			sz := sizes[r.Intn(4)]
			off := int16(-8 * (1 + r.Intn(8)))
			if r.Intn(2) == 0 {
				prog = append(prog, StoreMem(sz, R10, reg(), off))
			} else {
				prog = append(prog, StoreImm(sz, R10, off, int32(r.Uint32())))
			}
			prog = append(prog, LoadMem(sz, reg(), R10, off))
		case 9: // ctx store
			sz := sizes[r.Intn(4)]
			prog = append(prog, StoreMem(sz, R1, reg(), int16(r.Intn(g.ctxSize))))
		case 10: // forward conditional jump (target fixed up later)
			jumps[len(prog)] = -1
			ops := []uint8{JmpEq, JmpNe, JmpGt, JmpGe, JmpLt, JmpLe, JmpSet, JmpSGt, JmpSGe, JmpSLt, JmpSLe}
			op := ops[r.Intn(len(ops))]
			var ins Instruction
			if r.Intn(2) == 0 {
				ins = JumpImm(op, reg(), int32(r.Uint32()), 0)
			} else {
				ins = JumpReg(op, reg(), reg(), 0)
			}
			if r.Intn(4) == 0 {
				ins.Op = ins.Op&^uint8(0x07) | ClassJMP32
			}
			prog = append(prog, ins)
		case 11: // ja (forward)
			jumps[len(prog)] = -1
			prog = append(prog, Ja(0))
		case 12: // helper call
			ids := []int32{HelperKtime, HelperTrace, HelperKtime, HelperTrace, 99}
			id := ids[r.Intn(len(ids))]
			prog = append(prog, Call(id))
		case 13: // map op macro: key on stack, call lookup/update/delete
			var kimm int32
			if r.Intn(2) == 0 {
				kimm = 0xfeed // hits the seeded entry
			} else {
				kimm = int32(r.Intn(8))
			}
			prog = append(prog,
				StoreImm(SizeDW, R10, -8, kimm),
				StoreImm(SizeDW, R10, -16, int32(r.Uint32())),
				Mov64Imm(R1, int32(r.Intn(2))),
				Mov64Reg(R2, R10),
				ALU64Imm(ALUAdd, R2, -8),
			)
			id := []int32{HelperMapLookup, HelperMapUpdate, HelperMapDelete}[r.Intn(3)]
			if id == HelperMapUpdate {
				prog = append(prog, Mov64Reg(R3, R10), ALU64Imm(ALUAdd, R3, -16))
			}
			prog = append(prog, Call(id))
			if id == HelperMapLookup && r.Intn(2) == 0 {
				// Null-checked deref of the returned value.
				jumps[len(prog)] = -1
				prog = append(prog, JumpImm(JmpEq, R0, 0, 0), LoadMem(SizeDW, R0, R0, 0))
			}
		case 14, 15:
			prog = g.guardedAccess(prog, jumps)
		}
	}
	prog = append(prog, Mov64Imm(R0, int32(r.Intn(100))), Exit())
	// Fix up jumps: pick forward targets, then convert instruction
	// indexes to slot-relative offsets.
	slotOf := make([]int, len(prog)+1)
	for i, ins := range prog {
		slotOf[i+1] = slotOf[i] + 1
		if ins.IsLDDW() {
			slotOf[i+1]++
		}
	}
	for i, target := range jumps {
		if target < 0 {
			target = i + 1 + r.Intn(len(prog)-i-1)
		}
		prog[i].Off = int16(slotOf[target] - slotOf[i] - 1)
	}
	return prog
}

// guardedAccess appends the shape Refine exists for: a bounded scalar,
// a register-register (or immediate) guard that jumps over the rest
// unless the scalar is at most some other bounded scalar, and then the
// scalar added to a context, stack or map-value pointer and that
// dereferenced. Whether the access fits its region is left to chance,
// as is whether the guard points the right way, so the verifier has to
// work out the bound on the surviving edge to tell the safe ones apart.
func (g *progGen) guardedAccess(prog []Instruction, jumps map[int]int) []Instruction {
	r := g.rng
	g.guarded = true
	// Callee-saved, so the refined index survives the map case's call.
	saved := []uint8{R6, R7, R8, R9}
	r.Shuffle(len(saved), func(i, j int) { saved[i], saved[j] = saved[j], saved[i] })
	idx, lim, ptr, dst := saved[0], saved[1], saved[2], saved[3]
	ctxByte := func(reg uint8) Instruction { return LoadMem(SizeB, reg, R1, int16(r.Intn(g.ctxSize))) }

	if r.Intn(2) == 0 {
		prog = append(prog, ctxByte(idx))
	} else {
		prog = append(prog, ALU64Imm(ALUAnd, idx, int32(r.Intn(64))))
	}
	var guards []int
	guard := func(ins Instruction) {
		guards = append(guards, len(prog))
		prog = append(prog, ins)
	}
	bound := int32(r.Intn(g.ctxSize))
	switch r.Intn(4) {
	case 0: // against an immediate
		guard(JumpImm(JmpGt, idx, bound, 0))
	case 1: // against a masked register
		prog = append(prog, ctxByte(lim), ALU64Imm(ALUAnd, lim, bound))
		guard(JumpReg(JmpGt, idx, lim, 0))
	case 2: // the same, compared from the other side
		prog = append(prog, ctxByte(lim), ALU64Imm(ALUAnd, lim, bound))
		guard(JumpReg(JmpLe, lim, idx, 0))
	case 3: // a guard that lets the large values through, or none at all
		if r.Intn(2) == 0 {
			guard(JumpReg(JmpLt, idx, lim, 0))
		}
	}
	sz := []uint8{SizeB, SizeH, SizeW, SizeDW}[r.Intn(4)]
	switch r.Intn(3) {
	case 0: // context
		prog = append(prog, Mov64Reg(ptr, R1), ALU64Reg(ALUAdd, ptr, idx))
		off := int16(r.Intn(g.ctxSize / 2))
		if r.Intn(2) == 0 {
			prog = append(prog, LoadMem(sz, dst, ptr, off))
		} else {
			prog = append(prog, StoreMem(sz, ptr, idx, off))
		}
	case 1: // stack, over bytes initialised first
		slots := 1 + r.Intn(8)
		for i := 1; i <= slots; i++ {
			prog = append(prog, StoreImm(SizeDW, R10, int16(-8*i), int32(r.Uint32())))
		}
		prog = append(prog, Mov64Reg(ptr, R10), ALU64Imm(ALUAdd, ptr, int32(-8*slots)),
			ALU64Reg(ALUAdd, ptr, idx), LoadMem(sz, dst, ptr, 0))
	case 2: // map value, null-checked
		prog = append(prog,
			StoreImm(SizeDW, R10, -8, []int32{0xfeed, 1}[r.Intn(2)]),
			Mov64Imm(R1, int32(r.Intn(2))), Mov64Reg(R2, R10), ALU64Imm(ALUAdd, R2, -8),
			Call(HelperMapLookup))
		guard(JumpImm(JmpEq, R0, 0, 0))
		prog = append(prog, ALU64Reg(ALUAdd, R0, idx), LoadMem(sz, dst, R0, 0))
	}
	for _, i := range guards {
		jumps[i] = len(prog)
	}
	return prog
}

// TestVerifierSoundness runs every generated program the verifier
// accepts, repeatedly on one VM (later runs see the maps the earlier
// ones left behind): over a context of large bytes, a random one, and
// one of every small constant byte, which is what walks a guarded index
// up to and onto its limit. It fails on any runtime error: a bad memory access, an
// unsupported instruction, falling off the end, the step limit, an
// unknown helper or a helper's own error all mean Verify accepted
// something it could not vouch for. A seed that finds one is a verifier
// bug: fix the verifier and commit the program as a regression case.
func TestVerifierSoundness(t *testing.T) {
	const (
		seeds  = 8
		rounds = 4000
	)
	for seed := int64(0); seed < seeds; seed++ {
		g := &progGen{rng: rand.New(rand.NewSource(0x5eed + seed)), ctxSize: 48}
		ctx := make([]byte, g.ctxSize)
		cfg := DefaultVerifierConfig(diffMaps())
		cfg.CtxSize = g.ctxSize
		fills := []func(j int) byte{
			func(j int) byte { return byte(255 - j) },
			func(int) byte { return byte(g.rng.Intn(256)) },
		}
		for v := 0; v <= g.ctxSize; v++ {
			v := v
			fills = append(fills, func(int) byte { return byte(v) })
		}
		accepted, guarded := 0, 0
		for i := 0; i < rounds; i++ {
			prog := g.gen()
			if Verify(prog, cfg) != nil {
				continue
			}
			accepted++
			if g.guarded {
				guarded++
			}
			vm := NewVM(diffMaps())
			if err := vm.Load(prog); err != nil {
				t.Fatalf("seed %d program %d: verified program failed to load: %v\n%s", seed, i, err, Disassemble(prog))
			}
			for run, fill := range fills {
				for j := range ctx {
					ctx[j] = fill(j)
				}
				vm.ResetWindows()
				if _, err := vm.Run(ctx); err != nil {
					t.Fatalf("seed %d program %d run %d: verified program faulted: %v\n%s", seed, i, run, err, Disassemble(prog))
				}
			}
		}
		if accepted < 50 || guarded < 10 {
			t.Fatalf("seed %d: verifier accepted only %d/%d generated programs, %d with a guarded variable-offset access; generator too chaotic for this test to mean anything", seed, accepted, rounds, guarded)
		}
		t.Logf("seed %d: accepted %d/%d, %d with a guarded variable-offset access", seed, accepted, rounds, guarded)
	}
}
