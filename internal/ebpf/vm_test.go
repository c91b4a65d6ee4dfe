package ebpf

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

func run(t *testing.T, src string, ctx []byte) uint64 {
	t.Helper()
	vm := NewVM(nil)
	if err := vm.Load(MustAssemble(src)); err != nil {
		t.Fatal(err)
	}
	got, err := vm.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestALUSemantics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want uint64
	}{
		{"add", "mov r0, 2\nadd r0, 3\nexit", 5},
		{"sub_negative", "mov r0, 2\nsub r0, 5\nexit", ^uint64(2)}, // -3
		{"mul", "mov r0, 7\nmul r0, 6\nexit", 42},
		{"div", "mov r0, 42\nmov r1, 5\ndiv r0, r1\nexit", 8},
		{"div_by_zero_yields_zero", "mov r0, 42\nmov r1, 0\ndiv r0, r1\nexit", 0},
		{"div_by_zero_imm", "mov r0, 42\ndiv r0, 0\nexit", 0},
		{"div32_by_zero_yields_zero", "lddw r0, 0x10000002a\nmov r1, 0\ndiv32 r0, r1\nexit", 0},
		{"div32_ignores_high_bits", "mov r0, 8\nlddw r1, 0x100000002\ndiv32 r0, r1\nexit", 4},
		{"mod", "mov r0, 42\nmod r0, 5\nexit", 2},
		{"mod_by_zero_keeps_dst", "mov r0, 42\nmov r1, 0\nmod r0, r1\nexit", 42},
		{"mod_by_zero_imm", "mov r0, 42\nmod r0, 0\nexit", 42},
		{"mod32_by_zero_truncates_dst", "lddw r0, 0x10000002a\nmov r1, 0\nmod32 r0, r1\nexit", 0x2a},
		{"and", "mov r0, 0xff\nand r0, 0x0f\nexit", 0x0f},
		{"or", "mov r0, 0xf0\nor r0, 0x0f\nexit", 0xff},
		{"xor_self", "mov r0, 123\nxor r0, r0\nexit", 0},
		{"lsh", "mov r0, 1\nlsh r0, 40\nexit", 1 << 40},
		{"lsh_masked", "mov r0, 1\nlsh r0, 64\nexit", 1}, // shift & 63
		{"lsh_reg_masked", "mov r0, 1\nmov r1, 65\nlsh r0, r1\nexit", 2},
		{"lsh32_reg_masked", "mov r0, 1\nmov r1, 33\nlsh32 r0, r1\nexit", 2}, // shift & 31
		{"rsh", "mov r0, 256\nrsh r0, 4\nexit", 16},
		{"arsh_sign", "mov r0, -8\narsh r0, 1\nexit", ^uint64(3)}, // -4
		{"neg", "mov r0, 5\nneg r0\nexit", ^uint64(4)},            // -5
		{"mov32_truncates", "lddw r1, 0x1ffffffff\nmov32 r0, r1\nexit", 0xffffffff},
		{"add32_wraps", "mov32 r0, -1\nadd32 r0, 1\nexit", 0},
		{"sub32_mul32", "mov32 r0, 0\nsub32 r0, -7\nmul32 r0, 3\nexit", 21},
		{"lddw_add_wraps", "lddw r0, 0x123456789abcdef0\nlddw r1, -1\nadd r0, r1\nexit", 0x123456789abcdeef},
		{"arsh32", "mov32 r0, -16\narsh32 r0, 2\nexit", 0xfffffffc},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := run(t, c.src, nil); got != c.want {
				t.Fatalf("got %#x, want %#x", got, c.want)
			}
		})
	}
}

func TestJumpTargets(t *testing.T) {
	// Slots: ja=0, lddw=1,2, mov=3, exit=4.
	prog := func(off int16) []Instruction {
		return []Instruction{Ja(off), LoadImm64(R0, 1), Mov64Imm(R0, 0), Exit()}
	}
	for _, c := range []struct {
		off  int16
		want int // instruction index, or -1 for "rejected"
	}{
		{0, 1},   // the lddw
		{1, -1},  // the lddw's second slot
		{2, 2},   // over the lddw
		{3, 3},   // the exit
		{4, -1},  // one past the end
		{-1, 0},  // itself (the verifier rejects the back-edge, not the resolver)
		{-2, -1}, // before the start
	} {
		targets, err := JumpTargets(prog(c.off))
		switch {
		case c.want < 0 && err == nil:
			t.Errorf("ja %+d: resolved to %d, want an error", c.off, targets[0])
		case c.want >= 0 && err != nil:
			t.Errorf("ja %+d: %v", c.off, err)
		case c.want >= 0 && (targets[0] != c.want || targets[1] != -1 || targets[3] != -1):
			t.Errorf("ja %+d: targets = %v, want [%d -1 -1 -1]", c.off, targets, c.want)
		}
	}
}

// evalOperands is the operand set the Eval functions are compared to
// the interpreter over: the shift-count and width boundaries, and what
// they look like negated.
func evalOperands() []uint64 {
	base := []uint64{0, 1, 31, 32, 33, 63, 64, 1 << 31, 1 << 32, 1 << 63, ^uint64(0)}
	seen := map[uint64]bool{}
	var out []uint64
	for _, v := range base {
		for _, w := range []uint64{v, -v} {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	return out
}

// TestEvalMatchesInterpreter pins EvalALU and EvalJump to Run's inline
// switches, which are the semantics: every opcode nibble at both
// widths, in register and (where the operand fits one) immediate form,
// over evalOperands. Where Run rejects the opcode the functions must
// report "not an op", and nowhere else.
func TestEvalMatchesInterpreter(t *testing.T) {
	operands := evalOperands()
	ctx := make([]byte, 16)
	load := LoadMem(SizeDW, R6, R1, 0)
	loadSrc := LoadMem(SizeDW, R7, R1, 8)

	// interp runs prog on (dst, src) and reports r0, or ok=false when
	// the instruction under test is one Run does not implement.
	interp := func(t *testing.T, vm *VM, dst, src uint64) (r0 uint64, ok bool) {
		t.Helper()
		binary.LittleEndian.PutUint64(ctx[0:], dst)
		binary.LittleEndian.PutUint64(ctx[8:], src)
		r0, err := vm.Run(ctx)
		if errors.Is(err, ErrBadInstruction) {
			return 0, false
		}
		if err != nil {
			t.Fatal(err)
		}
		return r0, true
	}
	vmFor := func(t *testing.T, prog ...Instruction) *VM {
		t.Helper()
		vm := NewVM(nil)
		if err := vm.Load(prog); err != nil {
			t.Fatal(err)
		}
		return vm
	}
	// forms yields the instruction under test in register form, then in
	// immediate form for every operand that fits one.
	forms := func(op uint8, visit func(ins Instruction, srcs []uint64)) {
		visit(Instruction{Op: op | SrcReg, Dst: R6, Src: R7}, operands)
		for _, src := range operands {
			if int64(src) == int64(int32(src)) {
				visit(Instruction{Op: op, Dst: R6, Imm: int32(src)}, []uint64{src})
			}
		}
	}

	for nibble := 0; nibble < 16; nibble++ {
		op := uint8(nibble << 4)
		for _, cls := range []uint8{ClassALU64, ClassALU} {
			is32 := cls == ClassALU
			if is32 && op == ALUEnd {
				// A byte swap, not an ALU operation (IsEndian).
				if _, ok := EvalALU(op, is32, 1, 1); ok {
					t.Errorf("EvalALU evaluates the endian opcode")
				}
				continue
			}
			forms(cls|op, func(ins Instruction, srcs []uint64) {
				vm := vmFor(t, load, loadSrc, ins, Mov64Reg(R0, R6), Exit())
				for _, dst := range operands {
					for _, src := range srcs {
						want, wantOK := interp(t, vm, dst, src)
						got, ok := EvalALU(op, is32, dst, src)
						if ok != wantOK || got != want {
							t.Fatalf("%v with dst=%#x src=%#x: EvalALU = %#x, %v; Run = %#x, %v",
								ins, dst, src, got, ok, want, wantOK)
						}
					}
				}
			})
		}
		for _, cls := range []uint8{ClassJMP, ClassJMP32} {
			is32 := cls == ClassJMP32
			if op == JmpCall || op == JmpExit {
				if _, ok := EvalJump(op, is32, 1, 1); ok {
					t.Errorf("EvalJump evaluates op %#x, which is not a branch", op)
				}
				continue
			}
			forms(cls|op, func(ins Instruction, srcs []uint64) {
				ins.Off = 1 // taken skips the "mov r0, 0"
				vm := vmFor(t, load, loadSrc, Mov64Imm(R0, 1), ins, Mov64Imm(R0, 0), Exit())
				for _, dst := range operands {
					for _, src := range srcs {
						want, wantOK := interp(t, vm, dst, src)
						got, ok := EvalJump(op, is32, dst, src)
						if ok != wantOK || got != (want == 1) {
							t.Fatalf("%v with dst=%#x src=%#x: EvalJump = %v, %v; Run = %v, %v",
								ins, dst, src, got, ok, want == 1, wantOK)
						}
					}
				}
			})
		}
	}
}

func TestJumpSemantics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want uint64
	}{
		{"jsgt_signed", "mov r1, -1\nmov r0, 0\njsgt r1, 0, bad\nmov r0, 1\nja out\nbad: mov r0, 2\nout: exit", 1},
		{"jgt_unsigned", "mov r1, -1\nmov r0, 0\njgt r1, 0, big\nja out\nbig: mov r0, 1\nout: exit", 1},
		{"jset", "mov r1, 0b1010\nmov r0, 0\njset r1, 0b0010, hit\nja out\nhit: mov r0, 1\nout: exit", 1},
		{"jsgt32_sign_extends", "mov32 r1, -5\nmov r0, 0\njsgt32 r1, 3, bad\nmov r0, 1\nja out\nbad: mov r0, 2\nout: exit", 1},
		{"jslt32_ignores_high_bits", "lddw r1, 0x100000005\nmov r0, 0\njslt32 r1, 3, bad\nmov r0, 1\nja out\nbad: mov r0, 2\nout: exit", 1},
		{"jeq32_ignores_high_bits", "lddw r1, 0x100000005\nmov r0, 0\njeq32 r1, 5, hit\nja out\nhit: mov r0, 1\nout: exit", 1},
		{"jle_chain", "mov r1, 3\nmov r0, 0\njle r1, 3, a\nja out\na: jge r1, 3, b\nja out\nb: mov r0, 9\nout: exit", 9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := run(t, c.src, nil); got != c.want {
				t.Fatalf("got %d, want %d", got, c.want)
			}
		})
	}
}

func TestMemoryAndContext(t *testing.T) {
	ctx := make([]byte, 16)
	binary.LittleEndian.PutUint32(ctx[4:], 0xcafebabe)
	got := run(t, `
		ldxw r0, [r1+4]
		exit
	`, ctx)
	if got != 0xcafebabe {
		t.Fatalf("ctx read = %#x", got)
	}
	// Context writes are visible to the embedder (packet rewriting).
	vm := NewVM(nil)
	_ = vm.Load(MustAssemble(`
		stw [r1+0], 7
		mov r0, 0
		exit
	`))
	buf := make([]byte, 8)
	if _, err := vm.Run(buf); err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint32(buf) != 7 {
		t.Fatalf("ctx write not visible: %v", buf)
	}
}

func TestStackByteSizes(t *testing.T) {
	got := run(t, `
		stdw [r10-8], 0x1122334455667788
		ldxb r0, [r10-8]
		ldxh r1, [r10-8]
		ldxw r2, [r10-8]
		add r0, r1
		add r0, r2
		exit
	`, nil)
	want := uint64(0x88) + 0x7788 + 0x55667788
	if got != want {
		t.Fatalf("got %#x, want %#x", got, want)
	}
}

func TestOutOfBoundsAccessFails(t *testing.T) {
	vm := NewVM(nil)
	_ = vm.Load(MustAssemble("ldxdw r0, [r10+0]\nexit")) // above stack top
	if _, err := vm.Run(nil); !errors.Is(err, ErrBadMemAccess) {
		t.Fatalf("err = %v, want ErrBadMemAccess", err)
	}
	_ = vm.Load(MustAssemble("mov r2, 0\nldxdw r0, [r2+0]\nexit"))
	if _, err := vm.Run(nil); !errors.Is(err, ErrBadMemAccess) {
		t.Fatalf("null deref err = %v, want ErrBadMemAccess", err)
	}
}

// TestRunFaults pins each runtime error class, and the accounting at the
// point of the fault: the faulting instruction counts as a step, a
// helper that fails counts as a call, and an unsupported instruction
// faults only when execution reaches it.
func TestRunFaults(t *testing.T) {
	asm := MustAssemble
	badALU := Instruction{Op: ClassALU64 | 0xe0}
	cases := []struct {
		name      string
		prog      []Instruction
		wantErr   error // nil: the run must succeed and return wantRet
		wantText  string
		wantRet   uint64
		wantSteps int64
		wantCalls int64
	}{
		{name: "bad-mem-store", prog: asm("mov r2, 0x999\nstxdw [r2+0], r2\nexit"), wantErr: ErrBadMemAccess, wantSteps: 2},
		{name: "ctx-overrun", prog: asm("ldxdw r0, [r1+60]\nexit"), wantErr: ErrBadMemAccess, wantSteps: 1},
		{name: "fell-off-end", prog: asm("mov r0, 1\nadd r0, 1"), wantErr: ErrFellOffEnd, wantSteps: 2},
		{name: "fell-off-end-after-branch", prog: asm("mov r0, 5\njeq r0, 5, over\nexit\nover: mov r0, 6"), wantErr: ErrFellOffEnd, wantSteps: 3},
		{name: "unknown-helper", prog: asm("mov r0, 3\ncall 99\nexit"), wantErr: ErrUnknownHelper, wantSteps: 2},
		{name: "helper-bad-key-pointer", prog: asm("mov r1, 0\nmov r2, 0x42\ncall 1\nexit"),
			wantErr: ErrBadMemAccess, wantText: "ebpf: helper map_lookup_elem: ", wantSteps: 3, wantCalls: 1},
		{name: "helper-bad-map-id", prog: asm("stdw [r10-8], 1\nmov r1, 9\nmov r2, r10\nadd r2, -8\ncall 1\nexit"),
			wantText: "ebpf: helper map_lookup_elem: ebpf: no map with id 9", wantSteps: 5, wantCalls: 1},
		{name: "step-limit", prog: []Instruction{Ja(-1)}, wantErr: ErrStepLimit, wantSteps: StepLimit},
		{name: "bad-alu-op", prog: []Instruction{Mov64Imm(R0, 1), badALU, Exit()}, wantErr: ErrBadInstruction, wantSteps: 2},
		{name: "bad-endian-width", prog: []Instruction{Mov64Imm(R0, 1), Endian(R0, true, 48), Exit()}, wantErr: ErrBadInstruction, wantSteps: 2},
		{name: "bad-ld-mode", prog: []Instruction{Mov64Imm(R0, 1), {Op: ClassLD | SizeW | ModeMEM}, Exit()}, wantErr: ErrBadInstruction, wantSteps: 2},
		{name: "bad-atomic-width", prog: []Instruction{Mov64Imm(R0, 1), Atomic(SizeB, R10, R0, -8, AtomicAdd), Exit()}, wantErr: ErrBadInstruction, wantSteps: 2},
		{name: "bad-atomic-op", prog: []Instruction{Mov64Imm(R2, 1), StoreMem(SizeDW, R10, R2, -8), Atomic(SizeDW, R10, R2, -8, 0x33), Exit()},
			wantErr: ErrBadInstruction, wantSteps: 3},
		{name: "unreached-bad-op", prog: []Instruction{Mov64Imm(R0, 9), JumpImm(JmpEq, R0, 9, 1), badALU, Exit()}, wantRet: 9, wantSteps: 3},
		{name: "bounded-back-edge", prog: []Instruction{Mov64Imm(R0, 0), ALU64Imm(ALUAdd, R0, 1), JumpImm(JmpLt, R0, 3, -2), Exit()}, wantRet: 3, wantSteps: 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			vm := NewVM(diffMaps())
			if err := vm.Load(c.prog); err != nil {
				t.Fatal(err)
			}
			ret, err := vm.Run(make([]byte, 64))
			switch {
			case c.wantErr == nil && c.wantText == "":
				if err != nil || ret != c.wantRet {
					t.Fatalf("ret = %d, %v; want %d, nil", ret, err, c.wantRet)
				}
			case err == nil:
				t.Fatalf("ret = %d, nil; want an error", ret)
			case c.wantErr != nil && !errors.Is(err, c.wantErr):
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			case !strings.HasPrefix(err.Error(), c.wantText):
				t.Fatalf("err = %q, want prefix %q", err, c.wantText)
			}
			if vm.Steps != c.wantSteps || vm.TotalSteps != c.wantSteps || vm.HelperCalls != c.wantCalls {
				t.Fatalf("Steps = %d, TotalSteps = %d, HelperCalls = %d; want %d, %d, %d",
					vm.Steps, vm.TotalSteps, vm.HelperCalls, c.wantSteps, c.wantSteps, c.wantCalls)
			}
		})
	}
}

// TestBuiltinHelperResults covers the helper return values the hash-map
// walk-through above does not: a miss, an update refused because the map
// is full, and an array-map slot. diffMaps holds 0xfeed in a four-entry
// hash map (id 0) and 77 in slot 1 of an array map (id 1).
func TestBuiltinHelperResults(t *testing.T) {
	const update = "mov r1, 0\nmov r2, r10\nadd r2, -8\nmov r3, r10\nadd r3, -16\ncall 2\n"
	cases := []struct {
		name string
		src  string
		want uint64
	}{
		{"lookup_miss_is_null", "stdw [r10-8], 0xdead\nmov r1, 0\nmov r2, r10\nadd r2, -8\ncall 1\nexit", 0},
		{"update_full_is_minus_one", "stdw [r10-16], 2\n" +
			"stdw [r10-8], 1\n" + update + "stdw [r10-8], 3\n" + update + "stdw [r10-8], 4\n" + update +
			"mov r6, r0\nstdw [r10-8], 5\n" + update + "add r0, r6\nexit", ^uint64(0)},
		{"array_slot", "stw [r10-4], 1\nmov r1, 1\nmov r2, r10\nadd r2, -4\ncall 1\njne r0, 0, hit\nexit\nhit: ldxdw r0, [r0+0]\nexit", 77},
		{"array_index_out_of_range_is_null", "stw [r10-4], 4\nmov r1, 1\nmov r2, r10\nadd r2, -4\ncall 1\nexit", 0},
		{"ktime_counts_without_a_clock", "call 5\nmov r6, r0\ncall 5\nsub r0, r6\nexit", 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			vm := NewVM(diffMaps())
			if err := vm.Load(MustAssemble(c.src)); err != nil {
				t.Fatal(err)
			}
			if got, err := vm.Run(nil); err != nil || got != c.want {
				t.Fatalf("got %#x, %v; want %#x", got, err, c.want)
			}
		})
	}
}

func TestRunWithoutLoad(t *testing.T) {
	vm := NewVM(nil)
	if _, err := vm.Run(nil); !errors.Is(err, ErrNoProgram) {
		t.Fatalf("err = %v, want ErrNoProgram", err)
	}
}

func TestUnknownHelper(t *testing.T) {
	vm := NewVM(nil)
	_ = vm.Load(MustAssemble("call 999\nexit"))
	if _, err := vm.Run(nil); !errors.Is(err, ErrUnknownHelper) {
		t.Fatalf("err = %v, want ErrUnknownHelper", err)
	}
}

func TestCallClobbersR1toR5(t *testing.T) {
	vm := NewVM(nil)
	_ = vm.Load(MustAssemble(`
		mov r6, 11
		call 5
		mov r0, r6
		exit
	`))
	got, err := vm.Run(nil)
	if err != nil || got != 11 {
		t.Fatalf("callee-saved r6 = %d,%v", got, err)
	}
}

func TestHashMapHelpers(t *testing.T) {
	maps := &MapSet{}
	id := maps.Add(NewHashMap(4, 8, 16))
	vm := NewVM(maps)
	// Insert key=5 value=77 via helpers, then look it up and load it.
	src := `
		stw  [r10-4], 5        ; key
		stdw [r10-16], 77      ; value
		mov r1, MAPID
		mov r2, r10
		sub r2, 4
		mov r3, r10
		sub r3, 16
		call 2                 ; update
		jeq r0, 0, ok
		mov r0, 100
		exit
	ok:
		mov r1, MAPID
		mov r2, r10
		sub r2, 4
		call 1                 ; lookup
		jeq r0, 0, miss
		ldxdw r0, [r0+0]
		exit
	miss:
		mov r0, 200
		exit
	`
	src = replaceAll(src, "MAPID", itoa(id))
	_ = vm.Load(MustAssemble(src))
	got, err := vm.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 77 {
		t.Fatalf("lookup = %d, want 77", got)
	}

	// Delete and re-lookup: should miss.
	src2 := `
		stw [r10-4], 5
		mov r1, MAPID
		mov r2, r10
		sub r2, 4
		call 3                 ; delete
		mov r1, MAPID
		mov r2, r10
		sub r2, 4
		call 1
		jeq r0, 0, miss
		mov r0, 1
		exit
	miss:
		mov r0, 0
		exit
	`
	src2 = replaceAll(src2, "MAPID", itoa(id))
	_ = vm.Load(MustAssemble(src2))
	got, err = vm.Run(nil)
	if err != nil || got != 0 {
		t.Fatalf("after delete lookup = %d,%v want miss", got, err)
	}
}

func TestMapValueWriteThrough(t *testing.T) {
	// Writes through a looked-up map value pointer must persist in the
	// map (kernel semantics).
	maps := &MapSet{}
	m := NewHashMap(4, 8, 4)
	_ = m.Update([]byte{1, 0, 0, 0}, make([]byte, 8))
	id := maps.Add(m)
	vm := NewVM(maps)
	src := replaceAll(`
		stw [r10-4], 1
		mov r1, MAPID
		mov r2, r10
		sub r2, 4
		call 1
		jeq r0, 0, miss
		stdw [r0+0], 424242
		mov r0, 0
		exit
	miss:
		mov r0, 1
		exit
	`, "MAPID", itoa(id))
	_ = vm.Load(MustAssemble(src))
	got, err := vm.Run(nil)
	if err != nil || got != 0 {
		t.Fatalf("run = %d,%v", got, err)
	}
	v, ok := m.Lookup([]byte{1, 0, 0, 0})
	if !ok || binary.LittleEndian.Uint64(v) != 424242 {
		t.Fatalf("map not updated through pointer: %v", v)
	}
}

func TestKtimeHelperUsesClock(t *testing.T) {
	vm := NewVM(nil)
	vm.Now = func() uint64 { return 12345 }
	_ = vm.Load(MustAssemble("call 5\nexit"))
	got, err := vm.Run(nil)
	if err != nil || got != 12345 {
		t.Fatalf("ktime = %d,%v", got, err)
	}
}

func TestTraceHelper(t *testing.T) {
	vm := NewVM(nil)
	var traced []uint64
	vm.Trace = func(v uint64) { traced = append(traced, v) }
	_ = vm.Load(MustAssemble("mov r1, 7\ncall 6\nmov r0, 0\nexit"))
	if _, err := vm.Run(nil); err != nil {
		t.Fatal(err)
	}
	if len(traced) != 1 || traced[0] != 7 {
		t.Fatalf("traced = %v", traced)
	}
}

func TestCustomHelperAndWindows(t *testing.T) {
	vm := NewVM(nil)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	vm.RegisterHelper(HelperUserBase, Helper{Name: "get_block", Fn: func(vm *VM, a [5]uint64) (uint64, error) {
		return vm.AddWindow(data, false), nil
	}})
	_ = vm.Load(MustAssemble("call 64\nldxdw r0, [r0+0]\nexit"))
	got, err := vm.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != binary.LittleEndian.Uint64(data) {
		t.Fatalf("window read = %#x", got)
	}
	// Writing to a read-only window must fail.
	_ = vm.Load(MustAssemble("call 64\nstdw [r0+0], 1\nmov r0, 0\nexit"))
	vm.ResetWindows()
	if _, err := vm.Run(nil); !errors.Is(err, ErrBadMemAccess) {
		t.Fatalf("read-only write err = %v", err)
	}
}

func TestStepCounting(t *testing.T) {
	vm := NewVM(nil)
	_ = vm.Load(MustAssemble("mov r0, 1\nadd r0, 1\nexit"))
	if _, err := vm.Run(nil); err != nil {
		t.Fatal(err)
	}
	if vm.Steps != 3 {
		t.Fatalf("Steps = %d, want 3", vm.Steps)
	}
}

func TestStackIsolationBetweenRuns(t *testing.T) {
	vm := NewVM(nil)
	_ = vm.Load(MustAssemble("stdw [r10-8], 55\nmov r0, 0\nexit"))
	if _, err := vm.Run(nil); err != nil {
		t.Fatal(err)
	}
	_ = vm.Load(MustAssemble("ldxdw r0, [r10-8]\nexit"))
	got, err := vm.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("stack leaked between runs: %d", got)
	}
}

func replaceAll(s, old, new string) string {
	out := ""
	for {
		i := indexOf(s, old)
		if i < 0 {
			return out + s
		}
		out += s[:i] + new
		s = s[i+len(old):]
	}
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func BenchmarkVMArithmetic(b *testing.B) {
	vm := NewVM(nil)
	_ = vm.Load(MustAssemble(`
		mov r0, 0
		mov r1, 1
		add r0, r1
		mul r0, 3
		rsh r0, 1
		xor r0, 0x55
		exit
	`))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Run(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVMMapLookup(b *testing.B) {
	maps := &MapSet{}
	m := NewHashMap(4, 8, 1024)
	_ = m.Update([]byte{9, 0, 0, 0}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	id := maps.Add(m)
	vm := NewVM(maps)
	_ = vm.Load(MustAssemble(replaceAll(`
		stw [r10-4], 9
		mov r1, MAPID
		mov r2, r10
		sub r2, 4
		call 1
		mov r0, 0
		exit
	`, "MAPID", itoa(id))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.ResetWindows()
		if _, err := vm.Run(nil); err != nil {
			b.Fatal(err)
		}
	}
}
