package ebpf

import (
	"errors"
	"strings"
	"testing"
)

func verifySrc(t *testing.T, src string, cfg VerifierConfig) error {
	t.Helper()
	return Verify(MustAssemble(src), cfg)
}

func defCfg() VerifierConfig {
	maps := &MapSet{}
	maps.Add(NewHashMap(4, 8, 16))
	return DefaultVerifierConfig(maps)
}

func TestVerifyAcceptsGoodPrograms(t *testing.T) {
	good := map[string]string{
		"trivial": "mov r0, 0\nexit",
		"stack_rw": `
			stdw [r10-8], 42
			ldxdw r0, [r10-8]
			exit`,
		"ctx_read": `
			ldxw r0, [r1+0]
			exit`,
		"branches_merge": `
			ldxw r2, [r1+0]
			mov r0, 0
			jeq r2, 0, a
			mov r0, 1
		a:	exit`,
		"null_checked_map": `
			stw [r10-4], 1
			mov r1, 0
			mov r2, r10
			sub r2, 4
			call 1
			jeq r0, 0, miss
			ldxdw r0, [r0+0]
			exit
		miss:
			mov r0, 0
			exit`,
		"map_update": `
			stw [r10-4], 1
			stdw [r10-16], 9
			mov r1, 0
			mov r2, r10
			sub r2, 4
			mov r3, r10
			sub r3, 16
			call 2
			mov r0, 0
			exit`,
		"ktime": "call 5\nexit",
		"callee_saved": `
			mov r6, 3
			call 5
			mov r0, r6
			exit`,
		"ptr_plus_const": `
			mov r2, r10
			sub r2, 16
			stdw [r2+8], 1
			ldxdw r0, [r2+8]
			exit`,
	}
	cfg := defCfg()
	for name, src := range good {
		t.Run(name, func(t *testing.T) {
			if err := verifySrc(t, src, cfg); err != nil {
				t.Fatalf("rejected good program: %v", err)
			}
		})
	}
}

func TestVerifyRejectsBadPrograms(t *testing.T) {
	bad := map[string]struct {
		src  string
		frag string // expected error fragment
	}{
		"uninit_read":       {"mov r0, r3\nexit", "uninitialized r3"},
		"uninit_r0_exit":    {"mov r1, 1\nexit", "uninitialized r0"},
		"fall_off_end":      {"mov r0, 0", "fall off"},
		"backedge_loop":     {"start: mov r0, 0\nja start", "back-edge"},
		"cond_backedge":     {"mov r0, 10\nloop: sub r0, 1\njne r0, 0, loop\nexit", "back-edge"},
		"stack_overflow":    {"stdw [r10-520], 1\nmov r0, 0\nexit", "stack access"},
		"stack_above_top":   {"stdw [r10+8], 1\nmov r0, 0\nexit", "stack access"},
		"uninit_stack_read": {"ldxdw r0, [r10-8]\nexit", "uninitialized stack"},
		"ctx_oob":           {"ldxw r0, [r1+1024]\nexit", "ctx access"},
		"null_deref":        {"mov r1, 0\nstw [r10-4], 1\nmov r2, r10\nsub r2, 4\ncall 1\nldxdw r0, [r0+0]\nexit", "possibly-null"},
		"map_value_oob": {`
			stw [r10-4], 1
			mov r1, 0
			mov r2, r10
			sub r2, 4
			call 1
			jeq r0, 0, miss
			ldxdw r0, [r0+8]
			exit
		miss:
			mov r0, 0
			exit`, "map value access"},
		"scalar_deref":    {"mov r2, 1234\nldxdw r0, [r2+0]\nexit", "scalar"},
		"unknown_helper":  {"call 4095\nexit", "unknown or disallowed"},
		"ptr_leak_exit":   {"mov r0, r10\nexit", "pointer leak"},
		"write_r10":       {"mov r10, 0\nmov r0, 0\nexit", "read-only frame pointer"},
		"ptr_unknown_add": {"ldxw r3, [r1+0]\nmov r2, r10\nadd r2, r3\nstdw [r2-8], 1\nmov r0, 0\nexit", "unbounded scalar"},
		"ptr32_arith":     {"mov r2, r10\nadd32 r2, 4\nmov r0, 0\nexit", "32-bit arithmetic on a pointer"},
		// 32-bit ops see only the low operand halves and mask shift counts
		// with 31; a verifier that folds them at 64 bits believes r2 is 0
		// here while the VM computes 4.
		"div32_high_bits":  {"stdw [r10-8], 0\nmov r2, 8\nlddw r3, 0x100000002\ndiv32 r2, r3\nmov r4, r10\nadd r4, -8\nadd r4, r2\nldxdw r0, [r4+0]\nexit", "stack access"},
		"lsh32_count_mask": {"stdw [r10-8], 0\nmov r2, 2\nlsh32 r2, 33\nmov r4, r10\nadd r4, -8\nadd r4, r2\nldxdw r0, [r4+0]\nexit", "stack access"},
		"map_id_not_const": {"ldxw r1, [r1+0]\nmov r2, r10\nstw [r10-4], 1\nsub r2, 4\ncall 1\nmov r0, 0\nexit", "constant map id"},
		"clobbered_r1":     {"call 5\nldxw r0, [r1+0]\nexit", "uninitialized r1"},
		"bad_map_id":       {"stw [r10-4], 1\nmov r1, 99\nmov r2, r10\nsub r2, 4\ncall 1\nmov r0, 0\nexit", "no map with id"},
		"key_not_pointer":  {"mov r1, 0\nmov r2, 5\ncall 1\nmov r0, 0\nexit", "map key"},
		"unreachable_code": {"mov r0, 0\nexit\nmov r0, 1\nexit", "unreachable"},
	}
	cfg := defCfg()
	for name, c := range bad {
		t.Run(name, func(t *testing.T) {
			err := verifySrc(t, c.src, cfg)
			if err == nil {
				t.Fatal("accepted bad program")
			}
			if !errors.Is(err, ErrVerify) {
				t.Fatalf("error not wrapped in ErrVerify: %v", err)
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Fatalf("error %q does not mention %q", err, c.frag)
			}
		})
	}
}

// TestVerifyRejectsUnknownOpcodes: opcodes the VM faults on with
// ErrBadInstruction must not pass, whatever their operands look like.
func TestVerifyRejectsUnknownOpcodes(t *testing.T) {
	bad := map[string]Instruction{
		"alu64_0xe0":     {Op: ClassALU64 | 0xe0},
		"alu32_0xf0_reg": {Op: ClassALU | 0xf0 | SrcReg},
		"alu64_end":      {Op: ClassALU64 | ALUEnd, Imm: 16}, // byte swaps exist in the 32-bit class only
		"jmp_0xe0":       {Op: ClassJMP | 0xe0},
		"jmp32_0xf0":     {Op: ClassJMP32 | 0xf0},
	}
	for name, ins := range bad {
		t.Run(name, func(t *testing.T) {
			prog := []Instruction{Mov64Imm(R0, 1), ins, Exit()}
			err := Verify(prog, defCfg())
			if !errors.Is(err, ErrVerify) || !strings.Contains(err.Error(), "unknown") {
				t.Fatalf("err = %v, want an unknown-opcode rejection", err)
			}
			vm := NewVM(nil)
			if err := vm.Load(prog); err != nil {
				t.Fatal(err)
			}
			if _, err := vm.Run(nil); !errors.Is(err, ErrBadInstruction) {
				t.Fatalf("VM ran it: err = %v, want ErrBadInstruction", err)
			}
		})
	}
}

func TestVerifyEmptyAndHuge(t *testing.T) {
	if err := Verify(nil, defCfg()); err == nil {
		t.Fatal("accepted empty program")
	}
	huge := make([]Instruction, MaxInsns+1)
	for i := range huge {
		huge[i] = Mov64Imm(R0, 0)
	}
	huge[len(huge)-1] = Exit()
	if err := Verify(huge, defCfg()); err == nil {
		t.Fatal("accepted oversized program")
	}
}

func TestVerifyBranchRefinementBothOrders(t *testing.T) {
	// jne-based null check: pointer valid in the taken branch.
	src := `
		stw [r10-4], 1
		mov r1, 0
		mov r2, r10
		sub r2, 4
		call 1
		jne r0, 0, hit
		mov r0, 0
		exit
	hit:
		ldxdw r0, [r0+0]
		exit`
	if err := verifySrc(t, src, defCfg()); err != nil {
		t.Fatalf("jne refinement rejected: %v", err)
	}
}

func TestVerifyCustomHelperWindow(t *testing.T) {
	cfg := defCfg()
	cfg.Helpers = map[int32]HelperSig{
		HelperUserBase: {Name: "get_block", Ret: RetWindow, WindowSize: 64},
	}
	// Reading inside the window is fine; beyond it is rejected; writing
	// is rejected.
	if err := verifySrc(t, "call 64\nldxdw r0, [r0+56]\nexit", cfg); err != nil {
		t.Fatalf("in-bounds window read rejected: %v", err)
	}
	if err := verifySrc(t, "call 64\nldxdw r0, [r0+57]\nexit", cfg); err == nil {
		t.Fatal("out-of-bounds window read accepted")
	}
	if err := verifySrc(t, "call 64\nstdw [r0+0], 1\nmov r0, 0\nexit", cfg); err == nil {
		t.Fatal("window write accepted")
	}
}

func TestVerifyStateMergeWidensRanges(t *testing.T) {
	// r2 is 4 on one path and 8 on the other: the merged range [4,8]
	// may be used as a pointer offset only when the whole window stays
	// in bounds. Reading 8 bytes at r10-16+[4,8] can reach r10-0...
	// actually [-12,0): in bounds but conditionally initialized, so the
	// read of possibly-uninitialized stack must be rejected.
	src := `
		ldxw r3, [r1+0]
		mov r2, 4
		jeq r3, 0, skip
		mov r2, 8
	skip:
		mov r4, r10
		sub r4, 16
		add r4, r2
		ldxdw r0, [r4+0]
		exit`
	if err := verifySrc(t, src, defCfg()); err == nil {
		t.Fatal("accepted variable-offset read of uninitialized stack")
	}
	// After initializing the full window, the same access verifies.
	src2 := `
		ldxw r3, [r1+0]
		stdw [r10-16], 1
		stdw [r10-8], 2
		mov r2, 4
		jeq r3, 0, skip
		mov r2, 8
	skip:
		mov r4, r10
		sub r4, 16
		add r4, r2
		ldxdw r0, [r4+0]
		exit`
	if err := verifySrc(t, src2, defCfg()); err != nil {
		t.Fatalf("rejected safe variable-offset stack read: %v", err)
	}
	// A range that can escape the stack must be rejected.
	src3 := `
		ldxw r3, [r1+0]
		mov r2, 4
		jeq r3, 0, skip
		mov r2, 16
	skip:
		mov r4, r10
		sub r4, 16
		add r4, r2
		ldxdw r0, [r4+0]
		exit`
	if err := verifySrc(t, src3, defCfg()); err == nil {
		t.Fatal("accepted stack access escaping the frame")
	}
}

func TestVerifyRangeRefinementEnablesIndexing(t *testing.T) {
	// XRP-style computed indexing: load an index from ctx, bound it
	// with a branch, scale it, and read inside a helper window.
	cfg := defCfg()
	cfg.Helpers = map[int32]HelperSig{
		HelperUserBase: {Name: "get_node", Ret: RetWindow, WindowSize: 4096},
	}
	src := `
		ldxw r6, [r1+0]
		call 64
		mov r7, r0
		jlt r6, 500, ok
		mov r0, 0
		exit
	ok:
		mul r6, 8
		add r7, r6
		ldxdw r0, [r7+0]
		and r0, 0xffff
		exit`
	if err := verifySrc(t, src, cfg); err != nil {
		t.Fatalf("bounded computed indexing rejected: %v", err)
	}
	// Without the bounding branch the same program must be rejected.
	srcBad := `
		ldxw r6, [r1+0]
		call 64
		mov r7, r0
		mul r6, 8
		add r7, r6
		ldxdw r0, [r7+0]
		exit`
	if err := verifySrc(t, srcBad, cfg); err == nil {
		t.Fatal("unbounded computed indexing accepted")
	}
	// A bound that still allows escaping the window must be rejected.
	srcOver := `
		ldxw r6, [r1+0]
		call 64
		mov r7, r0
		jlt r6, 513, ok
		mov r0, 0
		exit
	ok:
		mul r6, 8
		add r7, r6
		ldxdw r0, [r7+0]
		exit`
	if err := verifySrc(t, srcOver, cfg); err == nil {
		t.Fatal("window overrun accepted (bound 513*8+8 > 4096)")
	}
}

func TestVerifyRangeArithmetic(t *testing.T) {
	cfg := defCfg()
	cfg.Helpers = map[int32]HelperSig{
		HelperUserBase: {Name: "get_node", Ret: RetWindow, WindowSize: 256},
	}
	// Byte loads are bounded [0,255]; AND narrows; RSH narrows; the
	// combination must verify against a 256-byte window.
	src := `
		call 64
		mov r7, r0
		ldxb r6, [r7+0]     ; [0,255]
		and r6, 0x7f        ; [0,127]
		rsh r6, 1           ; [0,63]
		add r6, r6          ; [0,126]
		add r7, r6
		ldxb r0, [r7+0]     ; worst case byte 126: in bounds
		exit`
	if err := verifySrc(t, src, cfg); err != nil {
		t.Fatalf("range arithmetic rejected: %v", err)
	}
	// Division by a constant narrows too.
	src2 := `
		call 64
		mov r7, r0
		ldxh r6, [r7+0]     ; [0,65535]
		div r6, 512         ; [0,127]
		add r7, r6
		ldxb r0, [r7+0]
		exit`
	if err := verifySrc(t, src2, cfg); err != nil {
		t.Fatalf("division range rejected: %v", err)
	}
}

func TestVerifyMergedStackInit(t *testing.T) {
	// A stack slot written on only one path must not be readable after
	// the merge.
	src := `
		ldxw r3, [r1+0]
		jeq r3, 0, skip
		stdw [r10-8], 1
	skip:
		ldxdw r0, [r10-8]
		exit`
	if err := verifySrc(t, src, defCfg()); err == nil {
		t.Fatal("accepted read of conditionally-initialized stack")
	}
	// Written on both paths: fine.
	src2 := `
		ldxw r3, [r1+0]
		jeq r3, 0, other
		stdw [r10-8], 1
		ja join
	other:
		stdw [r10-8], 2
	join:
		ldxdw r0, [r10-8]
		exit`
	if err := verifySrc(t, src2, defCfg()); err != nil {
		t.Fatalf("rejected both-paths-initialized stack read: %v", err)
	}
}

func TestVerifiedProgramsRunSafely(t *testing.T) {
	// Everything the verifier accepts in this suite must execute without
	// runtime memory errors.
	srcs := []string{
		"mov r0, 0\nexit",
		"stdw [r10-8], 42\nldxdw r0, [r10-8]\nexit",
		"ldxw r0, [r1+0]\nexit",
	}
	cfg := defCfg()
	cfg.CtxSize = 8
	for _, src := range srcs {
		prog := MustAssemble(src)
		if err := Verify(prog, cfg); err != nil {
			t.Fatalf("verify: %v", err)
		}
		vm := NewVM(cfg.Maps)
		_ = vm.Load(prog)
		if _, err := vm.Run(make([]byte, 8)); err != nil {
			t.Fatalf("verified program failed at runtime: %v", err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	cfg := defCfg()
	prog := MustAssemble(`
		stw [r10-4], 1
		mov r1, 0
		mov r2, r10
		sub r2, 4
		call 1
		jeq r0, 0, miss
		ldxdw r3, [r0+0]
		add r3, 1
		stxdw [r0+0], r3
		mov r0, 0
		exit
	miss:
		mov r0, 1
		exit`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
