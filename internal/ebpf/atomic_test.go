package ebpf

import (
	"errors"
	"testing"
)

func TestEndianSemantics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want uint64
	}{
		{"be16", "lddw r0, 0x1122334455667788\nbe16 r0\nexit", 0x8877},
		{"be32", "lddw r0, 0x1122334455667788\nbe32 r0\nexit", 0x88776655},
		{"be64", "lddw r0, 0x1122334455667788\nbe64 r0\nexit", 0x8877665544332211},
		{"le16_truncates", "lddw r0, 0x1122334455667788\nle16 r0\nexit", 0x7788},
		{"le32_truncates", "lddw r0, 0x1122334455667788\nle32 r0\nexit", 0x55667788},
		{"le64_identity", "lddw r0, 0x1122334455667788\nle64 r0\nexit", 0x1122334455667788},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := run(t, c.src, nil); got != c.want {
				t.Fatalf("got %#x, want %#x", got, c.want)
			}
		})
	}
}

func TestAtomicAddAndFetch(t *testing.T) {
	got := run(t, `
		stdw [r10-8], 100
		mov r1, r10
		mov r2, 7
		xadddw [r1-8], r2
		mov r3, 5
		xfadddw [r1-8], r3   ; r3 = old (107)
		ldxdw r0, [r10-8]    ; 112
		add r0, r3           ; +107 = 219
		exit`, nil)
	if got != 219 {
		t.Fatalf("got %d, want 219", got)
	}
}

func TestAtomicBitwiseOps(t *testing.T) {
	got := run(t, `
		stdw [r10-8], 0xF0
		mov r1, 0x0F
		aordw [r10-8], r1
		mov r2, 0x3F
		aanddw [r10-8], r2
		mov r3, 0xFF
		axordw [r10-8], r3
		ldxdw r0, [r10-8]
		exit`, nil)
	// 0xF0|0x0F=0xFF; &0x3F=0x3F; ^0xFF=0xC0
	if got != 0xC0 {
		t.Fatalf("got %#x, want 0xC0", got)
	}
}

func TestAtomicXchg(t *testing.T) {
	got := run(t, `
		stdw [r10-8], 11
		mov r1, 22
		xchgdw [r10-8], r1   ; r1 = 11, mem = 22
		ldxdw r0, [r10-8]
		add r0, r1           ; 22 + 11
		exit`, nil)
	if got != 33 {
		t.Fatalf("got %d, want 33", got)
	}
}

func TestAtomicCmpXchg(t *testing.T) {
	// Successful exchange: r0 == old.
	got := run(t, `
		stdw [r10-8], 5
		mov r0, 5            ; expected
		mov r1, 9            ; new
		cmpxchgdw [r10-8], r1
		ldxdw r2, [r10-8]    ; 9
		add r0, r2           ; old(5) + 9
		exit`, nil)
	if got != 14 {
		t.Fatalf("success case got %d, want 14", got)
	}
	// Failed exchange: memory untouched, r0 = old.
	got = run(t, `
		stdw [r10-8], 5
		mov r0, 77           ; wrong expectation
		mov r1, 9
		cmpxchgdw [r10-8], r1
		ldxdw r2, [r10-8]    ; still 5
		add r0, r2           ; old(5) + 5
		exit`, nil)
	if got != 10 {
		t.Fatalf("failure case got %d, want 10", got)
	}
}

func TestAtomic32BitWidth(t *testing.T) {
	got := run(t, `
		stdw [r10-8], 0
		lddw r1, 0x1FFFFFFFF
		xaddw [r10-8], r1    ; only low 32 bits added
		ldxdw r0, [r10-8]
		exit`, nil)
	if got != 0xFFFFFFFF {
		t.Fatalf("got %#x, want 0xFFFFFFFF", got)
	}
}

func TestAtomicMapValue(t *testing.T) {
	// Atomic increment through a looked-up map value — the canonical
	// eBPF counter pattern.
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
		mov r1, 1
		xadddw [r0+0], r1
		mov r0, 0
		exit
	miss:
		mov r0, 1
		exit`, "MAPID", itoa(id))
	prog := MustAssemble(src)
	cfg := DefaultVerifierConfig(maps)
	if err := Verify(prog, cfg); err != nil {
		t.Fatalf("verifier rejected atomic map increment: %v", err)
	}
	_ = vm.Load(prog)
	for i := 0; i < 3; i++ {
		vm.ResetWindows()
		if got, err := vm.Run(nil); err != nil || got != 0 {
			t.Fatalf("run %d = %d,%v", i, got, err)
		}
	}
	v, _ := m.Lookup([]byte{1, 0, 0, 0})
	if v[0] != 3 {
		t.Fatalf("counter = %d, want 3", v[0])
	}
}

func TestVerifierAtomicRules(t *testing.T) {
	cfg := DefaultVerifierConfig(nil)
	bad := map[string]string{
		"uninit_target": "mov r1, 1\nxadddw [r10-8], r1\nmov r0, 0\nexit",
		"oob":           "stdw [r10-8], 0\nmov r1, 1\nxadddw [r10+8], r1\nmov r0, 0\nexit",
		"scalar_base":   "mov r2, 5\nmov r1, 1\nxadddw [r2+0], r1\nmov r0, 0\nexit",
		"cmpxchg_no_r0": "stdw [r10-8], 0\nmov r1, 1\ncmpxchgdw [r10-8], r1\nexit",
	}
	for name, src := range bad {
		t.Run(name, func(t *testing.T) {
			if err := Verify(MustAssemble(src), cfg); !errors.Is(err, ErrVerify) {
				t.Fatalf("accepted: %v", err)
			}
		})
	}
	good := "stdw [r10-8], 0\nmov r1, 1\nxfadddw [r10-8], r1\nmov r0, r1\nexit"
	if err := Verify(MustAssemble(good), cfg); err != nil {
		t.Fatalf("rejected good atomic: %v", err)
	}
}

func TestVerifierEndianRules(t *testing.T) {
	cfg := DefaultVerifierConfig(nil)
	if err := Verify(MustAssemble("mov r0, r10\nbe64 r0\nexit"), cfg); err == nil {
		t.Fatal("byte-swapped a pointer")
	}
	// Endian result is width-bounded: usable as an index into a 128 KiB
	// map value.
	src := withValue(`
		ldxh r6, [r7+0]
		be16 r6              ; still [0,65535]
		add r7, r6
		ldxb r0, [r7+0]
		exit`)
	if err := Verify(MustAssemble(src), valueCfg(1<<17)); err != nil {
		t.Fatalf("rejected bounded endian index: %v", err)
	}
	// be64 widens the same halfword to the full range: rejected.
	src = withValue(`
		ldxh r6, [r7+0]
		be64 r6
		add r7, r6
		ldxb r0, [r7+0]
		exit`)
	if err := Verify(MustAssemble(src), valueCfg(1<<17)); err == nil {
		t.Fatal("accepted an unbounded endian index")
	}
}

func TestAtomicDisassembleRoundTrip(t *testing.T) {
	src := "stdw [r10-8], 0\nmov r1, 1\nxadddw [r10-8], r1\nbe32 r1\nmov r0, 0\nexit"
	prog := MustAssemble(src)
	text := Disassemble(prog)
	for _, want := range []string{"xadddw [r10-8], r1", "be32 r1"} {
		if !containsStr(text, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, text)
		}
	}
	// Encode/decode roundtrip preserves atomics.
	back, err := Decode(Encode(prog))
	if err != nil {
		t.Fatal(err)
	}
	for i := range prog {
		if prog[i] != back[i] {
			t.Fatalf("insn %d changed: %+v vs %+v", i, prog[i], back[i])
		}
	}
}

func containsStr(s, sub string) bool { return indexOf(s, sub) >= 0 }
