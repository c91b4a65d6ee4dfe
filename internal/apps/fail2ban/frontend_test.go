package fail2ban

import (
	"bytes"
	"fmt"
	"testing"

	"hyperion/internal/ebpf"
	"hyperion/internal/ebpf/gofront"
	"hyperion/internal/trace"
)

// The frontend-compiled filter must match the hand-assembled oracle
// shape-for-shape: same length, and at every index the same opcode,
// offset, and immediates (register choices are free — the ehdl
// pipeline metrics are renaming-invariant).
func TestFrontendShapeMatchesHandAssembly(t *testing.T) {
	for _, threshold := range []int{1, 3, 5, 100} {
		hand, err := ebpf.Assemble(Program(threshold))
		if err != nil {
			t.Fatalf("assembling oracle: %v", err)
		}
		front, err := CompileFilter(threshold)
		if err != nil {
			t.Fatalf("frontend compile: %v", err)
		}
		n := len(front)
		if len(hand) < n {
			n = len(hand)
		}
		bad := 0
		for i := 0; i < n; i++ {
			f, h := front[i], hand[i]
			if f.Op != h.Op || f.Off != h.Off || f.Imm != h.Imm || f.Imm64 != h.Imm64 {
				t.Errorf("threshold %d insn %d: frontend {op %#02x off %d imm %d} vs hand {op %#02x off %d imm %d}",
					threshold, i, f.Op, f.Off, f.Imm, h.Op, h.Off, h.Imm)
				if bad++; bad > 12 {
					break
				}
			}
		}
		if len(front) != len(hand) {
			t.Errorf("threshold %d: frontend %d insns, hand %d", threshold, len(front), len(hand))
		}
		if t.Failed() {
			t.Logf("frontend:\n%s", ebpf.Disassemble(front))
			t.Logf("hand:\n%s", ebpf.Disassemble(hand))
			t.FailNow()
		}
	}
}

// Behavioral half: both programs over a seeded attack trace must agree
// on every verdict and end with identical ban and failure-count maps.
func TestFrontendBehaviorMatchesHandAssembly(t *testing.T) {
	const threshold = 3
	hand, err := ebpf.Assemble(Program(threshold))
	if err != nil {
		t.Fatalf("assembling oracle: %v", err)
	}
	front, err := CompileFilter(threshold)
	if err != nil {
		t.Fatalf("frontend compile: %v", err)
	}

	type instance struct {
		vm    *ebpf.VM
		bans  *ebpf.HashMap
		fails *ebpf.HashMap
	}
	// Both sides get the maps filter_prog.go declares, as a deployed
	// filter does.
	decl, err := gofront.Compile(filterFile, filterSource, gofront.Options{})
	if err != nil {
		t.Fatalf("frontend compile: %v", err)
	}
	newMap := func(id int) *ebpf.HashMap {
		m := decl.Maps[id]
		return ebpf.NewHashMap(m.KeySize, m.ValueSize, m.Entries)
	}
	load := func(prog []ebpf.Instruction) instance {
		maps := &ebpf.MapSet{}
		bans, fails := newMap(0), newMap(1)
		maps.Add(bans)
		maps.Add(fails)
		vcfg := ebpf.DefaultVerifierConfig(maps)
		vcfg.CtxSize = ctxBytes
		if err := ebpf.Verify(prog, vcfg); err != nil {
			t.Fatalf("verify: %v", err)
		}
		vm := ebpf.NewVM(maps)
		if err := vm.Load(prog); err != nil {
			t.Fatalf("load: %v", err)
		}
		return instance{vm: vm, bans: bans, fails: fails}
	}
	fi, hi := load(front), load(hand)

	gen := trace.NewAttackGen(7, 5)
	ctx := make([]byte, trace.PacketBytes)
	for i := 0; i < 3000; i++ {
		gen.Next().MarshalTo(ctx)
		vf, errF := fi.vm.Run(append([]byte(nil), ctx...))
		vh, errH := hi.vm.Run(append([]byte(nil), ctx...))
		if errF != nil || errH != nil {
			t.Fatalf("packet %d: frontend err %v, hand err %v", i, errF, errH)
		}
		if vf != vh {
			t.Fatalf("packet %d: frontend verdict %d, hand verdict %d", i, vf, vh)
		}
	}
	diffMap := func(name string, a, b *ebpf.HashMap) {
		type kv struct{ k, v []byte }
		var av []kv
		a.Iterate(func(k, v []byte) bool {
			av = append(av, kv{append([]byte(nil), k...), append([]byte(nil), v...)})
			return true
		})
		i := 0
		ok := true
		b.Iterate(func(k, v []byte) bool {
			if i >= len(av) || !bytes.Equal(av[i].k, k) || !bytes.Equal(av[i].v, v) {
				ok = false
				return false
			}
			i++
			return true
		})
		if !ok || i != len(av) {
			t.Errorf("%s map state diverges between frontend and hand program", name)
		}
	}
	diffMap("bans", fi.bans, hi.bans)
	diffMap("fails", fi.fails, hi.fails)
}

// Program returns the packet-filter eBPF source for a given ban
// threshold. Context layout is trace.Packet.Marshal: srcIP at 0,
// authFail at 18. Map 0 is bans (u32→u64), map 1 is failure counts
// (u32→u64).
func Program(threshold int) string {
	return fmt.Sprintf(`
	; r9 = ctx (saved across helper calls)
	mov r9, r1
	ldxw r6, [r9+0]       ; src ip
	ldxb r7, [r9+18]      ; auth failure flag
	stxw [r10-4], r6      ; key = src ip
	mov r1, 0             ; bans map
	mov r2, r10
	sub r2, 4
	call 1
	jeq r0, 0, notbanned
	mov r0, %d            ; already banned: drop
	exit
notbanned:
	jeq r7, 0, pass       ; clean packet
	mov r1, 1             ; failure-count map
	mov r2, r10
	sub r2, 4
	call 1
	jeq r0, 0, first
	ldxdw r3, [r0+0]
	add r3, 1
	stxdw [r0+0], r3      ; increment in place
	jge r3, %d, ban
	ja pass
first:
	stdw [r10-16], 1      ; first failure
	mov r1, 1
	mov r2, r10
	sub r2, 4
	mov r3, r10
	sub r3, 16
	call 2
	ja pass
ban:
	stdw [r10-16], 1
	mov r1, 0             ; bans map
	mov r2, r10
	sub r2, 4
	mov r3, r10
	sub r3, 16
	call 2
	mov r0, %d            ; newly banned
	exit
pass:
	mov r0, %d
	exit
`, VerdictDrop, threshold, VerdictBanned, VerdictPass)
}
