package fail2ban

import (
	"bytes"
	"testing"

	"hyperion/internal/ebpf"
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
	load := func(prog []ebpf.Instruction) instance {
		maps := &ebpf.MapSet{}
		bans := ebpf.NewHashMap(4, 8, 1<<16)
		fails := ebpf.NewHashMap(4, 8, 1<<16)
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
	for i := 0; i < 3000; i++ {
		ctx := gen.Next().Marshal()
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
