// External test package: the seed programs come from the app packages,
// which import ehdl.
package ehdl_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"hyperion/internal/apps/chase"
	"hyperion/internal/apps/fail2ban"
	"hyperion/internal/ebpf"
	"hyperion/internal/ehdl"
)

// equivMaps builds the map set both sides of an equivalence check run
// against, identical on every call: fail2ban's two u32→u64 hash maps,
// each holding one entry so lookups can hit.
func equivMaps() *ebpf.MapSet {
	ms := &ebpf.MapSet{}
	for id := uint64(0); id < 2; id++ {
		m := ebpf.NewHashMap(4, 8, 1<<16)
		var k [4]byte
		var v [8]byte
		binary.LittleEndian.PutUint32(k[:], 0x0a000001)
		binary.LittleEndian.PutUint64(v[:], id+1)
		if err := m.Update(k[:], v[:]); err != nil {
			panic(err)
		}
		ms.Add(m)
	}
	return ms
}

func dumpMaps(ms *ebpf.MapSet) []byte {
	var out []byte
	for id := 0; id < ms.Len(); id++ {
		m, _ := ms.Get(id)
		m.(*ebpf.HashMap).Iterate(func(k, v []byte) bool {
			out = append(append(append(out, byte(id)), k...), v...)
			return true
		})
	}
	return out
}

// checkOptimizeEquivalent is the optimizer's contract: a program the
// verifier accepts still verifies once warped, and on the same context
// and the same map contents both return the same r0 and leave context
// and maps byte-identical. It returns that r0, or ok=false when prog
// does not verify in the first place.
func checkOptimizeEquivalent(t *testing.T, prog []ebpf.Instruction, ctx []byte) (r0 uint64, ok bool) {
	t.Helper()
	type side struct {
		maps *ebpf.MapSet
		ctx  []byte
		r0   uint64
	}
	// run returns the verifier's verdict as its error; anything that goes
	// wrong after acceptance is fatal.
	run := func(what string, prog []ebpf.Instruction) (side, error) {
		s := side{maps: equivMaps(), ctx: append([]byte(nil), ctx...)}
		cfg := ebpf.DefaultVerifierConfig(s.maps)
		cfg.CtxSize = len(ctx)
		if err := ebpf.Verify(prog, cfg); err != nil {
			return s, err
		}
		vm := ebpf.NewVM(s.maps)
		if err := vm.Load(prog); err != nil {
			t.Fatalf("%s program does not load: %v", what, err)
		}
		var err error
		if s.r0, err = vm.Run(s.ctx); err != nil {
			t.Fatalf("verified %s program faulted: %v\n%s", what, err, ebpf.Disassemble(prog))
		}
		return s, nil
	}
	orig, err := run("original", prog)
	if err != nil {
		return 0, false
	}
	warped, err := ehdl.Optimize(prog)
	if err != nil {
		t.Fatalf("Optimize: %v\n%s", err, ebpf.Disassemble(prog))
	}
	opt, err := run("warped", warped)
	if err != nil {
		t.Fatalf("optimizer broke verification: %v\noriginal:\n%s\nwarped:\n%s",
			err, ebpf.Disassemble(prog), ebpf.Disassemble(warped))
	}
	sameCtx := bytes.Equal(opt.ctx, orig.ctx)
	sameMaps := bytes.Equal(dumpMaps(opt.maps), dumpMaps(orig.maps))
	if opt.r0 != orig.r0 || !sameCtx || !sameMaps {
		t.Fatalf("warped program diverges: r0 %#x vs %#x, ctx equal %v, maps equal %v\noriginal:\n%s\nwarped:\n%s",
			opt.r0, orig.r0, sameCtx, sameMaps, ebpf.Disassemble(prog), ebpf.Disassemble(warped))
	}
	return orig.r0, true
}

// optimizeRegressions are programs the optimizer once got wrong, with
// what the interpreter returns for them on an all-zero 16-byte context.
var optimizeRegressions = []struct {
	name string
	src  string
	want uint64
}{
	// The optimizer's private ALU folder masked 32-bit shift counts with
	// 63 and never sign-extended arsh32.
	{"lsh32_count_mask", "mov32 r0, 1\nlsh32 r0, 33\nexit", 0x2},
	{"arsh32_sign_extends", "mov32 r0, -8\narsh32 r0, 1\nexit", 0xfffffffc},
	{"rsh32_count_mask", "mov32 r0, -8\nrsh32 r0, 33\nexit", 0x7ffffffc},
	// A jump target removed as dead code stopped being a block leader,
	// so a constant from the fall-through path leaked across the join.
	{"removed_target_still_a_leader", `
		ldxb r2, [r1+0]
		mov r1, 1
		jeq r2, 0, join
		mov r1, 2
	join:	mov r3, 7
		mov r0, r1
		exit`, 1},
	// Fetching atomics overwrite their source register, cmpxchg
	// overwrites r0 — and reads it, so the mov feeding it is live.
	{"atomic_fetch_clobbers_src", `
		stdw [r10-8], 40
		mov r2, 2
		xfadddw [r10-8], r2
		mov r0, r2
		exit`, 40},
	{"cmpxchg_clobbers_r0", `
		stdw [r10-8], 41
		mov r0, 40
		mov r2, 9
		cmpxchgdw [r10-8], r2
		jne r0, 40, out
		mov r0, 7
	out:	exit`, 41},
	{"cmpxchg_reads_r0", `
		stdw [r10-8], 40
		mov r0, 40
		mov r2, 9
		cmpxchgdw [r10-8], r2
		ldxdw r0, [r10-8]
		exit`, 9},
}

func TestOptimizeRegressions(t *testing.T) {
	for _, c := range optimizeRegressions {
		t.Run(c.name, func(t *testing.T) {
			got, ok := checkOptimizeEquivalent(t, ebpf.MustAssemble(c.src), make([]byte, 16))
			if !ok {
				t.Fatal("program does not verify")
			}
			if got != c.want {
				t.Fatalf("r0 = %#x, want %#x", got, c.want)
			}
		})
	}
}

// FuzzOptimizeEquivalence holds Optimize to checkOptimizeEquivalent on
// whatever decodes and verifies. The seeds put the fuzzer next to every
// program the repository actually warps.
func FuzzOptimizeEquivalence(f *testing.F) {
	add := func(prog []ebpf.Instruction, ctx []byte) { f.Add(ebpf.Encode(prog), ctx) }

	for _, c := range optimizeRegressions {
		add(ebpf.MustAssemble(c.src), make([]byte, 16))
	}

	// E10's four programs (internal/bench/e10progs.go) over a packet.
	pkt := make([]byte, 20)
	binary.LittleEndian.PutUint32(pkt[0:], 0x0a000001)
	binary.LittleEndian.PutUint16(pkt[10:], 22)
	pkt[18] = 1 // auth failure
	for _, src := range []string{
		"mov r0, 0\nexit",
		"ldxh r2, [r1+10]\nmov r0, 0\njne r2, 22, out\nmov r0, 1\nout: exit",
		`ldxw r2, [r1+0]
		ldxw r3, [r1+4]
		ldxh r4, [r1+8]
		ldxh r5, [r1+10]
		xor r2, r3
		lsh r4, 16
		or r4, r5
		xor r2, r4
		mov r3, r2
		rsh r3, 16
		xor r2, r3
		and r2, 1023
		mov r0, r2
		exit`,
		`mov r2, 10
		mov r3, 20
		add r2, r3
		mul r2, 4
		mov r4, r2
		sub r4, 100
		mov r0, 0
		jne r4, 20, out
		mov r0, 1
	out:	exit`,
	} {
		add(ebpf.MustAssemble(src), pkt)
	}

	for _, threshold := range []int{1, 5} {
		filter, err := fail2ban.CompileFilter(threshold)
		if err != nil {
			f.Fatal(err)
		}
		add(filter, pkt)
		fresh := append([]byte(nil), pkt...)
		fresh[0] = 2 // a source in neither map
		add(filter, fresh)
	}

	step, err := chase.CompileStep()
	if err != nil {
		f.Fatal(err)
	}
	node := make([]byte, chase.CtxBytes)
	binary.LittleEndian.PutUint64(node[chase.CtxKey:], 30)
	node[chase.CtxNode] = 1                                  // leaf
	binary.LittleEndian.PutUint16(node[chase.CtxNode+2:], 3) // three keys
	for i, k := range []uint64{10, 20, 30} {                 // keys at 24, values at 24+200*8
		binary.LittleEndian.PutUint64(node[chase.CtxNode+24+8*i:], k)
		binary.LittleEndian.PutUint64(node[chase.CtxNode+24+200*8+8*i:], k*100)
	}
	add(step, node)

	f.Fuzz(func(t *testing.T, raw, ctx []byte) {
		if len(ctx) > 1<<16 {
			return
		}
		prog, err := ebpf.Decode(raw)
		if err != nil {
			return
		}
		checkOptimizeEquivalent(t, prog, ctx)
	})
}
