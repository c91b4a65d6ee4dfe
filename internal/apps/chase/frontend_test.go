package chase

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hyperion/internal/ebpf"
	"hyperion/internal/storage/bptree"
)

// The frontend-compiled step program must match the hand-assembled
// oracle shape-for-shape: same length, and at every index the same
// opcode, offset, and immediates. Register choices are free — the
// ehdl optimizer and its pipeline metrics are renaming-invariant — but
// in practice the allocator's preference order reproduces the hand
// registers too, which this test does NOT pin.
func TestFrontendShapeMatchesHandAssembly(t *testing.T) {
	hand, err := ebpf.Assemble(StepProgram())
	if err != nil {
		t.Fatalf("assembling oracle: %v", err)
	}
	front, err := CompileStep()
	if err != nil {
		t.Fatalf("frontend compile: %v", err)
	}
	diffShape(t, front, hand)
}

// diffShape reports every structural divergence between a frontend
// program and its hand-assembled oracle.
func diffShape(t *testing.T, front, hand []ebpf.Instruction) {
	t.Helper()
	n := len(front)
	if len(hand) < n {
		n = len(hand)
	}
	bad := 0
	for i := 0; i < n; i++ {
		f, h := front[i], hand[i]
		if f.Op != h.Op || f.Off != h.Off || f.Imm != h.Imm || f.Imm64 != h.Imm64 {
			t.Errorf("insn %d: frontend {op %#02x off %d imm %d imm64 %d} vs hand {op %#02x off %d imm %d imm64 %d}",
				i, f.Op, f.Off, f.Imm, f.Imm64, h.Op, h.Off, h.Imm, h.Imm64)
			if bad++; bad > 12 {
				break
			}
		}
	}
	if len(front) != len(hand) {
		t.Errorf("length: frontend %d insns, hand %d", len(front), len(hand))
	}
	if t.Failed() {
		t.Logf("frontend:\n%s", ebpf.Disassemble(front))
		t.Logf("hand:\n%s", ebpf.Disassemble(hand))
	}
}

// Behavioral half of the differential suite: both programs, run over
// randomized node pages, must agree on the verdict and on every byte
// of the written-back context.
func TestFrontendBehaviorMatchesHandAssembly(t *testing.T) {
	hand, err := ebpf.Assemble(StepProgram())
	if err != nil {
		t.Fatalf("assembling oracle: %v", err)
	}
	front, err := CompileStep()
	if err != nil {
		t.Fatalf("frontend compile: %v", err)
	}
	vcfg := ebpf.DefaultVerifierConfig(nil)
	vcfg.CtxSize = CtxBytes
	if err := ebpf.Verify(front, vcfg); err != nil {
		t.Fatalf("verifying frontend program: %v", err)
	}
	if err := ebpf.Verify(hand, vcfg); err != nil {
		t.Fatalf("verifying oracle: %v", err)
	}
	vmF, vmH := ebpf.NewVM(nil), ebpf.NewVM(nil)
	if err := vmF.Load(front); err != nil {
		t.Fatalf("loading frontend program: %v", err)
	}
	if err := vmH.Load(hand); err != nil {
		t.Fatalf("loading oracle: %v", err)
	}

	rng := rand.New(rand.NewSource(41))
	ctxF := make([]byte, CtxBytes)
	ctxH := make([]byte, CtxBytes)
	for trial := 0; trial < 400; trial++ {
		page := randomNodePage(rng)
		key := randomProbeKey(rng, page)
		for _, ctx := range [][]byte{ctxF, ctxH} {
			clear(ctx)
			binary.LittleEndian.PutUint64(ctx[CtxKey:], key)
			copy(ctx[CtxNode:], page)
		}
		rf, errF := vmF.Run(ctxF)
		rh, errH := vmH.Run(ctxH)
		if (errF == nil) != (errH == nil) {
			t.Fatalf("trial %d: frontend err %v, hand err %v", trial, errF, errH)
		}
		if errF != nil {
			continue
		}
		if rf != rh {
			t.Fatalf("trial %d key %#x: frontend ret %d, hand ret %d", trial, key, rf, rh)
		}
		for i := range ctxF {
			if ctxF[i] != ctxH[i] {
				t.Fatalf("trial %d key %#x: ctx byte %d differs: frontend %#02x, hand %#02x (ret %d)",
					trial, key, i, ctxF[i], ctxH[i], rf)
			}
		}
	}
}

// randomNodePage builds a plausible node page: valid leaf, valid
// internal, or corrupt kind, with sorted keys and occasionally
// out-of-range counts.
func randomNodePage(rng *rand.Rand) []byte {
	page := make([]byte, bptree.NodeBytes)
	kind := byte(rng.Intn(4)) // 0..3: 1=leaf 2=internal, others corrupt
	page[0] = kind
	var count int
	switch {
	case rng.Intn(8) == 0:
		count = 200 + rng.Intn(600) // out of range → corrupt verdict
	case kind == 1:
		count = rng.Intn(201)
	default:
		count = rng.Intn(151)
	}
	binary.LittleEndian.PutUint16(page[2:], uint16(count))
	// Sorted keys from a small universe so probes hit often.
	keysOff, payloadOff := bptree.LeafKeysOff, bptree.LeafValsOff
	if kind == 2 {
		keysOff, payloadOff = bptree.IntKeysOff, bptree.IntKidsOff
	}
	k := uint64(rng.Intn(32))
	for i := 0; i < count && keysOff+8*(i+1) <= len(page); i++ {
		k += uint64(1 + rng.Intn(8))
		binary.LittleEndian.PutUint64(page[keysOff+8*i:], k)
	}
	for off := payloadOff; off+8 <= len(page); off += 8 {
		binary.LittleEndian.PutUint64(page[off:], rng.Uint64())
	}
	return page
}

// randomProbeKey picks keys that exercise hit, miss, below-min and
// above-max paths.
func randomProbeKey(rng *rand.Rand, page []byte) uint64 {
	count := int(binary.LittleEndian.Uint16(page[2:]))
	keysOff := bptree.LeafKeysOff
	if page[0] == 2 {
		keysOff = bptree.IntKeysOff
	}
	if count > 0 && rng.Intn(2) == 0 {
		i := rng.Intn(count)
		if keysOff+8*(i+1) <= len(page) {
			return binary.LittleEndian.Uint64(page[keysOff+8*i:])
		}
	}
	return uint64(rng.Intn(2048))
}

// StepProgram generates the per-hop program's assembler source.
//
// Register plan: r9 = ctx, r8 = key, r6 = lo, r7 = hi, r5 scratch
// (clobber-safe: no helper calls anywhere).
func StepProgram() string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	w("	mov r9, r1")
	w("	ldxdw r8, [r9+%d]", CtxKey)
	w("	ldxb r2, [r9+%d]", nodeKindOff)
	w("	ldxh r7, [r9+%d]", nodeCountOff) // hi = count
	w("	jeq r2, 1, leaf")
	w("	jeq r2, 2, internal")
	w("	stb [r9+%d], %d", CtxAction, ActCorrupt)
	w("	mov r0, %d", ActCorrupt)
	w("	exit")

	// Unrolled binary search: lo/hi in r6/r7, first index with
	// keys[idx] >= key. keysOff is the byte base of the key array.
	search := func(label string, maxCount, keysOff int) {
		w("%s:", label)
		w("	jgt r7, %d, corrupt_%s", maxCount, label)
		w("	mov r6, 0") // lo
		for i := 0; i < 8; i++ {
			w("	jge r6, r7, %s_done_%d", label, i)
			w("	mov r3, r6")
			w("	add r3, r7")
			w("	div r3, 2") // mid
			w("	mov r4, r3")
			w("	mul r4, 8")
			w("	mov r5, r9")
			w("	add r5, r4")
			w("	ldxdw r4, [r5+%d]", keysOff) // keys[mid]
			w("	jge r4, r8, %s_hi_%d", label, i)
			w("	mov r6, r3")
			w("	add r6, 1") // lo = mid+1
			w("	ja %s_done_%d", label, i)
			w("%s_hi_%d:", label, i)
			w("	mov r7, r3") // hi = mid
			w("%s_done_%d:", label, i)
		}
	}

	// Leaf: exact match check.
	search("leaf", 200, leafKeysOff)
	w("	ldxh r7, [r9+%d]", nodeCountOff) // reload count
	w("	jge r6, r7, miss")
	w("	mov r4, r6")
	w("	mul r4, 8")
	w("	mov r5, r9")
	w("	add r5, r4")
	w("	ldxdw r3, [r5+%d]", leafKeysOff)
	w("	jne r3, r8, miss")
	w("	ldxdw r3, [r5+%d]", leafValsOff)
	w("	stxdw [r9+%d], r3", CtxValue)
	w("	stb [r9+%d], %d", CtxAction, ActFound)
	w("	mov r0, %d", ActFound)
	w("	exit")
	w("miss:")
	w("	stb [r9+%d], %d", CtxAction, ActNotFound)
	w("	mov r0, %d", ActNotFound)
	w("	exit")

	// Internal: child index = lo (+1 on exact key match).
	search("internal", 150, intKeysOff)
	w("	ldxh r7, [r9+%d]", nodeCountOff)
	w("	jge r6, r7, kid") // lo == count → rightmost child
	w("	mov r4, r6")
	w("	mul r4, 8")
	w("	mov r5, r9")
	w("	add r5, r4")
	w("	ldxdw r3, [r5+%d]", intKeysOff)
	w("	jne r3, r8, kid")
	w("	add r6, 1") // equal key descends right of it
	w("kid:")
	w("	mov r4, r6")
	w("	mul r4, 16")
	w("	mov r5, r9")
	w("	add r5, r4")
	w("	ldxdw r3, [r5+%d]", intKidsOff) // child Hi
	w("	stxdw [r9+%d], r3", CtxNextHi)
	w("	ldxdw r3, [r5+%d]", intKidsOff+8) // child Lo
	w("	stxdw [r9+%d], r3", CtxNextLo)
	w("	stb [r9+%d], %d", CtxAction, ActDescend)
	w("	mov r0, %d", ActDescend)
	w("	exit")

	w("corrupt_leaf:")
	w("corrupt_internal:")
	w("	stb [r9+%d], %d", CtxAction, ActCorrupt)
	w("	mov r0, %d", ActCorrupt)
	w("	exit")
	return b.String()
}
