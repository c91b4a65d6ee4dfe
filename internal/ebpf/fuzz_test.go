package ebpf

import "testing"

// FuzzDecodeVerifyLoad drives arbitrary bytes through the whole
// program-loading pipeline — Decode, Verify, Load, and (when the
// verifier accepts) Run. The contract under fuzz is absolute: no input
// may panic any stage, hostile inputs must be rejected with errors, not
// executed, and a program the verifier accepts must run to its exit
// without a runtime error (accepted ⇒ never faults).
func FuzzDecodeVerifyLoad(f *testing.F) {
	// Seed with valid programs so the fuzzer starts inside the
	// interesting region (mutations of well-formed encodings) instead
	// of spending its budget on trivially-truncated garbage.
	seeds := []string{
		"mov r0, 0\nexit",
		"mov r0, 1\nadd r0, 41\nexit",
		"ldxw r0, [r1+0]\nexit",
		"mov r2, 5\nstxdw [r10-8], r2\nldxdw r0, [r10-8]\nexit",
		"mov r0, 0\njeq r0, 1, skip\nadd r0, 10\nskip: add r0, 100\nexit",
	}
	for _, src := range seeds {
		f.Add(Encode(MustAssemble(src)))
	}
	f.Add([]byte{})
	f.Add([]byte{0x18, 0, 0, 0, 1, 0, 0, 0}) // LDDW missing its second half
	f.Add(make([]byte, 8*(MaxInsns+1)))      // over the instruction limit

	f.Fuzz(func(t *testing.T, raw []byte) {
		prog, err := Decode(raw)
		if err != nil {
			return
		}
		maps := &MapSet{}
		maps.Add(NewArrayMap(8, 4))
		ctx := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		cfg := DefaultVerifierConfig(maps)
		cfg.CtxSize = len(ctx)
		if err := Verify(prog, cfg); err != nil {
			return
		}
		// The verifier accepted: loading and running must also be safe.
		vm := NewVM(maps)
		if err := vm.Load(prog); err != nil {
			t.Fatalf("verified program failed to load: %v", err)
		}
		if _, err := vm.Run(ctx); err != nil {
			t.Fatalf("verified program faulted: %v\n%s", err, Disassemble(prog))
		}
	})
}
