package ehdl

import (
	"encoding/binary"
	"errors"
	"testing"

	"hyperion/internal/ebpf"
	"hyperion/internal/fabric"
	"hyperion/internal/sim"
)

func compile(t *testing.T, src string, optimize bool) *Pipeline {
	t.Helper()
	prog := ebpf.MustAssemble(src)
	p, err := Compile(prog, Options{Name: "t", Optimize: optimize, Verifier: ebpf.DefaultVerifierConfig(nil)})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompileRejectsUnverifiable(t *testing.T) {
	prog := ebpf.MustAssemble("mov r0, r5\nexit") // uninit read
	if _, err := Compile(prog, Options{Verifier: ebpf.DefaultVerifierConfig(nil)}); !errors.Is(err, ErrCompile) {
		t.Fatalf("err = %v, want ErrCompile", err)
	}
}

func TestExecMatchesVM(t *testing.T) {
	src := `
		ldxw r2, [r1+0]
		mov r0, 0
		jgt r2, 100, big
		mov r0, 1
		ja out
	big:
		mov r0, 2
	out:
		exit`
	p := compile(t, src, false)
	ctx := make([]byte, 8)
	binary.LittleEndian.PutUint32(ctx, 50)
	if ret, err := p.Run(ctx); err != nil || ret != 1 {
		t.Fatalf("small: %d, %v", ret, err)
	}
	binary.LittleEndian.PutUint32(ctx, 500)
	if ret, err := p.Run(ctx); err != nil || ret != 2 {
		t.Fatalf("big: %d, %v", ret, err)
	}
}

func TestOptimizePreservesSemantics(t *testing.T) {
	srcs := []string{
		// Constant chain folds to one mov.
		"mov r0, 5\nadd r0, 3\nmul r0, 2\nexit",
		// Branch on constant folds away.
		"mov r1, 7\nmov r0, 0\njeq r1, 7, yes\nmov r0, 100\nja out\nyes: mov r0, 200\nout: exit",
		// Dead stores removed, result unchanged.
		"mov r3, 123\nmov r4, 99\nmov r0, 42\nexit",
		// Stack traffic must be preserved.
		"stdw [r10-8], 11\nldxdw r0, [r10-8]\nexit",
		// ctx-dependent branch survives.
		"ldxw r2, [r1+0]\nmov r0, 0\njeq r2, 0, z\nmov r0, 1\nz: exit",
	}
	ctx := make([]byte, 8)
	binary.LittleEndian.PutUint32(ctx, 3)
	for _, src := range srcs {
		plain := compile(t, src, false)
		opt := compile(t, src, true)
		r1, err1 := plain.Run(append([]byte(nil), ctx...))
		r2, err2 := opt.Run(append([]byte(nil), ctx...))
		if err1 != nil || err2 != nil {
			t.Fatalf("%q: errs %v %v", src, err1, err2)
		}
		if r1 != r2 {
			t.Fatalf("%q: plain=%d optimized=%d", src, r1, r2)
		}
		if opt.Stats.Instructions > plain.Stats.Instructions {
			t.Fatalf("%q: optimizer grew program %d → %d", src, plain.Stats.Instructions, opt.Stats.Instructions)
		}
	}
}

func TestOptimizeShrinksConstantPrograms(t *testing.T) {
	src := `
		mov r1, 10
		mov r2, 20
		add r1, r2
		mov r0, 0
		jne r1, 30, bad
		mov r0, 1
		ja out
	bad:
		mov r0, 2
	out:
		exit`
	plain := compile(t, src, false)
	opt := compile(t, src, true)
	if opt.Stats.Instructions >= plain.Stats.Instructions {
		t.Fatalf("no shrink: %d → %d", plain.Stats.Instructions, opt.Stats.Instructions)
	}
	if ret, _ := opt.Run(nil); ret != 1 {
		t.Fatalf("optimized result = %d, want 1", ret)
	}
	if opt.Stats.Depth > plain.Stats.Depth {
		t.Fatal("optimizer did not reduce pipeline depth")
	}
}

func TestOptimizePropertyRandomContexts(t *testing.T) {
	// Semantics preservation across many contexts for a branchy program.
	src := `
		ldxw r2, [r1+0]
		ldxw r3, [r1+4]
		mov r0, 0
		jgt r2, r3, a
		add r0, 1
		jeq r2, 0, b
		add r0, 2
		ja b
	a:
		add r0, 4
	b:
		mov r6, 7
		and r0, 255
		exit`
	plain := compile(t, src, false)
	opt := compile(t, src, true)
	r := sim.NewRand(3)
	for i := 0; i < 500; i++ {
		ctx := make([]byte, 8)
		binary.LittleEndian.PutUint32(ctx, uint32(r.Intn(5)))
		binary.LittleEndian.PutUint32(ctx[4:], uint32(r.Intn(5)))
		a, aerr := plain.Run(append([]byte(nil), ctx...))
		b, berr := opt.Run(append([]byte(nil), ctx...))
		if aerr != nil || berr != nil || a != b {
			t.Fatalf("ctx %v: plain=%v/%v opt=%v/%v", ctx, a, aerr, b, berr)
		}
	}
}

func TestStatsShape(t *testing.T) {
	small := compile(t, "mov r0, 0\nexit", false)
	big := compile(t, `
		ldxdw r2, [r1+0]
		ldxdw r3, [r1+8]
		mul r2, r3
		mul r2, r2
		stxdw [r10-8], r2
		ldxdw r0, [r10-8]
		mul r0, 3
		exit`, false)
	if small.Stats.Depth >= big.Stats.Depth {
		t.Fatalf("depth not monotone: %d vs %d", small.Stats.Depth, big.Stats.Depth)
	}
	if small.Stats.SizeBytes >= big.Stats.SizeBytes {
		t.Fatal("bitstream size not monotone")
	}
	if big.Stats.MemOps != 4 {
		t.Fatalf("MemOps = %d, want 4", big.Stats.MemOps)
	}
	if big.Stats.Resources.DSP == 0 {
		t.Fatal("multiplies should use DSPs")
	}
	if small.Stats.II != 1 {
		t.Fatalf("II = %d, want 1", small.Stats.II)
	}
}

func TestReconfigWindowForTypicalPrograms(t *testing.T) {
	// A 20-instruction filter and a 400-instruction monster must land
	// within the paper's 10–100 ms reconfig window on the default fabric.
	eng := sim.NewEngine(1)
	f := fabric.New(eng, fabric.DefaultConfig(), "")
	mk := func(n int) *Pipeline {
		src := ""
		for i := 0; i < n; i++ {
			src += "add r0, 1\n"
		}
		return compile(t, "mov r0, 0\n"+src+"exit", false)
	}
	lo := f.ReconfigTime(mk(20).Stats.SizeBytes)
	hi := f.ReconfigTime(mk(400).Stats.SizeBytes)
	if lo < 10*sim.Millisecond || lo > 40*sim.Millisecond {
		t.Fatalf("small program reconfig %v outside expectation", lo)
	}
	if hi < 50*sim.Millisecond || hi > 150*sim.Millisecond {
		t.Fatalf("large program reconfig %v outside expectation", hi)
	}
}

func TestBitstreamRunsOnFabric(t *testing.T) {
	eng := sim.NewEngine(1)
	f := fabric.New(eng, fabric.DefaultConfig(), "secret")
	p := compile(t, `
		ldxw r2, [r1+0]
		mov r0, r2
		add r0, 1
		exit`, true)
	bs := p.Bitstream()
	bs.AuthTag = "secret"
	if err := f.LoadBitstream(0, bs, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	ctx := make([]byte, 4)
	binary.LittleEndian.PutUint32(ctx, 41)
	w := &fabric.Work{Ctx: ctx, Ret: 7}
	var heard *fabric.Work
	if err := f.Submit(0, w, heardBy(func(hw *fabric.Work) { heard = hw })); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if heard != w || w.Ret != 42 || w.Err != nil {
		t.Fatalf("fabric result = %d, %v (heard %p, want %p), want 42", w.Ret, w.Err, heard, w)
	}
}

// heardBy is a func as a fabric.Completer.
type heardBy func(w *fabric.Work)

func (f heardBy) Processed(w *fabric.Work) { f(w) }

func TestCompileWithMapsAndHelpers(t *testing.T) {
	maps := &ebpf.MapSet{}
	id := maps.Add(ebpf.NewHashMap(4, 8, 8))
	cfg := ebpf.DefaultVerifierConfig(maps)
	src := `
		stw [r10-4], 1
		mov r1, ` + string(rune('0'+id)) + `
		mov r2, r10
		sub r2, 4
		call 1
		jeq r0, 0, miss
		ldxdw r0, [r0+0]
		exit
	miss:
		mov r0, 0
		exit`
	prog := ebpf.MustAssemble(src)
	p, err := Compile(prog, Options{Verifier: cfg, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := maps.Get(id)
	_ = m.Update([]byte{1, 0, 0, 0}, []byte{9, 0, 0, 0, 0, 0, 0, 0})
	if ret, err := p.Run(nil); err != nil || ret != 9 {
		t.Fatalf("map exec = %d, %v", ret, err)
	}
	if p.Stats.HelperCalls != 1 {
		t.Fatalf("HelperCalls = %d", p.Stats.HelperCalls)
	}
}

func TestOptimizerIdempotent(t *testing.T) {
	src := `
		mov r1, 4
		add r1, 4
		mov r0, r1
		exit`
	prog := ebpf.MustAssemble(src)
	once, err := Optimize(prog)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := Optimize(once)
	if err != nil {
		t.Fatal(err)
	}
	if len(once) != len(twice) {
		t.Fatalf("not idempotent: %d vs %d", len(once), len(twice))
	}
}

func BenchmarkCompile(b *testing.B) {
	prog := ebpf.MustAssemble(`
		ldxw r2, [r1+0]
		mov r0, 0
		jgt r2, 100, big
		mov r0, 1
		ja out
	big:
		mov r0, 2
	out:
		exit`)
	opts := Options{Optimize: true, Verifier: ebpf.DefaultVerifierConfig(nil)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(prog, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineRun runs a compiled program on a context in place,
// the way chase calls it per hop; steady state allocates nothing
// (asserted in-line).
func BenchmarkPipelineRun(b *testing.B) {
	prog := ebpf.MustAssemble(`
		ldxw r2, [r1+0]
		mov r0, r2
		and r0, 1023
		exit`)
	p, err := Compile(prog, Options{Verifier: ebpf.DefaultVerifierConfig(nil)})
	if err != nil {
		b.Fatal(err)
	}
	ctx := make([]byte, 8)
	one := func() {
		if _, err := p.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
	one()
	if a := testing.AllocsPerRun(200, one); a != 0 {
		b.Fatalf("Pipeline.Run allocates %v objects/op in steady state, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one()
	}
}
