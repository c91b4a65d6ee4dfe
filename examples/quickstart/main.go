// Quickstart: boot a CPU-free Hyperion DPU, store an object in the
// single-level segment store, load a verified eBPF accelerator into a
// fabric slot, and push a packet through it — the whole §2 stack in
// fifty lines of API.
package main

import (
	"fmt"
	"log"

	"hyperion/internal/core"
	"hyperion/internal/ebpf"
	"hyperion/internal/ehdl"
	"hyperion/internal/fabric"
	"hyperion/internal/netsim"
	"hyperion/internal/seg"
	"hyperion/internal/sim"
)

func main() {
	// A simulation engine is the substrate for everything: virtual time
	// in picoseconds, fully deterministic for a given seed.
	eng := sim.NewEngine(42)
	net := netsim.New(eng, netsim.DefaultConfig())

	// Boot the DPU: fabric self-test, on-card PCIe enumeration of the
	// four NVMe SSDs, segment store, QSFP attach. No host CPU anywhere.
	dpu, enum, err := core.Boot(eng, net, core.DefaultConfig("demo"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("booted:")
	for _, line := range enum {
		fmt.Println(" ", line)
	}

	// 1. Single-level store: a durable 128-bit-addressed object that
	// lands on NVMe, written and read back through the same API as DRAM.
	id := seg.OID(0xCAFE, 1)
	if _, err := dpu.Store.Alloc(id, 4096, true, seg.HintAuto); err != nil {
		log.Fatal(err)
	}
	if err := dpu.View.WriteAt(id, 0, []byte("hello, CPU-free world")); err != nil {
		log.Fatal(err)
	}
	eng.After(dpu.View.TakeCost(), "quickstart.write", func() {
		fmt.Printf("object %v durable at t=%v\n", id, eng.Now())
	})
	eng.Run()

	// 2. Programming: an eBPF program (the paper's accelerator-neutral
	// IR), verified and compiled into a hardware pipeline estimate.
	prog := ebpf.MustAssemble(`
		ldxw r2, [r1+0]     ; first word of the packet
		mov r0, 0
		jgt r2, 1000, big
		mov r0, 1           ; small packets accepted
	big:	exit`)
	pipe, err := ehdl.Compile(prog, ehdl.Options{
		Name:     "tiny-filter",
		AuthTag:  dpu.Cfg.AuthTag,
		Optimize: true,
		CtxBytes: 64,
		Verifier: ebpf.DefaultVerifierConfig(nil),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled: %d insns → depth %d, II %d, %.1f MiB bitstream\n",
		pipe.Stats.Instructions, pipe.Stats.Depth, pipe.Stats.II,
		float64(pipe.Stats.SizeBytes)/(1<<20))

	// 3. Partial reconfiguration: load it into slot 0 (10–100 ms ICAP
	// window), then push an item through the pipeline.
	if err := dpu.LoadAccelerator(0, pipe.Bitstream(), func() {
		fmt.Printf("slot 0 active at t=%v\n", eng.Now())
	}); err != nil {
		log.Fatal(err)
	}
	eng.Run()
	// The item is a Work the caller owns: the program runs on its
	// context in place and leaves its verdict in Ret.
	work := &fabric.Work{Ctx: make([]byte, 64)}
	work.Ctx[0] = 99 // first word = 99 ≤ 1000 → accept
	if err := dpu.Submit(0, work, verdictPrinter{eng}); err != nil {
		log.Fatal(err)
	}
	eng.Run()
	fmt.Println("done")
}

// verdictPrinter hears the item leave the slot.
type verdictPrinter struct{ eng *sim.Engine }

func (v verdictPrinter) Processed(w *fabric.Work) {
	fmt.Printf("pipeline verdict=%d at t=%v (deterministic latency)\n", w.Ret, v.eng.Now())
}
