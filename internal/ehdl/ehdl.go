// Package ehdl is Hyperion's eBPF-to-hardware compilation pipeline
// (§2.2): it takes a program in the eBPF intermediate representation,
// verifies it, optimizes it ("program warping" in the spirit of hXDP),
// estimates the hardware pipeline it would synthesize to (depth,
// initiation interval, resources, bitstream size), and emits a
// fabric.Bitstream whose functional payload is the program itself.
//
// The estimation model is architectural: each VLIW-fused stage retires a
// few instructions per cycle, memory/helper operations map to BRAM
// ports, and bitstream size scales with instruction count — giving the
// 10–100 ms partial-reconfiguration window the paper reports.
package ehdl

import (
	"errors"
	"fmt"

	"hyperion/internal/ebpf"
	"hyperion/internal/ebpf/gofront"
	"hyperion/internal/fabric"
)

// Options tune compilation.
type Options struct {
	// Name labels the generated accelerator.
	Name string
	// AuthTag is stamped into the bitstream for the config engine.
	AuthTag string
	// Optimize enables the warping passes.
	Optimize bool
	// CtxBytes is the context each item carries (defaults 512).
	CtxBytes int
	// Verifier supplies map/helper signatures. Maps/helper impls come
	// from the runtime via NewVM.
	Verifier ebpf.VerifierConfig
	// Helpers are installed into the execution VM.
	Helpers map[int32]ebpf.Helper
}

// ilp is the instructions retired per pipeline stage (VLIW fusion
// factor), hXDP-like.
const ilp = 3

// Stats describes the synthesized pipeline.
type Stats struct {
	Instructions int // after optimization
	OrigInsns    int // before optimization
	Depth        int // pipeline stages (cycles of latency)
	II           int // initiation interval (cycles per item)
	MemOps       int
	HelperCalls  int
	Resources    fabric.Resources
	SizeBytes    int64
}

// Pipeline is a compiled accelerator ready to load into a fabric slot.
type Pipeline struct {
	Name  string
	Prog  []ebpf.Instruction
	Stats Stats
	vm    *ebpf.VM
	opts  Options
}

// ErrCompile wraps compilation failures.
var ErrCompile = errors.New("ehdl: compilation failed")

// Compile verifies, optimizes, and packages prog.
func Compile(prog []ebpf.Instruction, opts Options) (*Pipeline, error) {
	if opts.Name == "" {
		opts.Name = "ehdl"
	}
	if opts.CtxBytes <= 0 {
		opts.CtxBytes = 512
	}
	vcfg := opts.Verifier
	if vcfg.CtxSize == 0 {
		vcfg.CtxSize = opts.CtxBytes
	}
	if err := ebpf.Verify(prog, vcfg); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCompile, err)
	}
	orig := len(prog)
	if opts.Optimize {
		var err error
		prog, err = Optimize(prog)
		if err != nil {
			return nil, fmt.Errorf("%w: optimizer: %v", ErrCompile, err)
		}
		// The optimizer must preserve verifiability.
		if err := ebpf.Verify(prog, vcfg); err != nil {
			return nil, fmt.Errorf("%w: optimizer broke verification: %v", ErrCompile, err)
		}
	}
	st := estimate(prog, opts)
	st.OrigInsns = orig

	vm := ebpf.NewVM(vcfg.Maps)
	//hyperlint:allow(maprange) RegisterHelper stores vm.helpers[id] for distinct ids; visit order cannot matter
	for id, h := range opts.Helpers {
		vm.RegisterHelper(id, h)
	}
	if err := vm.Load(prog); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCompile, err)
	}
	return &Pipeline{Name: opts.Name, Prog: prog, Stats: st, vm: vm, opts: opts}, nil
}

// CompileSource is the toolchain's front door, source to deployable
// pipeline: it compiles one restricted-Go file through gofront (consts
// overrides the constants the source declares), creates the hash maps
// its //hyperion:map directives declare, verifies against the context
// size the source's entry function fixes, and optimizes. The maps are
// the pipeline's own — reachable by id through p.VM().Maps — so every
// call yields an independent instance. name defaults to the entry
// function's. A source the frontend rejects comes back as its
// gofront.DiagList.
func CompileSource(filename string, src []byte, consts map[string]int64, name, authTag string) (*gofront.Program, *Pipeline, error) {
	prog, err := gofront.Compile(filename, src, gofront.Options{Consts: consts})
	if err != nil {
		return nil, nil, err
	}
	maps := &ebpf.MapSet{}
	for _, m := range prog.Maps {
		if id := maps.Add(ebpf.NewHashMap(m.KeySize, m.ValueSize, m.Entries)); id != m.ID {
			return nil, nil, fmt.Errorf("%w: %s: map %s has id %d, want %d (ids count up from 0)",
				ErrCompile, filename, m.Name, m.ID, id)
		}
	}
	if name == "" {
		name = prog.Entry
	}
	vcfg := ebpf.DefaultVerifierConfig(maps)
	vcfg.CtxSize = prog.CtxSize
	pipe, err := Compile(prog.Insns, Options{
		Name:     name,
		AuthTag:  authTag,
		Optimize: true,
		CtxBytes: prog.CtxSize,
		Verifier: vcfg,
	})
	if err != nil {
		return nil, nil, err
	}
	return prog, pipe, nil
}

// estimate derives the hardware shape from the instruction mix.
func estimate(prog []ebpf.Instruction, opts Options) Stats {
	st := Stats{Instructions: len(prog), II: 1}
	for _, ins := range prog {
		switch ins.Class() {
		case ebpf.ClassLDX, ebpf.ClassSTX, ebpf.ClassST:
			st.MemOps++
		}
		if ins.IsCall() {
			st.HelperCalls++
		}
	}
	longest := longestPath(prog)
	st.Depth = 4 + (longest+ilp-1)/ilp + 2*st.HelperCalls
	// Each helper needs a BRAM port visit per item; four ports are
	// banked, so heavy helper use stretches the initiation interval.
	if st.HelperCalls > 4 {
		st.II = 1 + (st.HelperCalls-1)/4
	}
	st.Resources = fabric.Resources{
		LUTs: 2000 + 450*st.Instructions + 1500*st.HelperCalls,
		FFs:  4000 + 700*st.Instructions,
		BRAM: 4 + 2*st.MemOps + 8*st.HelperCalls,
		DSP:  countMuls(prog) * 4,
	}
	st.SizeBytes = int64(4<<20) + int64(st.Instructions)*100<<10
	return st
}

func countMuls(prog []ebpf.Instruction) int {
	n := 0
	for _, ins := range prog {
		cls := ins.Class()
		if (cls == ebpf.ClassALU || cls == ebpf.ClassALU64) && ins.Op&0xf0 == ebpf.ALUMul {
			n++
		}
	}
	return n
}

// longestPath returns the longest instruction chain through the CFG.
// Verified programs are DAGs, so a reverse topological sweep works.
func longestPath(prog []ebpf.Instruction) int {
	targets, err := ebpf.JumpTargets(prog)
	if err != nil {
		panic("ehdl: estimating an unverified program: " + err.Error())
	}
	n := len(prog)
	memo := make([]int, n+1)
	for i := n - 1; i >= 0; i-- {
		ins := prog[i]
		best := 0
		switch {
		case ins.IsExit():
		case ins.IsJump():
			best = memo[targets[i]]
			if ins.Op&0xf0 != ebpf.JmpA && memo[i+1] > best {
				best = memo[i+1]
			}
		default:
			best = memo[i+1]
		}
		memo[i] = best + 1
	}
	return memo[0]
}

// Bitstream packages the pipeline for the fabric. Each item's
// *fabric.Work runs in place: the program reads and rewrites its Ctx and
// leaves r0 in Ret and any runtime fault in Err. An item submitted
// without a Work gives the program nothing to run on and passes through.
func (p *Pipeline) Bitstream() *fabric.Bitstream {
	return &fabric.Bitstream{
		Name:      p.Name,
		SizeBytes: p.Stats.SizeBytes,
		Uses:      p.Stats.Resources,
		Depth:     p.Stats.Depth,
		II:        p.Stats.II,
		AuthTag:   p.opts.AuthTag,
		Process: func(in any) any {
			if w, _ := in.(*fabric.Work); w != nil {
				w.Ret, w.Err = p.Run(w.Ctx)
			}
			return in
		},
	}
}

// Run runs the pipeline's program once on ctx in place, returning r0
// and any runtime fault (verified programs never fault).
func (p *Pipeline) Run(ctx []byte) (uint64, error) {
	p.vm.ResetWindows()
	return p.vm.Run(ctx)
}

// VM exposes the underlying VM: its Maps are the pipeline's state, and
// tests install clocks on it.
func (p *Pipeline) VM() *ebpf.VM { return p.vm }
