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

// Image is a compiled offload: the verified, optimized program, the
// hardware shape it synthesizes to, its auth tag, and the map
// declarations its state is built from. An Image holds no state and is
// never written after compilation, so one compile serves every
// deployment of a source: Instance gives each its own maps and VM.
type Image struct {
	Stats   Stats
	prog    []ebpf.Instruction
	authTag string
	maps    []gofront.MapDecl
}

// Pipeline is a compiled accelerator ready to load into a fabric slot:
// an image's program bound to one VM and the maps that VM reads.
type Pipeline struct {
	Name    string
	Prog    []ebpf.Instruction
	Stats   Stats
	authTag string
	vm      *ebpf.VM
}

// ErrCompile wraps compilation failures.
var ErrCompile = errors.New("ehdl: compilation failed")

// Compile verifies, optimizes, and packages prog, bound to the maps
// opts.Verifier declares: the caller's MapSet is the pipeline's state.
func Compile(prog []ebpf.Instruction, opts Options) (*Pipeline, error) {
	if opts.Name == "" {
		opts.Name = "ehdl"
	}
	img, err := compileImage(prog, opts)
	if err != nil {
		return nil, err
	}
	return img.bind(opts.Name, opts.Verifier.Maps), nil
}

// compileImage is the toolchain proper: verify, optimize, verify again,
// estimate. Its Image declares no maps; CompileSource adds them.
func compileImage(prog []ebpf.Instruction, opts Options) (*Image, error) {
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
	st := estimate(prog)
	st.OrigInsns = orig
	return &Image{Stats: st, prog: prog, authTag: opts.AuthTag}, nil
}

// CompileSource is the toolchain's front door, source to image: it
// compiles one restricted-Go file through gofront (consts overrides the
// constants the source declares), verifies against the hash maps its
// //hyperion:map directives declare and the context size its entry
// function fixes, and optimizes. It runs once per source; every
// deployment is an Instance of the image. A source the frontend
// rejects comes back as its gofront.DiagList.
func CompileSource(filename string, src []byte, consts map[string]int64, authTag string) (*gofront.Program, *Image, error) {
	prog, err := gofront.Compile(filename, src, gofront.Options{Consts: consts})
	if err != nil {
		return nil, nil, err
	}
	for i, m := range prog.Maps {
		if m.ID != i {
			return nil, nil, fmt.Errorf("%w: %s: map %s has id %d, want %d (ids count up from 0)",
				ErrCompile, filename, m.Name, m.ID, i)
		}
	}
	vcfg := ebpf.DefaultVerifierConfig(newMaps(prog.Maps))
	vcfg.CtxSize = prog.CtxSize
	img, err := compileImage(prog.Insns, Options{
		AuthTag:  authTag,
		Optimize: true,
		CtxBytes: prog.CtxSize,
		Verifier: vcfg,
	})
	if err != nil {
		return nil, nil, err
	}
	img.maps = prog.Maps
	return prog, img, nil
}

// Instance binds the image's program to fresh state: a MapSet built
// from the image's declarations alone, so two instances never share an
// entry, and a VM over the image's instruction slice. The verifier
// reads nothing of a map but its id, key size and value size, which
// the declarations fix, so its verdict holds for every instance and
// nothing is verified again.
func (img *Image) Instance(name string) *Pipeline {
	return img.bind(name, newMaps(img.maps))
}

// newMaps builds one empty hash map per declaration, ids in order.
func newMaps(decls []gofront.MapDecl) *ebpf.MapSet {
	maps := &ebpf.MapSet{}
	for _, m := range decls {
		maps.Add(ebpf.NewHashMap(m.KeySize, m.ValueSize, m.Entries))
	}
	return maps
}

func (img *Image) bind(name string, maps *ebpf.MapSet) *Pipeline {
	vm := ebpf.NewVM(maps)
	if err := vm.Load(img.prog); err != nil {
		panic("ehdl: loading a verified program: " + err.Error())
	}
	return &Pipeline{Name: name, Prog: img.prog, Stats: img.Stats, authTag: img.authTag, vm: vm}
}

// estimate derives the hardware shape from the instruction mix.
func estimate(prog []ebpf.Instruction) Stats {
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
		AuthTag:   p.authTag,
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
