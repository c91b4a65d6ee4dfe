package bench

import (
	"testing"

	"hyperion/internal/ebpf"
)

// BenchmarkVM runs the E10 program suite on the VM. A steady-state Run
// must not allocate: the suite's programs call no helper, and the
// datapath executes one per item.
func BenchmarkVM(b *testing.B) {
	for _, p := range e10Programs {
		b.Run(p.name, func(b *testing.B) {
			vm := ebpf.NewVM(nil)
			if err := vm.Load(ebpf.MustAssemble(p.src)); err != nil {
				b.Fatal(err)
			}
			ctx := make([]byte, E10CtxBytes)
			run := func() {
				if _, err := vm.Run(ctx); err != nil {
					b.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
				b.Fatalf("%v allocs per Run, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
