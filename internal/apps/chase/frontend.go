package chase

import (
	_ "embed"
	"fmt"

	"hyperion/internal/ebpf"
	"hyperion/internal/ebpf/gofront"
)

// The per-hop program ships as restricted Go. Compile builds it into an
// image through ehdl.CompileSource; the hand-assembled original
// lives on in frontend_test.go as the differential-test oracle, and the
// two must stay shape-identical instruction by instruction.

//go:embed step_prog.go
var stepSource []byte

const stepFile = "step_prog.go"

// CompileStep runs step_prog.go through the restricted-Go frontend
// alone, for callers that want the instructions and not a pipeline.
func CompileStep() ([]ebpf.Instruction, error) {
	p, err := gofront.Compile(stepFile, stepSource, gofront.Options{})
	if err != nil {
		return nil, fmt.Errorf("chase: frontend: %w", err)
	}
	if err := checkCtxSize(p); err != nil {
		return nil, err
	}
	return p.Insns, nil
}

// checkCtxSize holds the source's context struct to the layout the
// service fills in.
func checkCtxSize(p *gofront.Program) error {
	if p.CtxSize != CtxBytes {
		return fmt.Errorf("chase: frontend context is %d bytes, want %d", p.CtxSize, CtxBytes)
	}
	return nil
}
