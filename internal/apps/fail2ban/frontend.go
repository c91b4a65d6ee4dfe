package fail2ban

import (
	_ "embed"
	"fmt"

	"hyperion/internal/ebpf"
	"hyperion/internal/ebpf/gofront"
)

// The packet filter ships as restricted Go, with the ban threshold
// injected as a constant override. NewPipeline builds it into a
// pipeline through ehdl.CompileSource, which also creates the maps the
// source declares; the hand-assembled original lives on in
// frontend_test.go as the differential-test oracle, and the two must
// stay shape-identical instruction by instruction.

//go:embed filter_prog.go
var filterSource []byte

const filterFile = "filter_prog.go"

// ctxBytes is the trace.Packet.Marshal wire size.
const ctxBytes = 20

func filterConsts(threshold int) map[string]int64 {
	return map[string]int64{"threshold": int64(threshold)}
}

// CompileFilter runs filter_prog.go through the restricted-Go frontend
// alone for the given ban threshold, for callers that want the
// instructions and not a pipeline.
func CompileFilter(threshold int) ([]ebpf.Instruction, error) {
	p, err := gofront.Compile(filterFile, filterSource, gofront.Options{Consts: filterConsts(threshold)})
	if err != nil {
		return nil, fmt.Errorf("fail2ban: frontend: %w", err)
	}
	if err := checkCtxSize(p); err != nil {
		return nil, err
	}
	return p.Insns, nil
}

// checkCtxSize holds the source's Packet struct to the wire layout.
func checkCtxSize(p *gofront.Program) error {
	if p.CtxSize != ctxBytes {
		return fmt.Errorf("fail2ban: frontend context is %d bytes, want %d", p.CtxSize, ctxBytes)
	}
	return nil
}
