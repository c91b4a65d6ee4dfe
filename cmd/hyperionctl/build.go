package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hyperion/internal/ebpf"
	"hyperion/internal/ebpf/gofront"
	"hyperion/internal/ehdl"
)

// cmdBuild is the offload author's inner loop: compile one
// restricted-Go source through the gofront frontend, run it through
// the verifier and the hardware pipeline compiler, and print the
// program an operator would deploy — or every contract diagnostic
// when the source steps outside the subset. Exit status 1 means the
// program was rejected; the diagnostics on stderr say which contract
// rule each offending line violated.
func cmdBuild(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: hyperionctl build <file.go>")
		return 2
	}
	path := args[0]
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "build:", err)
		return 1
	}
	prog, img, err := ehdl.CompileSource(filepath.Base(path), src, nil, "hyperionctl-build")
	if err != nil {
		var diags gofront.DiagList
		if errors.As(err, &diags) {
			for _, d := range diags {
				fmt.Fprintln(stderr, d.Error())
			}
			fmt.Fprintf(stderr, "build: %s rejected (%d diagnostics)\n", path, len(diags))
		} else {
			fmt.Fprintln(stderr, "build:", err)
		}
		return 1
	}

	fmt.Fprintf(stdout, "entry %s: ctx %d bytes, %d instructions\n",
		prog.Entry, prog.CtxSize, len(prog.Insns))
	for _, m := range prog.Maps {
		fmt.Fprintf(stdout, "map %d %s: key %dB value %dB, %d entries\n",
			m.ID, m.Name, m.KeySize, m.ValueSize, m.Entries)
	}
	st := img.Stats
	fmt.Fprintf(stdout, "pipeline: %d uops (%d before optimization), depth %d, II %d, %d mem ops, %d helper calls\n",
		st.Instructions, st.OrigInsns, st.Depth, st.II, st.MemOps, st.HelperCalls)
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, ebpf.Disassemble(prog.Insns))
	return 0
}
