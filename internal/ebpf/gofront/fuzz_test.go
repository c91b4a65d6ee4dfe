package gofront

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"hyperion/internal/ebpf"
)

// FuzzGofront holds the whole frontend to a generative contract: the
// fuzz input is a decision tape driving a generator that only produces
// programs inside the restricted-Go subset, so every generated source
// MUST compile, pass the verifier, and run to its exit without a
// runtime error. A diagnostic, a verifier rejection, or a trap is a
// frontend (or verifier) bug by construction.
//
// Committed corpus seeds live in testdata/fuzz/FuzzGofront and run as
// regression inputs on every plain `go test`.

// tape dishes out generator decisions from the fuzz input; exhausted
// tapes return zeros so every prefix is a complete program.
type tape struct {
	data []byte
	pos  int
}

func (t *tape) next() byte {
	if t.pos >= len(t.data) {
		return 0
	}
	b := t.data[t.pos]
	t.pos++
	return b
}

func (t *tape) pick(n int) int { return int(t.next()) % n }

// genCtxSize is the size of the generated programs' context struct.
const genCtxSize = 104

const genHeader = `package prog

type Ctx struct {
	A    uint64
	B    uint64    ` + "`" + `hyperion:"offset=8"` + "`" + `
	C    uint32    ` + "`" + `hyperion:"offset=16"` + "`" + `
	D    uint16    ` + "`" + `hyperion:"offset=20"` + "`" + `
	E    uint8     ` + "`" + `hyperion:"offset=22"` + "`" + `
	Arr  [8]uint64 ` + "`" + `hyperion:"offset=24"` + "`" + `
	Out0 uint64    ` + "`" + `hyperion:"offset=88"` + "`" + `
	Out1 uint64    ` + "`" + `hyperion:"offset=96"` + "`" + `
}

func Run(ctx *Ctx) uint64 {
	v0 := ctx.A
	v1 := ctx.B
	v2 := uint64(ctx.C)
	v3 := uint64(ctx.D)
`

// genProgram turns a decision tape into a valid restricted-Go source.
func genProgram(t *tape) string {
	var b strings.Builder
	b.WriteString(genHeader)
	n := 3 + t.pick(12)
	for i := 0; i < n; i++ {
		genStmt(&b, t, 1, true)
	}
	b.WriteString("\tctx.Out0 = v2\n")
	b.WriteString("\tctx.Out1 = v3\n")
	b.WriteString("\treturn v0 + v1\n}\n")
	return b.String()
}

var genOps = []string{"+", "-", "*", "/", "%", "&", "|", "^"}

func genVar(t *tape) string { return fmt.Sprintf("v%d", t.pick(4)) }

// genStmt emits one statement. Loops and branches only appear at the
// top level (depth 1) so nesting stays bounded; inLoop gates continue.
func genStmt(b *strings.Builder, t *tape, depth int, topLevel bool) {
	ind := strings.Repeat("\t", depth)
	choice := t.pick(10)
	if !topLevel && choice >= 7 {
		choice = t.pick(7) // no nested loops or branches
	}
	switch choice {
	case 0, 1: // arithmetic on locals
		op := genOps[t.pick(len(genOps))]
		rhs := genVar(t)
		if op == "/" || op == "%" {
			rhs = fmt.Sprintf("%d", 1+t.pick(13))
		}
		fmt.Fprintf(b, "%s%s = %s %s %s\n", ind, genVar(t), genVar(t), op, rhs)
	case 2: // constant shift
		dir := "<<"
		if t.pick(2) == 1 {
			dir = ">>"
		}
		fmt.Fprintf(b, "%s%s = %s %s %d\n", ind, genVar(t), genVar(t), dir, t.pick(32))
	case 3: // masked array read — provably in bounds
		fmt.Fprintf(b, "%s%s = ctx.Arr[%s&7]\n", ind, genVar(t), genVar(t))
	case 4: // context write-back
		out := "Out0"
		if t.pick(2) == 1 {
			out = "Out1"
		}
		fmt.Fprintf(b, "%sctx.%s = %s\n", ind, out, genVar(t))
	case 5: // narrowing conversion chain (stays uint64-typed)
		width := []string{"uint8", "uint16", "uint32"}[t.pick(3)]
		fmt.Fprintf(b, "%s%s = uint64(%s(%s))\n", ind, genVar(t), width, genVar(t))
	case 6: // byte-ish context reads
		src := []string{"uint64(ctx.E)", "uint64(ctx.D)", "uint64(ctx.C)", "ctx.B"}[t.pick(4)]
		fmt.Fprintf(b, "%s%s = %s\n", ind, genVar(t), src)
	case 7: // guarded block, optionally with else
		cmp := []string{"==", "!=", "<", "<=", ">", ">="}[t.pick(6)]
		rhs := genVar(t)
		if t.pick(2) == 1 {
			rhs = fmt.Sprintf("%d", t.pick(64))
		}
		fmt.Fprintf(b, "%sif %s %s %s {\n", ind, genVar(t), cmp, rhs)
		for i, m := 0, 1+t.pick(2); i < m; i++ {
			genStmt(b, t, depth+1, false)
		}
		if t.pick(2) == 1 {
			fmt.Fprintf(b, "%s} else {\n", ind)
			genStmt(b, t, depth+1, false)
		}
		fmt.Fprintf(b, "%s}\n", ind)
	case 8: // bounded loop, loop var is a per-copy constant
		trips := 1 + t.pick(6)
		fmt.Fprintf(b, "%sfor i := 0; i < %d; i++ {\n", ind, trips)
		for i, m := 0, 1+t.pick(2); i < m; i++ {
			if t.pick(4) == 0 {
				fmt.Fprintf(b, "%s\tif %s > i {\n%s\t\tcontinue\n%s\t}\n", ind, genVar(t), ind, ind)
			} else {
				genStmt(b, t, depth+1, false)
			}
		}
		fmt.Fprintf(b, "%s\t%s = %s + i\n%s}\n", ind, genVar(t), genVar(t), ind)
	default: // constant assignment
		fmt.Fprintf(b, "%s%s = %d\n", ind, genVar(t), int64(t.next())<<uint(t.pick(56)))
	}
}

// genCtx fills a context buffer from the tail of the tape.
func genCtx(t *tape) []byte {
	ctx := make([]byte, genCtxSize)
	for off := 0; off < genCtxSize; off += 8 {
		binary.LittleEndian.PutUint64(ctx[off:],
			uint64(t.next())|uint64(t.next())<<8|uint64(t.next())<<24|uint64(t.next())<<56)
	}
	return ctx
}

func runGofrontTape(t *testing.T, data []byte) {
	t.Helper()
	tp := &tape{data: data}
	src := genProgram(tp)
	prog, err := Compile("fuzz.go", []byte(src), Options{})
	if err != nil {
		t.Fatalf("generated program rejected:\n%s\n%v", src, err)
	}
	if prog.CtxSize != genCtxSize {
		t.Fatalf("ctx size %d, want %d", prog.CtxSize, genCtxSize)
	}
	vcfg := ebpf.DefaultVerifierConfig(nil)
	vcfg.CtxSize = genCtxSize
	if err := ebpf.Verify(prog.Insns, vcfg); err != nil {
		t.Fatalf("generated program failed the verifier:\n%s\n%s\n%v",
			src, ebpf.Disassemble(prog.Insns), err)
	}
	vm := ebpf.NewVM(nil)
	if err := vm.Load(prog.Insns); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := vm.Run(genCtx(tp)); err != nil {
		t.Fatalf("generated program trapped: %v\n%s", err, src)
	}
}

func FuzzGofront(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 3, 1, 0, 8, 2, 9, 4, 11, 200, 3, 7, 8, 1, 2})
	f.Add([]byte{9, 8, 5, 3, 3, 0, 7, 1, 4, 4, 8, 0, 0, 3, 250, 13, 17})
	f.Fuzz(runGofrontTape)
}

// TestGeneratedProgramsCompile pushes a spread of deterministic tapes
// through the same contract on every plain test run, fuzz or not.
func TestGeneratedProgramsCompile(t *testing.T) {
	for seed := 0; seed < 64; seed++ {
		data := make([]byte, 40)
		s := uint64(seed)*0x9e3779b97f4a7c15 + 1
		for i := range data {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			data[i] = byte(s)
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runGofrontTape(t, data)
		})
	}
}
