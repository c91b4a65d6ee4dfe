package gofront

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// FuzzGofront holds the whole frontend to a generative contract: the
// fuzz input is a decision tape driving a generator that only produces
// programs inside the restricted-Go subset, so every generated source
// MUST compile, pass the verifier, and run to its exit without a
// runtime error. A diagnostic, a verifier rejection, or a trap is a
// frontend (or verifier) bug by construction.
//
// One exception, for the statements that index Arr or shift by
// something the interval analysis has to bound (genIndex, genGuarded,
// genShift32): the generator does not decide in advance whether the
// bound is provable, so an array-bounds diagnostic (and nothing else)
// is a legal answer for a program that has one. Compiled ⇒ verifies ⇒
// runs without trapping stays absolute: those statements are there to
// find an index or count the frontend can bound and the verifier
// cannot.
//
// Committed corpus seeds live in testdata/fuzz/FuzzGofront and run as
// regression inputs on every plain `go test`.

// tape dishes out generator decisions from the fuzz input; exhausted
// tapes return zeros so every prefix is a complete program.
type tape struct {
	data []byte
	pos  int
	// shapes counts the interval-analysis statements generated, by
	// name; a program with any may be refused for array-bounds.
	shapes map[string]int
}

func (t *tape) shape(name string) {
	if t.shapes == nil {
		t.shapes = map[string]int{}
	}
	t.shapes[name]++
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

// genFlat are the genStmt choices that open no block.
var genFlat = []int{0, 1, 2, 3, 4, 5, 6, 9, 10, 12}

// genStmt emits one statement. Loops and branches only appear at the
// top level (depth 1) so nesting stays bounded; inLoop gates continue.
func genStmt(b *strings.Builder, t *tape, depth int, topLevel bool) {
	ind := strings.Repeat("\t", depth)
	choice := t.pick(13)
	if !topLevel && (choice == 7 || choice == 8 || choice == 11) {
		choice = genFlat[t.pick(len(genFlat))] // no nested loops or branches
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
	case 9: // constant assignment
		fmt.Fprintf(b, "%s%s = %d\n", ind, genVar(t), int64(t.next())<<uint(t.pick(56)))
	case 10:
		fmt.Fprintf(b, "%s%s = ctx.Arr[%s]\n", ind, genVar(t), genIndex(t))
	case 11:
		genGuarded(b, t, ind)
	case 12:
		genShift32(b, t, ind)
	}
}

// genIndex is an index expression whose bound takes more than a mask:
// the interval of an or/xor of masked values, of a shift or a division
// by a range, of a sum that dips but cannot wrap. Most are in [0, 8)
// whatever the tape says; the masks and the raw shift count leave some
// that are not, or not provably.
func genIndex(t *tape) string {
	x, y := genVar(t), genVar(t)
	m := 1 + t.pick(7)
	if t.pick(8) == 0 {
		m = 8 + t.pick(8) // one bit too many
	}
	switch t.pick(6) {
	case 0:
		t.shape("or")
		return fmt.Sprintf("(%s&%d)|(%s&%d)", x, m, y, m)
	case 1:
		t.shape("xor")
		return fmt.Sprintf("(%s&%d)^(%s&%d)", x, m, y, m)
	case 2:
		t.shape("rsh-var")
		switch t.pick(3) {
		case 0:
			return fmt.Sprintf("(%s&7)>>%s", x, y) // count unproven
		case 1:
			return fmt.Sprintf("(%s&7)>>(%s&63)", x, y)
		}
		return fmt.Sprintf("(%s&63)>>((%s&3)+3)", x, y)
	case 3:
		t.shape("div-range")
		return fmt.Sprintf("(%s&15)/((%s&1)+%d)", x, y, 1+t.pick(3))
	case 4:
		t.shape("add-sub")
		return fmt.Sprintf("(%s&3)+4-(%s&3)", x, y)
	default:
		t.shape("rsh32")
		return fmt.Sprintf("uint32(%s)>>%d", x, 28+t.pick(4))
	}
}

// genGuarded reads Arr[x] under guards that bound x only through
// Refine: against another variable that a first guard bounded, or by
// trimming the one excluded endpoint off a range that is one too wide.
func genGuarded(b *strings.Builder, t *tape, ind string) {
	xi := t.pick(4)
	x, y, dst := fmt.Sprintf("v%d", xi), fmt.Sprintf("v%d", (xi+1+t.pick(3))%4), genVar(t)
	var outer, inner string
	switch t.pick(4) {
	case 0: // y <= 7, then x < y (or x <= y)
		t.shape("reg-reg-guard")
		outer = fmt.Sprintf("%s <= %d", y, 5+t.pick(4))
		inner = fmt.Sprintf("%s %s %s", x, []string{"<", "<="}[t.pick(2)], y)
	case 1: // the same, the register compare written from the other side
		t.shape("reg-reg-guard")
		outer = fmt.Sprintf("%s < %d", y, 6+t.pick(4))
		inner = fmt.Sprintf("%s %s %s", y, []string{">", ">="}[t.pick(2)], x)
	case 2: // x <= 8, then x != 8
		t.shape("ne-trim")
		k := 7 + t.pick(3)
		outer = fmt.Sprintf("%s <= %d", x, k)
		inner = fmt.Sprintf("%s != %d", x, k)
	default: // written as early exits from the block instead
		t.shape("ne-trim")
		fmt.Fprintf(b, "%sif %s <= 8 {\n%s\tif %s == 8 {\n%s\t\t%s = 0\n%s\t} else {\n%s\t\t%s = ctx.Arr[%s]\n%s\t}\n%s}\n",
			ind, x, ind, x, ind, dst, ind, ind, dst, x, ind, ind)
		return
	}
	fmt.Fprintf(b, "%sif %s {\n%s\tif %s {\n%s\t\t%s = ctx.Arr[%s]\n%s\t}\n%s}\n",
		ind, outer, ind, inner, ind, dst, x, ind, ind)
}

// genShift32 shifts at 32 bits, where the ISA masks the count with 31
// and Go does not: by a constant below the width, or by a variable the
// mask (sometimes one bit too wide) has to bound.
func genShift32(b *strings.Builder, t *tape, ind string) {
	dir := []string{"<<", ">>"}[t.pick(2)]
	dst, x := genVar(t), genVar(t)
	if t.pick(2) == 0 {
		fmt.Fprintf(b, "%s%s = uint64(uint32(%s) %s %d)\n", ind, dst, x, dir, t.pick(32))
		return
	}
	t.shape("shift32-var")
	fmt.Fprintf(b, "%s%s = uint64(uint32(%s) %s (%s & %d))\n", ind, dst, x, dir, genVar(t), []int{31, 15, 7, 3, 31, 15, 7, 63}[t.pick(8)])
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

// runGofrontTape holds the program data generates to the contract and
// returns the interval-analysis shapes in it if it compiled, nil if it
// was refused for array-bounds alone.
func runGofrontTape(t *testing.T, data []byte) map[string]int {
	t.Helper()
	tp := &tape{data: data}
	src := genProgram(tp)
	prog, err := Compile("fuzz.go", []byte(src), Options{})
	if err != nil {
		diags, _ := err.(DiagList)
		for _, d := range diags {
			if d.Rule != RuleBounds || len(tp.shapes) == 0 {
				t.Fatalf("generated program rejected:\n%s\n%v", src, err)
			}
		}
		return nil
	}
	if prog.CtxSize != genCtxSize {
		t.Fatalf("ctx size %d, want %d", prog.CtxSize, genCtxSize)
	}
	vm := verifyAndLoad(t, src, prog)
	if _, err := vm.Run(genCtx(tp)); err != nil {
		t.Fatalf("generated program trapped: %v\n%s", err, src)
	}
	return tp.shapes
}

func FuzzGofront(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 3, 1, 0, 8, 2, 9, 4, 11, 200, 3, 7, 8, 1, 2})
	f.Add([]byte{9, 8, 5, 3, 3, 0, 7, 1, 4, 4, 8, 0, 0, 3, 250, 13, 17})
	f.Fuzz(func(t *testing.T, data []byte) { runGofrontTape(t, data) })
}

// TestGeneratedProgramsCompile pushes a spread of deterministic tapes
// through the same contract on every plain test run, fuzz or not, and
// checks the spread is wide enough that every interval-analysis shape
// the generator knows got through the compiler, the verifier and a run
// at least once.
func TestGeneratedProgramsCompile(t *testing.T) {
	compiled := map[string]int{}
	for seed := 0; seed < 256; seed++ {
		data := make([]byte, 40)
		s := uint64(seed)*0x9e3779b97f4a7c15 + 1
		for i := range data {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			data[i] = byte(s)
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for shape, n := range runGofrontTape(t, data) {
				compiled[shape] += n
			}
		})
	}
	for _, shape := range []string{"or", "xor", "rsh-var", "div-range", "add-sub", "rsh32", "reg-reg-guard", "ne-trim", "shift32-var"} {
		if compiled[shape] == 0 {
			t.Errorf("no program with a %q statement compiled, verified and ran", shape)
		}
	}
	t.Logf("shapes that went the whole way: %v", compiled)
}
