package gofront

import (
	"encoding/binary"
	"strings"
	"testing"

	"hyperion/internal/ebpf"
)

const miniFilter = `package prog

//hyperion:map bans id=0 key=4 value=8 entries=1024

type Pkt struct {
	Src  uint32
	Mark uint8 ` + "`" + `hyperion:"offset=4"` + "`" + `
	_    uint8 ` + "`" + `hyperion:"offset=7"` + "`" + `
}

const limit = 3

//hyperion:helper 1
func mapLookup(m uint32, k *uint32) *uint64

func Filter(ctx *Pkt) uint64 {
	var key uint32
	key = ctx.Src
	p := mapLookup(0, &key)
	if p == nil {
		return 0
	}
	n := *p
	if n >= limit {
		return 2
	}
	return 1
}
`

func compileMini(t *testing.T, opts Options) *Program {
	t.Helper()
	p, err := Compile("mini.go", []byte(miniFilter), opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func TestCompileSurface(t *testing.T) {
	p := compileMini(t, Options{})
	if p.Entry != "Filter" {
		t.Errorf("entry %q, want Filter", p.Entry)
	}
	if p.CtxSize != 8 {
		t.Errorf("ctx size %d, want 8", p.CtxSize)
	}
	if len(p.Maps) != 1 || p.Maps[0].Name != "bans" || p.Maps[0].ID != 0 ||
		p.Maps[0].KeySize != 4 || p.Maps[0].ValueSize != 8 || p.Maps[0].Entries != 1024 {
		t.Errorf("maps = %+v", p.Maps)
	}
	maps := &ebpf.MapSet{}
	maps.Add(ebpf.NewHashMap(4, 8, 1024))
	vcfg := ebpf.DefaultVerifierConfig(maps)
	vcfg.CtxSize = p.CtxSize
	if err := ebpf.Verify(p.Insns, vcfg); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// Options.Consts is the deploy-time -D: overriding limit must change
// the emitted comparison immediate and nothing else.
func TestConstOverride(t *testing.T) {
	base := compileMini(t, Options{})
	over := compileMini(t, Options{Consts: map[string]int64{"limit": 77}})
	if len(base.Insns) != len(over.Insns) {
		t.Fatalf("override changed program length: %d vs %d", len(base.Insns), len(over.Insns))
	}
	changed := 0
	for i := range base.Insns {
		b, o := base.Insns[i], over.Insns[i]
		if b == o {
			continue
		}
		changed++
		if b.Imm != 3 || o.Imm != 77 {
			t.Errorf("insn %d changed unexpectedly: %+v vs %+v", i, b, o)
		}
	}
	if changed != 1 {
		t.Errorf("override changed %d instructions, want exactly the threshold compare", changed)
	}
}

func TestUnknownConstOverride(t *testing.T) {
	_, err := Compile("mini.go", []byte(miniFilter), Options{Consts: map[string]int64{"nosuch": 1}})
	if err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("want unknown-const error, got %v", err)
	}
}

// 64-bit constants must round-trip through LDDW emission.
func TestWideConstant(t *testing.T) {
	src := `package prog

type Ctx struct {
	A uint64
}

func Run(ctx *Ctx) uint64 {
	v := ctx.A
	if v == 0x1122334455667788 {
		return 1
	}
	return 0
}
`
	p, err := Compile("wide.go", []byte(src), Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	vcfg := ebpf.DefaultVerifierConfig(nil)
	vcfg.CtxSize = 8
	if err := ebpf.Verify(p.Insns, vcfg); err != nil {
		t.Fatalf("verify: %v", err)
	}
	run := func(val uint64) uint64 {
		vm := ebpf.NewVM(nil)
		if err := vm.Load(p.Insns); err != nil {
			t.Fatal(err)
		}
		ctx := make([]byte, 8)
		for i := 0; i < 8; i++ {
			ctx[i] = byte(val >> (8 * i))
		}
		ret, err := vm.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return ret
	}
	if got := run(0x1122334455667788); got != 1 {
		t.Errorf("matching wide constant: ret %d, want 1", got)
	}
	if got := run(42); got != 0 {
		t.Errorf("non-matching wide constant: ret %d, want 0", got)
	}
}

// The frontend and the verifier share one interval domain
// (ebpf.Interval), so whatever index checkBounds proves the verifier
// proves again on the emitted code. Every row below compiled and was
// then refused by ebpf.Verify while the two kept private transfer
// functions, or (the const and shift rows) compiled to code that
// disagreed with Go.

const contractHeader = `package prog

const Top = 0x8000000000000000

type Ctx struct {
	A    uint64
	B    uint64    ` + "`" + `hyperion:"offset=8"` + "`" + `
	Vals [8]uint64 ` + "`" + `hyperion:"offset=16"` + "`" + `
}

func Run(ctx *Ctx) uint64 {
	a := ctx.A
	b := ctx.B
`

// Vals ends the context, so an index one past the array is also one
// past what the verifier allows.
const contractCtxSize = 80

// contractCtxs samples contexts around the boundaries the rows guard.
func contractCtxs() [][]byte {
	vals := []uint64{0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 31, 32, 63, 64, 65, 255, 1 << 32, 1<<32 + 8, 1 << 63, ^uint64(0)}
	var out [][]byte
	for _, a := range vals {
		for _, b := range vals {
			ctx := make([]byte, contractCtxSize)
			binary.LittleEndian.PutUint64(ctx[0:], a)
			binary.LittleEndian.PutUint64(ctx[8:], b)
			for i := 0; i < 8; i++ {
				binary.LittleEndian.PutUint64(ctx[16+8*i:], uint64(100+i))
			}
			out = append(out, ctx)
		}
	}
	return out
}

// verifyAndLoad is the middle of the contract every map-free program
// that compiled is held to: the verifier accepts it and the VM loads it.
func verifyAndLoad(t *testing.T, src string, prog *Program) *ebpf.VM {
	t.Helper()
	vcfg := ebpf.DefaultVerifierConfig(nil)
	vcfg.CtxSize = prog.CtxSize
	if err := ebpf.Verify(prog.Insns, vcfg); err != nil {
		t.Fatalf("compiled but failed the verifier:\n%s\n%s\n%v", src, ebpf.Disassemble(prog.Insns), err)
	}
	vm := ebpf.NewVM(nil)
	if err := vm.Load(prog.Insns); err != nil {
		t.Fatalf("load: %v", err)
	}
	return vm
}

// compileVerifyRun holds body (the statements of Run after a and b are
// loaded) to the whole contract and calls check, when not nil, on every
// sampled context's a, b and result.
func compileVerifyRun(t *testing.T, body string, check func(a, b, ret uint64)) {
	t.Helper()
	src := contractHeader + body + "}\n"
	prog, err := Compile("contract.go", []byte(src), Options{})
	if err != nil {
		t.Fatalf("rejected:\n%s\n%v", src, err)
	}
	vm := verifyAndLoad(t, src, prog)
	for _, ctx := range contractCtxs() {
		a, b := binary.LittleEndian.Uint64(ctx[0:]), binary.LittleEndian.Uint64(ctx[8:])
		ret, err := vm.Run(ctx)
		if err != nil {
			t.Fatalf("a=%#x b=%#x: trapped: %v\n%s", a, b, err, src)
		}
		if check != nil {
			check(a, b, ret)
		}
	}
}

func TestFrontendAcceptsImpliesVerifierAccepts(t *testing.T) {
	rows := []struct{ name, body string }{
		{"or_bitlen", "\treturn ctx.Vals[(a&4)|(b&4)]\n"},
		{"xor_bitlen", "\treturn ctx.Vals[(a&4)^(b&4)]\n"},
		{"rsh_by_variable", "\tif b > 63 {\n\t\treturn 0\n\t}\n\treturn ctx.Vals[(a&7)>>b]\n"},
		{"div_by_variable", "\treturn ctx.Vals[(a&7)/b]\n"},
		{"div_by_range", "\treturn ctx.Vals[(a&15)/((b&1)+2)]\n"},
		{"reg_reg_guard", "\tm := b & 7\n\tif a > m {\n\t\treturn 0\n\t}\n\treturn ctx.Vals[a]\n"},
		{"ne_endpoint_trim", "\tif a > 8 {\n\t\treturn 0\n\t}\n\tif a == 8 {\n\t\treturn 0\n\t}\n\treturn ctx.Vals[a]\n"},
		{"dead_guard_body", "\tx := a & 3\n\tif x > 5 {\n\t\treturn ctx.Vals[x+6]\n\t}\n\treturn ctx.Vals[x]\n"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			compileVerifyRun(t, r.body, func(a, b, ret uint64) {
				if ret != 0 && (ret < 100 || ret > 107) {
					t.Fatalf("a=%#x b=%#x: returned %#x, not an element of Vals", a, b, ret)
				}
			})
		})
	}
}

// Constant expressions fold with Go's exact semantics, not int64's.
func TestConstantFoldingIsExact(t *testing.T) {
	rows := []struct {
		name, body string
		want       func(a uint64) uint64
	}{
		{"unsigned_div", "\treturn a + (0x8000000000000000 / 2)\n", func(a uint64) uint64 { return a + 0x4000000000000000 }},
		{"unsigned_shr", "\treturn a + (0x8000000000000000 >> 4)\n", func(a uint64) uint64 { return a + 0x0800000000000000 }},
		{"unsigned_rem", "\treturn a + (0xffffffffffffffff % 10)\n", func(a uint64) uint64 { return a + 0xffffffffffffffff%10 }},
		{"wide_intermediate", "\treturn a + (1 << 70 >> 68)\n", func(a uint64) uint64 { return a + 4 }},
		{"compare", "\tif -1 < 3 {\n\t\ta += 1\n\t}\n\treturn a\n", func(a uint64) uint64 { return a + 1 }},
		{"loop_bounds", "\tfor i := -2; i < 2; i++ {\n\t\ta += 1\n\t}\n\treturn a\n", func(a uint64) uint64 { return a + 4 }},
		{"named_wide", "\treturn a + Top/2\n", func(a uint64) uint64 { return a + 0x4000000000000000 }},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			body := r.body
			compileVerifyRun(t, body, func(a, _, ret uint64) {
				if want := r.want(a); ret != want {
					t.Fatalf("a=%#x: returned %#x, Go says %#x", a, ret, want)
				}
			})
		})
	}
}

// Shifts mean what Go says they mean: a count the compiler cannot show
// is below the operand width is refused (testdata/diag/shift.go), and
// one it can show is the ISA's own shift.
func TestShiftsFollowGo(t *testing.T) {
	compileVerifyRun(t, "\tif b > 63 {\n\t\treturn 0\n\t}\n\treturn a<<b | a>>b\n", func(a, b, ret uint64) {
		want := uint64(0)
		if b <= 63 {
			want = a<<b | a>>b
		}
		if ret != want {
			t.Fatalf("a=%#x b=%d: returned %#x, Go says %#x", a, b, ret, want)
		}
	})
	compileVerifyRun(t, "\tc := uint32(a)\n\tn := b & 31\n\treturn uint64(c >> n)\n", func(a, b, ret uint64) {
		if want := uint64(uint32(a) >> (b & 31)); ret != want {
			t.Fatalf("a=%#x b=%d: returned %#x, Go says %#x", a, b, ret, want)
		}
	})
	for _, body := range []string{
		"\treturn uint64(uint32(a) >> 40)\n",
		"\treturn a << 64\n",
		"\treturn a >> b\n",
	} {
		if _, err := Compile("shift.go", []byte(contractHeader+body+"}\n"), Options{}); err == nil {
			t.Errorf("compiled, though the ISA would mask the count where Go does not:\n%s", body)
		}
	}
}
