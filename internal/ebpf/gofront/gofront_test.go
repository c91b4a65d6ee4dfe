package gofront

import (
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
