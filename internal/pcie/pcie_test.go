package pcie

import (
	"errors"
	"strings"
	"testing"

	"hyperion/internal/sim"
)

// fakeDev is a minimal endpoint with a register file.
type fakeDev struct {
	name string
	bar  int64
	regs map[int64]uint64
}

func newFakeDev(name string, bar int64) *fakeDev {
	return &fakeDev{name: name, bar: bar, regs: make(map[int64]uint64)}
}

func (d *fakeDev) PCIeName() string              { return d.name }
func (d *fakeDev) BARSize() int64                { return d.bar }
func (d *fakeDev) MMIORead(off int64) uint64     { return d.regs[off] }
func (d *fakeDev) MMIOWrite(off int64, v uint64) { d.regs[off] = v }

func newBus(t *testing.T) (*sim.Engine, *RootComplex, []*fakeDev) {
	t.Helper()
	eng := sim.NewEngine(1)
	rc := NewRootComplex(eng, []int{4, 4, 4, 4})
	devs := make([]*fakeDev, 4)
	for i := range devs {
		devs[i] = newFakeDev("nvme", 1<<20)
		if err := rc.Attach(i, devs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rc.Enumerate(); err != nil {
		t.Fatal(err)
	}
	return eng, rc, devs
}

func TestEnumerateAssignsDisjointAlignedBARs(t *testing.T) {
	_, rc, _ := newBus(t)
	type win struct{ base, size int64 }
	var wins []win
	for _, p := range rc.Ports() {
		base, size := p.BAR()
		if base%size != 0 {
			t.Errorf("port %d BAR %#x not aligned to %#x", p.Index, base, size)
		}
		wins = append(wins, win{base, size})
	}
	for i := range wins {
		for j := i + 1; j < len(wins); j++ {
			a, b := wins[i], wins[j]
			if a.base < b.base+b.size && b.base < a.base+a.size {
				t.Errorf("BARs %d and %d overlap", i, j)
			}
		}
	}
}

func TestEnumerateTwiceFails(t *testing.T) {
	_, rc, _ := newBus(t)
	if _, err := rc.Enumerate(); !errors.Is(err, ErrEnumerated) {
		t.Fatalf("err = %v, want ErrEnumerated", err)
	}
}

func TestAttachAfterEnumerateFails(t *testing.T) {
	_, rc, _ := newBus(t)
	if err := rc.Attach(0, newFakeDev("x", 1<<20)); !errors.Is(err, ErrEnumerated) {
		t.Fatalf("err = %v, want ErrEnumerated", err)
	}
}

func TestAttachOccupiedPortFails(t *testing.T) {
	eng := sim.NewEngine(1)
	_ = eng
	rc := NewRootComplex(eng, []int{4})
	if err := rc.Attach(0, newFakeDev("a", 1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := rc.Attach(0, newFakeDev("b", 1<<20)); !errors.Is(err, ErrPortTaken) {
		t.Fatalf("err = %v, want ErrPortTaken", err)
	}
}

func TestEmptyPortEnumeration(t *testing.T) {
	eng := sim.NewEngine(1)
	rc := NewRootComplex(eng, []int{4, 4})
	if err := rc.Attach(0, newFakeDev("only", 1<<20)); err != nil {
		t.Fatal(err)
	}
	out, err := rc.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || !strings.Contains(out[1], "empty") {
		t.Fatalf("enumeration = %v", out)
	}
}

func TestMMIOReadWrite(t *testing.T) {
	_, rc, devs := newBus(t)
	base, _ := rc.Ports()[2].BAR()
	if _, err := rc.MMIOWrite(base+0x10, 42); err != nil {
		t.Fatal(err)
	}
	if devs[2].regs[0x10] != 42 {
		t.Fatalf("register = %d, want 42", devs[2].regs[0x10])
	}
	v, d, err := rc.MMIORead(base + 0x10)
	if err != nil || v != 42 {
		t.Fatalf("read = %d,%v", v, err)
	}
	if d <= 0 {
		t.Fatal("read latency must be positive")
	}
}

func TestMMIOBadAddress(t *testing.T) {
	_, rc, _ := newBus(t)
	if _, _, err := rc.MMIORead(0x1); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("err = %v, want ErrBadAddress", err)
	}
}

func TestMMIOBeforeEnumerate(t *testing.T) {
	eng := sim.NewEngine(1)
	rc := NewRootComplex(eng, []int{4})
	_ = rc.Attach(0, newFakeDev("x", 1<<20))
	if _, _, err := rc.MMIORead(0x1000_0000); !errors.Is(err, ErrNotEnumerated) {
		t.Fatalf("err = %v, want ErrNotEnumerated", err)
	}
}

func TestDMABandwidth(t *testing.T) {
	eng, rc, _ := newBus(t)
	base, _ := rc.Ports()[0].BAR()
	var doneAt sim.Time
	size := int64(1 << 20) // 1 MiB over x4 ≈ 3.94 GB/s → ≈ 266 µs
	if err := rc.DMA(base, size, func() { doneAt = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	want := sim.Duration(float64(size) / float64(4*Gen3LaneBytesPerSec) * float64(sim.Second))
	got := doneAt.Sub(0)
	if got < want || got > want+2*hopLatency {
		t.Fatalf("DMA time = %v, want ≈ %v", got, want)
	}
}

func TestDMASerializesOnOnePort(t *testing.T) {
	eng, rc, _ := newBus(t)
	base, _ := rc.Ports()[0].BAR()
	var first, second sim.Time
	size := int64(1 << 20)
	_ = rc.DMA(base, size, func() { first = eng.Now() })
	_ = rc.DMA(base, size, func() { second = eng.Now() })
	eng.Run()
	xfer := sim.Duration(float64(size) / float64(4*Gen3LaneBytesPerSec) * float64(sim.Second))
	if gap := second.Sub(first); gap < xfer*9/10 {
		t.Fatalf("second DMA finished only %v after first, want ≈%v (serialized)", gap, xfer)
	}
}

func TestDMAParallelAcrossPorts(t *testing.T) {
	// Bifurcation means the four SSD links transfer independently.
	eng, rc, _ := newBus(t)
	var done []sim.Time
	size := int64(1 << 20)
	for i := 0; i < 4; i++ {
		base, _ := rc.Ports()[i].BAR()
		_ = rc.DMA(base, size, func() { done = append(done, eng.Now()) })
	}
	eng.Run()
	for i := 1; i < 4; i++ {
		if done[i] != done[0] {
			t.Fatalf("port %d finished at %v, port 0 at %v: ports must not contend", i, done[i], done[0])
		}
	}
}

func TestDMAErrors(t *testing.T) {
	_, rc, _ := newBus(t)
	base, _ := rc.Ports()[0].BAR()
	if err := rc.DMA(base, 0, nil); err == nil {
		t.Fatal("zero-size DMA accepted")
	}
	if err := rc.DMA(0x1, 4096, nil); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("err = %v, want ErrBadAddress", err)
	}
}

func BenchmarkDMA4K(b *testing.B) {
	eng := sim.NewEngine(1)
	rc := NewRootComplex(eng, []int{4})
	_ = rc.Attach(0, newFakeDev("nvme", 1<<20))
	if _, err := rc.Enumerate(); err != nil {
		b.Fatal(err)
	}
	base, _ := rc.Ports()[0].BAR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rc.DMA(base, 4096, nil)
		if i%1024 == 0 {
			eng.Run()
		}
	}
	eng.Run()
}
