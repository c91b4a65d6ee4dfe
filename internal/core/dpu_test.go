package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"hyperion/internal/fabric"
	"hyperion/internal/netsim"
	"hyperion/internal/rpc"
	"hyperion/internal/seg"
	"hyperion/internal/sim"
	"hyperion/internal/transport"
)

func bootTest(t testing.TB) (*sim.Engine, *netsim.Network, *DPU) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := netsim.New(eng, netsim.DefaultConfig())
	cfg := DefaultConfig("dpu0")
	cfg.NVMe.Blocks = 1 << 20
	cfg.Seg.DRAMBytes = 64 << 20
	d, _, err := Boot(eng, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, net, d
}

func TestBootEnumeratesFourSSDs(t *testing.T) {
	_, _, d := bootTest(t)
	enum := d.Enumeration()
	if len(enum) != 4 {
		t.Fatalf("enumeration lines = %d, want 4", len(enum))
	}
	for i, line := range enum {
		if !strings.Contains(line, "ssd") || !strings.Contains(line, "x4") {
			t.Errorf("port %d: %q", i, line)
		}
	}
}

func TestBootSelfTestFails(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig("bad")
	cfg.Fabric.Slots = 0
	if _, _, err := Boot(eng, nil, cfg); !errors.Is(err, ErrSelfTest) {
		t.Fatalf("err = %v, want ErrSelfTest", err)
	}
}

func TestSegmentStoreWorksThroughDPU(t *testing.T) {
	eng, _, d := bootTest(t)
	id := seg.OID(1, 1)
	if _, err := d.Store.Alloc(id, 8192, true, seg.HintAuto); err != nil {
		t.Fatal(err)
	}
	payload := []byte("through the whole stack")
	var werr error
	d.Store.Write(id, 0, payload, func(err error) { werr = err })
	eng.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	got, err := d.View.ReadAt(id, 0, int64(len(payload)))
	if err != nil || string(got) != string(payload) {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestShellPingStatusOverNetwork(t *testing.T) {
	eng, net, d := bootTest(t)
	cn, _ := net.Attach("operator")
	cli := rpc.NewClient(eng, transport.New(eng, transport.RDMA, cn))
	var pong any
	cli.Call(d.ControlAddr(), ShellPing, nil, 64, func(val any, err error) {
		if err != nil {
			t.Error(err)
		}
		pong = val
	})
	eng.Run()
	if pong != "pong:dpu0" {
		t.Fatalf("pong = %v", pong)
	}
	var st Status
	cli.Call(d.ControlAddr(), ShellStatus, nil, 64, func(val any, err error) {
		if err != nil {
			t.Error(err)
		}
		st = val.(Status)
	})
	eng.Run()
	if len(st.Slots) != 5 || st.Name != "dpu0" {
		t.Fatalf("status = %+v", st)
	}
}

func TestShellLoadUnloadOverNetwork(t *testing.T) {
	eng, net, d := bootTest(t)
	cn, _ := net.Attach("operator")
	cli := rpc.NewClient(eng, transport.New(eng, transport.RDMA, cn))
	cli.Timeout = sim.Duration(sim.Second)
	bs := ProbeBitstream(d.Cfg.AuthTag)
	var loadedAt sim.Time
	cli.Call(d.ControlAddr(), ShellLoad, LoadArgs{Slot: 0, Bitstream: bs}, 4<<20, func(val any, err error) {
		if err != nil {
			t.Error(err)
		}
		loadedAt = eng.Now()
	})
	eng.Run()
	// Reply arrives only after the ≥10ms partial reconfiguration.
	if loadedAt.Sub(0) < 10*sim.Millisecond {
		t.Fatalf("load acknowledged at %v, before reconfig window", loadedAt)
	}
	s, _ := d.Fabric.Slot(0)
	if s.State != fabric.SlotActive {
		t.Fatalf("slot state = %v", s.State)
	}
	var unloaded bool
	cli.Call(d.ControlAddr(), ShellUnload, 0, 64, func(val any, err error) {
		if err != nil {
			t.Error(err)
		}
		unloaded = true
	})
	eng.Run()
	if !unloaded || s.State != fabric.SlotEmpty {
		t.Fatalf("unload failed: %v %v", unloaded, s.State)
	}
}

func TestShellRejectsForgedBitstream(t *testing.T) {
	eng, net, d := bootTest(t)
	cn, _ := net.Attach("attacker")
	cli := rpc.NewClient(eng, transport.New(eng, transport.RDMA, cn))
	bs := ProbeBitstream("forged-key")
	var got error
	cli.Call(d.ControlAddr(), ShellLoad, LoadArgs{Slot: 0, Bitstream: bs}, 4<<20, func(val any, err error) { got = err })
	eng.Run()
	if got == nil || !strings.Contains(got.Error(), "authorized") {
		t.Fatalf("forged load err = %v", got)
	}
}

func TestFig2ProbeStages(t *testing.T) {
	eng, _, d := bootTest(t)
	if err := d.LoadAccelerator(0, ProbeBitstream(d.Cfg.AuthTag), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	var tr Fig2Trace
	err := d.Fig2Probe(0, 1, 100, 2, func(got Fig2Trace, data []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		if len(data) != 8192 {
			t.Errorf("data = %d bytes", len(data))
		}
		tr = got
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if tr.Arbiter <= 0 || tr.Pipeline <= 0 || tr.Storage <= 0 || tr.Egress <= 0 {
		t.Fatalf("stages not all positive: %+v", tr)
	}
	if tr.Total != tr.Arbiter+tr.Pipeline+tr.Storage+tr.Egress {
		t.Fatalf("total %v != sum of stages", tr.Total)
	}
	// Flash dominates the unloaded path.
	if tr.Storage < tr.Total/2 {
		t.Fatalf("storage %v not dominant in %v", tr.Storage, tr.Total)
	}
	// Pipeline is deterministic: depth × clock period.
	want := d.Fabric.Cycles(24)
	if tr.Pipeline != want {
		t.Fatalf("pipeline = %v, want %v", tr.Pipeline, want)
	}
}

// TestFig2ProbeDataSurvivesEgress keeps 16 probes in flight over the
// four SSDs, as E3 does, reading E2's 1, 8 and 64 blocks in turn, every
// block carrying its own LBA's pattern. The device lends a read's buffer
// only until the storage stage returns and serves the next read on that
// SSD from it, while the reply comes one egress event later: a short
// read queued behind a long one finishes its flash access inside the
// long one's egress. Every reply must still see the blocks it asked for.
func TestFig2ProbeDataSurvivesEgress(t *testing.T) {
	eng, _, d := bootTest(t)
	if err := d.LoadAccelerator(0, ProbeBitstream(d.Cfg.AuthTag), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	const base, span, probes = 1 << 19, 128, 512
	block := func(lba int64) []byte {
		return bytes.Repeat([]byte{byte(lba), byte(lba >> 8), 0x5A, byte(lba * 31)}, 1024)
	}
	for _, h := range d.Hosts {
		for lba := int64(base); lba < base+span+64; lba++ {
			h.Device().WriteSync(lba, block(lba))
		}
	}
	want := func(lba int64, blocks int) []byte {
		var b []byte
		for i := range int64(blocks) {
			b = append(b, block(lba+i)...)
		}
		return b
	}
	issued, replied, wrong := 0, 0, 0
	var issue func()
	issue = func() {
		if issued == probes {
			return
		}
		k := issued
		issued++
		lba, blocks := int64(base+(k/4)%span), []int{1, 8, 64}[(k/4)%3]
		err := d.Fig2Probe(0, k%4, lba, blocks, func(_ Fig2Trace, data []byte, err error) {
			if err != nil {
				t.Error(err)
			}
			replied++
			if !bytes.Equal(data, want(lba, blocks)) {
				wrong++
			}
			issue()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for range 16 {
		issue()
	}
	eng.Run()
	if replied != probes {
		t.Fatalf("%d of %d probes replied", replied, probes)
	}
	if wrong != 0 {
		t.Fatalf("%d of %d replies carried bytes other than the blocks they read", wrong, probes)
	}
}

func TestFig2ProbeErrors(t *testing.T) {
	eng, _, d := bootTest(t)
	_ = eng
	if err := d.Fig2Probe(0, 99, 0, 1, func(Fig2Trace, []byte, error) {}); err == nil {
		t.Fatal("bad ssd accepted")
	}
	// Empty slot: reply carries the error.
	var got error
	if err := d.Fig2Probe(0, 0, 0, 1, func(_ Fig2Trace, _ []byte, err error) { got = err }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got == nil {
		t.Fatal("probe through empty slot succeeded")
	}
}

func BenchmarkFig2Probe(b *testing.B) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig("bench")
	cfg.NVMe.Blocks = 1 << 20
	cfg.Seg.DRAMBytes = 64 << 20
	d, _, err := Boot(eng, nil, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.LoadAccelerator(0, ProbeBitstream(cfg.AuthTag), nil); err != nil {
		b.Fatal(err)
	}
	eng.Run()
	i := 0
	reply := func(Fig2Trace, []byte, error) {}
	one := func() {
		if err := d.Fig2Probe(0, i%4, int64(i%1000), 1, reply); err != nil {
			b.Fatal(err)
		}
		i++
		if i%64 == 0 {
			eng.Run()
		}
	}
	// Warm every free list on the path — probe contexts and their
	// payload buffers, device buffers and contexts, host slots.
	for range 256 {
		one()
	}
	eng.Run()
	if a := testing.AllocsPerRun(256, one); a != 0 {
		b.Fatalf("a probe allocates %v objects/op in steady state, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		one()
	}
	eng.Run()
}
