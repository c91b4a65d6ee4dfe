package netsim

import (
	"encoding/binary"
	"errors"
	"testing"

	"hyperion/internal/sim"
	"hyperion/internal/wire"
)

func pair(t testing.TB) (*sim.Engine, *Network, *NIC, *NIC) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := New(eng, DefaultConfig())
	a, err := net.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	return eng, net, a, b
}

func TestDelivery(t *testing.T) {
	eng, _, a, b := pair(t)
	var got []Frame
	b.OnReceive(func(f Frame) { got = append(got, f) })
	if err := a.Send(Frame{Dst: "b", Payload: "hello", Bytes: 100}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(got) != 1 || got[0].Payload != "hello" || got[0].Src != "a" {
		t.Fatalf("got %v", got)
	}
}

func TestUnknownDestination(t *testing.T) {
	_, _, a, _ := pair(t)
	if err := a.Send(Frame{Dst: "zzz", Bytes: 100}); !errors.Is(err, ErrUnknownDst) {
		t.Fatalf("err = %v, want ErrUnknownDst", err)
	}
}

func TestDuplicateAddr(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng, DefaultConfig())
	if _, err := net.Attach("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach("x"); !errors.Is(err, ErrDupAddr) {
		t.Fatalf("err = %v, want ErrDupAddr", err)
	}
}

// TestReattachTakesOverPort: ports are numbered in attach order and
// stamped on each frame as SrcPort; an address detached and attached
// again gets its old port back, frames in flight to the detached NIC
// are not delivered to its successor, and the port's queue drains.
func TestReattachTakesOverPort(t *testing.T) {
	eng, net, a, b := pair(t)
	var got []Frame
	a.OnReceive(func(f Frame) { got = append(got, f) })
	b.OnReceive(func(Frame) { t.Error("a detached NIC received a frame") })
	for range 4 {
		if err := a.Send(Frame{Dst: "b", Bytes: 1500}); err != nil {
			t.Fatal(err)
		}
	}
	net.Detach("b")
	b2, err := net.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	c, _ := net.Attach("c")
	b2.OnReceive(func(Frame) { t.Error("frames sent to the detached NIC reached its successor") })
	if err := b2.Send(Frame{Dst: "a", Bytes: 100}); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(Frame{Dst: "a", Bytes: 100}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if b2.port != b.port || b.port.queued != 0 {
		t.Fatalf("re-Attach made a new port, or its queue holds %d frames", b2.port.queued)
	}
	if len(got) != 2 || got[0].SrcPort != 1 || got[1].SrcPort != 2 {
		t.Fatalf("frames at a: %+v, want SrcPorts 1 then 2", got)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	_, _, a, _ := pair(t)
	if err := a.Send(Frame{Dst: "b", Bytes: MaxFrameBytes + 1}); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("err = %v, want ErrFrameSize", err)
	}
}

func TestLatencyShape(t *testing.T) {
	eng, net, a, b := pair(t)
	var at sim.Time
	b.OnReceive(func(f Frame) { at = eng.Now() })
	_ = a.Send(Frame{Dst: "b", Bytes: MinFrameBytes})
	eng.Run()
	cfg := net.cfg
	want := 2*cfg.PropDelay + switchLatency + 2*serTime(MinFrameBytes)
	if at.Sub(0) != want {
		t.Fatalf("one-way = %v, want %v", at.Sub(0), want)
	}
	// Sanity: one-way under 2 µs for a small frame on this fabric.
	if at.Sub(0) > 2*sim.Microsecond {
		t.Fatalf("one-way %v implausibly high", at.Sub(0))
	}
}

func TestSerializationOrdering(t *testing.T) {
	// Payloads ride as *wire.Buf — the representation the real datapath
	// uses — so ordering is checked on the zero-copy path, and the
	// per-frame Release exercises pool recycling under load.
	eng, _, a, b := pair(t)
	pool := wire.NewPool(8)
	var got []int
	b.OnReceive(func(f Frame) {
		buf := f.Payload.(*wire.Buf)
		got = append(got, int(binary.LittleEndian.Uint32(buf.Bytes())))
		buf.Release()
	})
	for i := 0; i < 50; i++ {
		buf := pool.Get(4)
		binary.LittleEndian.PutUint32(buf.Bytes(), uint32(i))
		_ = a.Send(Frame{Dst: "b", Payload: buf, Bytes: 1500})
	}
	eng.Run()
	if len(got) != 50 {
		t.Fatalf("delivered %d/50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
}

func TestBandwidth(t *testing.T) {
	// 1000 jumbo frames of 9000 B = 9 MB at 12.5 GB/s ≈ 720 µs.
	eng, _, a, b := pair(t)
	var last sim.Time
	b.OnReceive(func(f Frame) { last = eng.Now() })
	for i := 0; i < 1000; i++ {
		_ = a.Send(Frame{Dst: "b", Bytes: 9000})
	}
	eng.Run()
	got := last.Sub(0)
	want := serTime(9000 * 1000)
	if got < want || got > want+want/10+5*sim.Microsecond {
		t.Fatalf("1000 jumbo frames took %v, want ≈ %v", got, want)
	}
}

func TestCongestionDrops(t *testing.T) {
	// Two senders at full rate into one receiver must overflow the
	// switch output queue.
	eng := sim.NewEngine(1)
	net := New(eng, DefaultConfig())
	a, _ := net.Attach("a")
	b, _ := net.Attach("b")
	c, _ := net.Attach("c")
	var delivered int
	c.OnReceive(func(Frame) { delivered++ })
	_ = a
	_ = b
	for i := 0; i < 2000; i++ {
		na, _ := net.nics["a"], 0
		_ = na
		_ = net.nics["a"].Send(Frame{Dst: "c", Bytes: 9000})
		_ = net.nics["b"].Send(Frame{Dst: "c", Bytes: 9000})
	}
	eng.Run()
	if net.Drops == 0 {
		t.Fatal("incast congestion produced no drops")
	}
	if delivered+int(net.Drops) != 4000 {
		t.Fatalf("delivered %d + drops %d != 4000", delivered, net.Drops)
	}
}

func TestBaseRTTSymmetricPing(t *testing.T) {
	eng, net, a, b := pair(t)
	var rtt sim.Duration
	start := eng.Now()
	b.OnReceive(func(f Frame) { _ = b.Send(Frame{Dst: "a", Bytes: MinFrameBytes}) })
	a.OnReceive(func(f Frame) { rtt = eng.Now().Sub(start) })
	_ = a.Send(Frame{Dst: "b", Bytes: MinFrameBytes})
	eng.Run()
	if rtt != net.BaseRTT() {
		t.Fatalf("ping RTT = %v, BaseRTT() = %v", rtt, net.BaseRTT())
	}
}

func TestTinyFramePaddedToMin(t *testing.T) {
	eng, _, a, b := pair(t)
	var got Frame
	b.OnReceive(func(f Frame) { got = f })
	_ = a.Send(Frame{Dst: "b", Bytes: 1})
	eng.Run()
	if got.Bytes != MinFrameBytes {
		t.Fatalf("frame padded to %d, want %d", got.Bytes, MinFrameBytes)
	}
}

func TestCounters(t *testing.T) {
	eng, _, a, b := pair(t)
	b.OnReceive(func(Frame) {})
	for i := 0; i < 10; i++ {
		_ = a.Send(Frame{Dst: "b", Bytes: 1000})
	}
	eng.Run()
	if a.TxFrames != 10 || b.RxFrames != 10 || a.TxBytes != 10000 || b.RxBytes != 10000 {
		t.Fatalf("counters tx=%d/%d rx=%d/%d", a.TxFrames, a.TxBytes, b.RxFrames, b.RxBytes)
	}
}

// BenchmarkSend sends 1500 B frames in bursts of 128, each drained
// before the next; a warm burst must allocate nothing.
func BenchmarkSend(b *testing.B) {
	eng := sim.NewEngine(1)
	net := New(eng, DefaultConfig())
	src, _ := net.Attach("s")
	dst, _ := net.Attach("d")
	dst.OnReceive(func(Frame) {})
	burst := func() {
		for range 128 {
			_ = src.Send(Frame{Dst: "d", Bytes: 1500})
		}
		eng.Run()
	}
	burst()
	if n := testing.AllocsPerRun(20, burst); n != 0 {
		b.Fatalf("a warm burst of 128 frames allocated %v times, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = src.Send(Frame{Dst: "d", Bytes: 1500})
		if i%128 == 0 {
			eng.Run()
		}
	}
	eng.Run()
}
