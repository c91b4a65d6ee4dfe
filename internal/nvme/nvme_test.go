package nvme

import (
	"bytes"
	"errors"
	"testing"

	"hyperion/internal/fault"
	"hyperion/internal/sim"
)

func newDev(t testing.TB) (*sim.Engine, *Device, *Host) {
	t.Helper()
	eng := sim.NewEngine(1)
	dev := New(eng, DefaultConfig("nvme0"))
	host := NewHost(dev, nil)
	return eng, dev, host
}

// writeCmd is a queued write of data at lba on a 4 KiB-block device.
func writeCmd(lba int64, data []byte) Command {
	return Command{Opcode: OpWrite, NSID: 1, LBA: lba, Blocks: len(data) / 4096, Data: data}
}

var flushCmd = Command{Opcode: OpFlush, NSID: 1}

// onStatus hears a command's status.
func onStatus(cb func(status uint16)) Completer {
	return cplFunc(func(c Completion) { cb(c.Status) })
}

func TestWriteReadRoundTrip(t *testing.T) {
	eng, _, h := newDev(t)
	payload := bytes.Repeat([]byte{0xAB}, 4096*3)
	wrote := false
	if err := h.Submit(0, writeCmd(100, payload), onStatus(func(st uint16) {
		if st != StatusOK {
			t.Errorf("write status %#x", st)
		}
		wrote = true
	})); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !wrote {
		t.Fatal("write never completed")
	}
	read := false
	if err := h.Read(0, 100, 3, func(data []byte, st uint16) {
		if st != StatusOK {
			t.Errorf("read status %#x", st)
		}
		if !bytes.Equal(data, payload) {
			t.Error("read back wrong data")
		}
		read = true
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !read {
		t.Fatal("read never completed")
	}
}

func TestUnwrittenBlocksReadZero(t *testing.T) {
	eng, _, h := newDev(t)
	n := -1
	_ = h.Read(0, 999, 1, func(data []byte, st uint16) {
		n = len(data)
		if !bytes.Equal(data, make([]byte, 4096)) {
			t.Error("unwritten block not zero")
		}
	})
	eng.Run()
	if n != 4096 {
		t.Fatalf("len = %d", n)
	}
}

func TestReadLatencyShape(t *testing.T) {
	eng, dev, h := newDev(t)
	cfg := dev.cfg
	var doneAt sim.Time
	_ = h.Read(0, 0, 1, func([]byte, uint16) { doneAt = eng.Now() })
	eng.Run()
	want := cfg.CtrlOverhead + cfg.ReadLatency
	if doneAt.Sub(0) != sim.Duration(want) {
		t.Fatalf("single-block read = %v, want %v", doneAt.Sub(0), want)
	}
}

func TestChannelParallelism(t *testing.T) {
	// 8 single-block reads on 8 different channels should all finish at
	// the same time; 8 reads on the same channel serialize.
	eng, dev, h := newDev(t)
	cfg := dev.cfg
	var done []sim.Time
	for i := 0; i < cfg.Channels; i++ {
		_ = h.Read(0, int64(i), 1, func([]byte, uint16) { done = append(done, eng.Now()) })
	}
	eng.Run()
	for i := 1; i < len(done); i++ {
		if done[i] != done[0] {
			t.Fatalf("parallel channels finished at different times: %v vs %v", done[i], done[0])
		}
	}

	eng2 := sim.NewEngine(1)
	dev2 := New(eng2, DefaultConfig("nvme1"))
	h2 := NewHost(dev2, nil)
	var done2 []sim.Time
	for i := 0; i < 8; i++ {
		// Same channel: LBAs congruent mod Channels.
		_ = h2.Read(0, int64(i*cfg.Channels), 1, func([]byte, uint16) { done2 = append(done2, eng2.Now()) })
	}
	eng2.Run()
	gap := done2[7].Sub(done2[0])
	if gap < 7*cfg.ReadLatency {
		t.Fatalf("same-channel reads overlapped: spread %v, want ≥ %v", gap, 7*cfg.ReadLatency)
	}
}

func TestWriteFasterThanReadThenFlushWaits(t *testing.T) {
	eng, dev, h := newDev(t)
	cfg := dev.cfg
	var wAt, fAt sim.Time
	_ = h.Submit(0, writeCmd(0, make([]byte, 4096)), onStatus(func(uint16) { wAt = eng.Now() }))
	_ = h.Submit(0, flushCmd, onStatus(func(uint16) { fAt = eng.Now() }))
	eng.Run()
	if wAt.Sub(0) >= sim.Duration(cfg.ReadLatency) {
		t.Fatalf("cached write took %v, want < read latency %v", wAt.Sub(0), cfg.ReadLatency)
	}
	if fAt < wAt {
		t.Fatal("flush completed before write")
	}
}

func TestLBARangeError(t *testing.T) {
	eng, dev, h := newDev(t)
	var st uint16
	_ = h.Read(0, dev.cfg.Blocks-1, 4, func(_ []byte, s uint16) { st = s })
	eng.Run()
	if st != StatusLBARange {
		t.Fatalf("status = %#x, want LBA range error", st)
	}
}

func TestInvalidNamespace(t *testing.T) {
	eng, _, h := newDev(t)
	var st uint16
	_ = h.Submit(0, Command{Opcode: OpRead, NSID: 7, LBA: 0, Blocks: 1}, onStatus(func(s uint16) { st = s }))
	eng.Run()
	if st != StatusInvalidNS {
		t.Fatalf("status = %#x, want invalid namespace", st)
	}
}

func TestInvalidOpcode(t *testing.T) {
	eng, _, h := newDev(t)
	var st uint16
	_ = h.Submit(0, Command{Opcode: 0x7F, NSID: 1}, onStatus(func(s uint16) { st = s }))
	eng.Run()
	if st != StatusInvalidOp {
		t.Fatalf("status = %#x, want invalid opcode", st)
	}
}

func TestQueueDepthEnforced(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig("small")
	cfg.QueueDepth = 4
	dev := New(eng, cfg)
	var sawFull bool
	for i := 0; i < 10; i++ {
		err := dev.Enqueue(0, Command{Opcode: OpRead, NSID: 1, LBA: int64(i), Blocks: 1})
		if errors.Is(err, ErrQueueFull) {
			sawFull = true
		}
	}
	if !sawFull {
		t.Fatal("queue depth not enforced")
	}
}

func TestBadQueue(t *testing.T) {
	_, dev, _ := newDev(t)
	if err := dev.Enqueue(99, Command{}); !errors.Is(err, ErrBadQueue) {
		t.Fatalf("err = %v, want ErrBadQueue", err)
	}
}

func TestShortWriteRejected(t *testing.T) {
	_, dev, h := newDev(t)
	err := dev.Enqueue(0, Command{Opcode: OpWrite, NSID: 1, LBA: 0, Blocks: 2, Data: make([]byte, 4096)})
	if !errors.Is(err, ErrShortWrite) {
		t.Fatalf("err = %v, want ErrShortWrite", err)
	}
	if err := h.Submit(0, writeCmd(0, make([]byte, 100)), nil); !errors.Is(err, ErrShortWrite) {
		t.Fatalf("host err = %v, want ErrShortWrite", err)
	}
}

func TestDMAHookCharged(t *testing.T) {
	eng := sim.NewEngine(1)
	dev := New(eng, DefaultConfig("nvme0"))
	var dmaBytes int64
	dev.Bind(func(size int64, done func()) {
		dmaBytes += size
		eng.After(sim.Microsecond, "fakedma", done)
	}, nil)
	h := NewHost(dev, nil)
	_ = h.Submit(0, writeCmd(0, make([]byte, 8192)), nil)
	eng.Run()
	var read bool
	_ = h.Read(0, 0, 2, func([]byte, uint16) { read = true })
	eng.Run()
	if !read {
		t.Fatal("read did not complete")
	}
	if dmaBytes != 16384 {
		t.Fatalf("dma bytes = %d, want 16384", dmaBytes)
	}
}

func TestStoredBlocksAccounting(t *testing.T) {
	eng, dev, h := newDev(t)
	_ = h.Submit(0, writeCmd(10, make([]byte, 4096*4)), nil)
	_ = h.Submit(0, writeCmd(12, make([]byte, 4096*4)), nil) // overlaps 2 blocks
	eng.Run()
	if got := dev.StoredBlocks(); got != 6 {
		t.Fatalf("StoredBlocks = %d, want 6", got)
	}
	dev.WriteSync(10, make([]byte, 4096*6)) // rewrite: the same six blocks
	if got := dev.StoredBlocks(); got != 6 {
		t.Fatalf("StoredBlocks after rewrite = %d, want 6", got)
	}
	dev.PatchSync(500, 4090, make([]byte, 12)) // runs on into fresh block 501
	dev.PatchSync(700, 0, nil)                 // materializes even when empty
	if got := dev.StoredBlocks(); got != 9 {
		t.Fatalf("StoredBlocks after patching fresh blocks = %d, want 9", got)
	}
}

func TestPartialFaultRateStillCompletesEventually(t *testing.T) {
	// At a 30% fault rate, a retry loop (the caller's job) converges.
	eng := sim.NewEngine(1)
	cfg := DefaultConfig("flaky")
	cfg.Blocks = 1 << 18
	dev := New(eng, cfg)
	host := NewHost(dev, nil)
	dev.SetFaultPlan(fault.NewPlan(7, "nvme").Set(fault.MediaErr, 0.3))
	ok := 0
	attempts := 0
	var try func()
	try = func() {
		attempts++
		if attempts > 50 {
			return
		}
		_ = host.Read(0, 0, 1, func(_ []byte, st uint16) {
			if st == StatusOK {
				ok++
				return
			}
			try()
		})
	}
	for i := 0; i < 10; i++ {
		attempts = 0
		try()
		eng.Run()
	}
	if ok != 10 {
		t.Fatalf("completed %d/10 reads with retries", ok)
	}
	if f := dev.Counters.Value("injected_media_errors"); f == 0 {
		t.Fatal("no faults were injected at 30% rate")
	}
}
