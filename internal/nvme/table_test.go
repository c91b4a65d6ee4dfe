package nvme

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"unsafe"

	"hyperion/internal/fault"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// TestBlockTableEnds round-trips blocks at the first LBA, on both
// sides of a leaf and of a mid-page boundary, and at the last LBA of
// the default 1 TiB namespace, with their unwritten neighbours still
// reading zero.
func TestBlockTableEnds(t *testing.T) {
	_, dev, _ := newDev(t)
	last := dev.cfg.Blocks - 1
	const leaf, mid = 1 << leafBits, 1 << (leafBits + midBits)
	lbas := []int64{0, leaf - 1, leaf, mid - 1, mid, last}
	for _, lba := range lbas {
		dev.WriteSync(lba, pattern(lba, 1))
	}
	got := make([]byte, 4096)
	for _, lba := range lbas {
		dev.ReadSyncInto(got, lba, 1)
		if !bytes.Equal(got, pattern(lba, 1)) {
			t.Errorf("lba %d: read back wrong data", lba)
		}
		if !bytes.Equal(dev.BorrowSync(lba), pattern(lba, 1)) {
			t.Errorf("lba %d: borrowed wrong data", lba)
		}
	}
	zero := make([]byte, 4096)
	for _, lba := range []int64{1, leaf - 2, leaf + 1, mid - 2, mid + 1, last - 1, last + 1, -1} {
		if !bytes.Equal(dev.BorrowSync(lba), zero) {
			t.Errorf("lba %d was never written but does not read zero", lba)
		}
	}
	if got := dev.StoredBlocks(); got != len(lbas) {
		t.Errorf("StoredBlocks = %d, want %d", got, len(lbas))
	}
}

// TestBlockTableFarWriteIsCheap pins the sparse-store property: one
// block at the far end of a fresh 1 TiB device costs one page per table
// level plus the block, not a table sized to the namespace (a flat
// page directory would be 8 MB, a map's buckets grow with the count).
func TestBlockTableFarWriteIsCheap(t *testing.T) {
	_, dev, _ := newDev(t)
	data := make([]byte, 4096)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	dev.WriteSync(dev.cfg.Blocks-1, data)
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 64<<10 {
		t.Fatalf("writing the last block of a fresh device allocated %d bytes, want under 64 KiB", got)
	}
}

// TestDeadlineCompletionCancelsTimer: a command that completes in time
// takes its deadline timer with it and frees its table slot.
func TestDeadlineCompletionCancelsTimer(t *testing.T) {
	eng, _, h := newDev(t)
	h.SetDeadline(sim.Millisecond)
	var status []uint16
	if err := h.Read(0, 7, 1, func(_ []byte, st uint16) { status = append(status, st) }); err != nil {
		t.Fatal(err)
	}
	cid := h.nextCID
	eng.RunUntil(sim.Time(0).Add(500 * sim.Microsecond))
	if len(status) != 1 || status[0] != StatusOK {
		t.Fatalf("completions %v, want one StatusOK", status)
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events still pending: the deadline timer outlived its command", eng.Pending())
	}
	if h.outstanding(cid) != nil {
		t.Fatal("completed command still occupies its slot")
	}
	eng.Run()
	if len(status) != 1 || h.Timeouts != 0 {
		t.Fatalf("after the deadline: completions %v, %d timeouts", status, h.Timeouts)
	}
}

// countPosted counts the completions dev posts to h, late ones that h
// drops included.
func countPosted(dev *Device, h *Host) *int {
	n := new(int)
	dev.Bind(dev.dma, func(qid int, c Completion) {
		*n++
		h.onInterrupt(qid, c)
	})
	return n
}

// TestDeadlineTimeoutDropsLateCompletion: a deadline shorter than the
// flash read answers StatusTimeout, clears the slot, and the device's
// completion, arriving later, is dropped.
func TestDeadlineTimeoutDropsLateCompletion(t *testing.T) {
	eng, dev, h := newDev(t)
	posted := countPosted(dev, h)
	h.SetDeadline(10 * sim.Microsecond)
	var status []uint16
	if err := h.Read(0, 7, 1, func(_ []byte, st uint16) { status = append(status, st) }); err != nil {
		t.Fatal(err)
	}
	cid := h.nextCID
	eng.RunUntil(sim.Time(0).Add(20 * sim.Microsecond))
	if len(status) != 1 || status[0] != StatusTimeout || h.Timeouts != 1 {
		t.Fatalf("completions %v, %d timeouts, want one StatusTimeout", status, h.Timeouts)
	}
	if h.outstanding(cid) != nil {
		t.Fatal("timed-out command still occupies its slot")
	}
	eng.Run()
	if *posted != 1 {
		t.Fatal("the device never posted its late completion: nothing was dropped")
	}
	if len(status) != 1 {
		t.Fatalf("late completion reached the callback: %v", status)
	}
}

// TestDeadlineTimeoutReachesEveryVerb: the slot keeps each command's
// Completer, so an armed deadline answers every verb — Read, and a
// write, a flush and a read through Submit — with exactly one
// StatusTimeout through it, recorder armed or not, and the device's
// late completions reach none of them.
func TestDeadlineTimeoutReachesEveryVerb(t *testing.T) {
	for _, traced := range []bool{false, true} {
		eng, dev, h := newDev(t)
		posted := countPosted(dev, h)
		if traced {
			h.SetRecorder(telemetry.NewRecorder("nvme"))
		}
		h.SetDeadline(sim.Microsecond) // shorter than any device path
		got := make(map[string][]uint16)
		note := func(verb string) func(uint16) {
			return func(st uint16) { got[verb] = append(got[verb], st) }
		}
		read := func(verb string) func([]byte, uint16) {
			return func(data []byte, st uint16) {
				if data != nil {
					t.Errorf("%s: timeout carries %d payload bytes", verb, len(data))
				}
				note(verb)(st)
			}
		}
		block := make([]byte, 4096)
		errs := []error{
			h.Read(0, 1, 1, read("read")),
			h.Submit(0, writeCmd(3, block), onStatus(note("write"))),
			h.Submit(0, flushCmd, onStatus(note("flush"))),
			h.Submit(0, Command{Opcode: OpRead, NSID: 1, LBA: 4, Blocks: 1}, onStatus(note("submit"))),
		}
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		for _, verb := range []string{"read", "write", "flush", "submit"} {
			if st := got[verb]; len(st) != 1 || st[0] != StatusTimeout {
				t.Errorf("traced=%v %s: completions %v, want one StatusTimeout", traced, verb, st)
			}
		}
		if h.Timeouts != 4 || *posted != 4 {
			t.Errorf("traced=%v: %d timeouts and %d device completions, want 4 and 4 (all late, all dropped)",
				traced, h.Timeouts, *posted)
		}
		for cid := uint16(1); cid <= h.nextCID; cid++ {
			if h.outstanding(cid) != nil {
				t.Errorf("traced=%v: CID %d still holds a slot", traced, cid)
			}
		}
	}
}

// TestCIDWrapSkipsOutstandingCommand parks one command (swallowed by
// the device, no host deadline), wraps the 16-bit CID counter with
// commands that complete, and checks the parked CID was never reissued:
// its late completion still reaches its own callback.
func TestCIDWrapSkipsOutstandingCommand(t *testing.T) {
	eng, dev, h := newDev(t)
	dev.SetFaultPlan(fault.NewPlan(1, "nvme").Set(fault.Timeout, 1))
	parkedDone := 0
	if err := h.Submit(0, flushCmd, onStatus(func(uint16) {})); err != nil { // CID 1 completes: flushes are not swallowed
		t.Fatal(err)
	}
	if err := h.Read(0, 0, 1, func([]byte, uint16) { parkedDone++ }); err != nil {
		t.Fatal(err)
	}
	parked := h.nextCID
	eng.Run()
	dev.SetFaultPlan(nil)

	seen := make(map[uint16]int)
	cb := cplFunc(func(c Completion) { seen[c.CID]++ })
	for i := 0; i < 1<<16; i++ {
		if err := h.Submit(0, flushCmd, cb); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	if seen[parked] != 0 {
		t.Fatalf("CID %d was reissued %d times while its command was outstanding", parked, seen[parked])
	}
	if seen[parked+1] != 2 {
		t.Fatalf("CID %d issued %d times: the counter did not wrap", parked+1, seen[parked+1])
	}
	h.onInterrupt(0, Completion{CID: parked})
	if parkedDone != 1 {
		t.Fatalf("the parked command's late completion reached its callback %d times, want 1", parkedDone)
	}
}

// TestHostTableTracksOutstandingSpan: the command table is as large
// as the span of outstanding CIDs, not the number of commands ever
// submitted — a closed loop of eight keeps its first sixteen slots
// through more submissions than there are CIDs.
func TestHostTableTracksOutstandingSpan(t *testing.T) {
	eng, _, h := newDev(t)
	done := 0
	cb := cplFunc(func(Completion) { done++ })
	for i := 0; i < 10_000; i++ {
		for k := 0; k < 8; k++ {
			if err := h.Submit(0, flushCmd, cb); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
	}
	if done != 80_000 {
		t.Fatalf("%d of 80000 commands completed", done)
	}
	if len(h.cmds) != 16 {
		t.Fatalf("table grew to %d slots for 8 commands in flight", len(h.cmds))
	}
}

// TestCIDExhaustion: with all 65 536 CIDs outstanding Submit refuses
// the next command instead of overwriting one.
func TestCIDExhaustion(t *testing.T) {
	eng, dev, h := newDev(t)
	dev.SetFaultPlan(fault.NewPlan(1, "nvme").Set(fault.Timeout, 1))
	cb := func([]byte, uint16) { t.Error("a swallowed command completed") }
	for i := 0; i < 1<<16; i++ {
		if err := h.Read(0, 0, 1, cb); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		eng.Run() // the controller abandons it: the queue slot frees, the CID does not
	}
	if err := h.Read(0, 0, 1, cb); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submission with every CID outstanding: %v, want ErrQueueFull", err)
	}
	if h.QueueErr != 1 {
		t.Fatalf("QueueErr = %d, want 1", h.QueueErr)
	}
}

// TestNilCallbackCompletes: a Read issued with a nil callback and a
// command submitted with a nil Completer both complete, with and
// without a DMA hook or a deadline, without a panic and without
// keeping a slot. A nil func converted to a Completer is not a nil
// interface, so Read's adapter is the one that must hear nothing.
func TestNilCallbackCompletes(t *testing.T) {
	for _, dma := range []bool{false, true} {
		for _, deadline := range []sim.Duration{0, sim.Microsecond, sim.Second} {
			eng := sim.NewEngine(1)
			dev := New(eng, DefaultConfig("nvme0"))
			if dma {
				dev.Bind(func(_ int64, done func()) { eng.After(sim.Microsecond, "fakedma", done) }, nil)
			}
			h := NewHost(dev, nil)
			posted := countPosted(dev, h)
			h.SetDeadline(deadline)
			errs := []error{
				h.Read(0, 1, 1, nil),
				h.Submit(0, Command{Opcode: OpRead, NSID: 1, LBA: 2, Blocks: 1}, nil),
				h.Submit(0, writeCmd(3, make([]byte, 4096)), nil),
				h.Submit(0, flushCmd, nil),
			}
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			eng.Run()
			if *posted != 4 {
				t.Errorf("dma=%v deadline=%v: %d device completions, want 4", dma, deadline, *posted)
			}
			for cid := uint16(1); cid <= h.nextCID; cid++ {
				if h.outstanding(cid) != nil {
					t.Errorf("dma=%v deadline=%v: CID %d still holds a slot", dma, deadline, cid)
				}
			}
		}
	}
}

// TestHostSlotIs32Bytes: a command slot holds one Completer, its
// deadline timer and its CID.
func TestHostSlotIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(hostCmd{}); n != 32 {
		t.Errorf("hostCmd is %d bytes, want 32", n)
	}
}

// BenchmarkHostSubmitComplete is the host's share of a command: CID
// allocation, the table slot, the doorbell, and the completion finding
// its callback — a flush, so the device side is one event. Steady state
// allocates nothing.
func BenchmarkHostSubmitComplete(b *testing.B) {
	eng := sim.NewEngine(1)
	h := NewHost(New(eng, DefaultConfig("bench")), nil)
	cb := cplFunc(func(Completion) {})
	one := func() {
		if err := h.Submit(0, flushCmd, cb); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
	one()
	if a := testing.AllocsPerRun(200, one); a != 0 {
		b.Fatalf("submit and complete allocates %v objects/op in steady state, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one()
	}
}

// BenchmarkHostSubmitCompleteDeadline is BenchmarkHostSubmitComplete
// with a deadline armed, once on a host whose commands finish in time
// (the completion cancels the timer) and once on a host whose deadline
// is shorter than the device (the timer answers StatusTimeout, the late
// completion is dropped). The event name is precomputed and the timer
// is a pooled context, so neither path allocates (asserted in-line).
func BenchmarkHostSubmitCompleteDeadline(b *testing.B) {
	eng := sim.NewEngine(1)
	inTime := NewHost(New(eng, DefaultConfig("intime")), nil)
	inTime.SetDeadline(sim.Second)
	late := NewHost(New(eng, DefaultConfig("late")), nil)
	late.SetDeadline(sim.Picosecond)
	var ok, timedOut int
	cb := cplFunc(func(c Completion) {
		if c.Status == StatusTimeout {
			timedOut++
		} else {
			ok++
		}
	})
	one := func() {
		if err := inTime.Submit(0, flushCmd, cb); err != nil {
			b.Fatal(err)
		}
		if err := late.Submit(0, flushCmd, cb); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
	one()
	if a := testing.AllocsPerRun(200, one); a != 0 {
		b.Fatalf("submit and complete with a deadline allocates %v objects/op in steady state, want 0", a)
	}
	if ok != timedOut || ok == 0 || late.Timeouts != int64(timedOut) || inTime.Timeouts != 0 {
		b.Fatalf("%d completions, %d timeouts (late host %d, in-time host %d), want one of each per op",
			ok, timedOut, late.Timeouts, inTime.Timeouts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one()
	}
}

// freshCompleter is a pooled context that hears its command itself.
type freshCompleter struct{ n *int }

func (c *freshCompleter) Complete(Completion) { *c.n++ }

// BenchmarkHostSubmitCompleteFresh is BenchmarkHostSubmitComplete as
// E17's open loop issues commands: every command's Completer is a fresh
// context from a FreeList, never recycled, passed to Submit as itself.
// The command binds nothing, so what it allocates is the list's chunk
// carving alone, at most one object per 16 commands.
func BenchmarkHostSubmitCompleteFresh(b *testing.B) {
	const cmds = 1 << 12
	eng := sim.NewEngine(1)
	h := NewHost(New(eng, DefaultConfig("bench")), nil)
	var ctxs sim.FreeList[freshCompleter]
	done := 0
	one := func() {
		c, _ := ctxs.Get()
		c.n = &done
		if err := h.Submit(0, flushCmd, c); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
	for i := 0; i < cmds; i++ { // reach the chunk cap and the table's size
		one()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < cmds; i++ {
		one()
	}
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n > cmds/16 {
		b.Fatalf("%d fresh-Completer commands allocate %d objects, want at most %d", cmds, n, cmds/16)
	}
	if done != 2*cmds {
		b.Fatalf("%d of %d commands completed", done, 2*cmds)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one()
	}
}
