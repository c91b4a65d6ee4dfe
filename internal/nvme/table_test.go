package nvme

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

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
	last := dev.Config().Blocks - 1
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
	dev.WriteSync(dev.Config().Blocks-1, data)
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

// TestDeadlineTimeoutDropsLateCompletion: a deadline shorter than the
// flash read answers StatusTimeout, clears the slot, and the device's
// completion, arriving later, is dropped.
func TestDeadlineTimeoutDropsLateCompletion(t *testing.T) {
	eng, dev, h := newDev(t)
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
	if dev.Counters.Get("completions").Value != 1 {
		t.Fatal("the device never posted its late completion: nothing was dropped")
	}
	if len(status) != 1 {
		t.Fatalf("late completion reached the callback: %v", status)
	}
}

// TestDeadlineTimeoutReachesEveryVerb: the slot keeps each verb's own
// callback shape, so an armed deadline answers every verb — read,
// write, flush, raw Submit — with exactly one StatusTimeout through
// that callback, recorder armed or not, and the device's late
// completions reach none of them.
func TestDeadlineTimeoutReachesEveryVerb(t *testing.T) {
	for _, traced := range []bool{false, true} {
		eng, dev, h := newDev(t)
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
			h.Write(0, 3, block, note("write")),
			h.FlushSpan(0, 0, note("flush")),
			h.Submit(0, Command{Opcode: OpRead, NSID: 1, LBA: 4, Blocks: 1}, func(c Completion) { note("submit")(c.Status) }),
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
		if h.Timeouts != 4 || dev.Counters.Value("completions") != 4 {
			t.Errorf("traced=%v: %d timeouts and %d device completions, want 4 and 4 (all late, all dropped)",
				traced, h.Timeouts, dev.Counters.Value("completions"))
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
	if err := h.FlushSpan(0, 0, func(uint16) {}); err != nil { // CID 1 completes: flushes are not swallowed
		t.Fatal(err)
	}
	if err := h.Read(0, 0, 1, func([]byte, uint16) { parkedDone++ }); err != nil {
		t.Fatal(err)
	}
	parked := h.nextCID
	eng.Run()
	dev.SetFaultPlan(nil)

	seen := make(map[uint16]int)
	cb := func(c Completion) { seen[c.CID]++ }
	for i := 0; i < 1<<16; i++ {
		if err := h.Submit(0, Command{Opcode: OpFlush, NSID: 1}, cb); err != nil {
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
	cb := func(Completion) { done++ }
	for i := 0; i < 10_000; i++ {
		for k := 0; k < 8; k++ {
			if err := h.Submit(0, Command{Opcode: OpFlush, NSID: 1}, cb); err != nil {
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

// BenchmarkHostSubmitComplete is the host's share of a command: CID
// allocation, the table slot, the doorbell, and the completion finding
// its callback — a flush, so the device side is one event. Steady state
// allocates nothing.
func BenchmarkHostSubmitComplete(b *testing.B) {
	eng := sim.NewEngine(1)
	h := NewHost(New(eng, DefaultConfig("bench")), nil)
	cb := func(Completion) {}
	one := func() {
		if err := h.Submit(0, Command{Opcode: OpFlush, NSID: 1}, cb); err != nil {
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
