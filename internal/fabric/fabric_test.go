package fabric

import (
	"errors"
	"testing"

	"hyperion/internal/sim"
)

func testBitstream(name string, size int64) *Bitstream {
	return &Bitstream{
		Name:      name,
		SizeBytes: size,
		Uses:      Resources{LUTs: 10000, FFs: 20000, BRAM: 16, DSP: 8},
		Depth:     12,
		II:        1,
		AuthTag:   "tag",
		Process:   func(in any) any { return in },
	}
}

// doneFunc is a func as a Completer.
type doneFunc func(w *Work)

func (f doneFunc) Processed(w *Work) { f(w) }

func newTestFabric(t *testing.T) (*sim.Engine, *Fabric) {
	t.Helper()
	eng := sim.NewEngine(1)
	return eng, New(eng, DefaultConfig(), "tag")
}

func TestReconfigTimeMatchesPaperWindow(t *testing.T) {
	_, f := newTestFabric(t)
	// 4 MB and 40 MB images should land at ~10 ms and ~100 ms.
	lo := f.ReconfigTime(4 << 20)
	hi := f.ReconfigTime(40 << 20)
	if lo < 9*sim.Millisecond || lo > 11*sim.Millisecond {
		t.Fatalf("4MB reconfig = %v, want ≈10ms", lo)
	}
	if hi < 90*sim.Millisecond || hi > 110*sim.Millisecond {
		t.Fatalf("40MB reconfig = %v, want ≈100ms", hi)
	}
}

func TestLoadBitstreamLifecycle(t *testing.T) {
	eng, f := newTestFabric(t)
	b := testBitstream("filt", 4<<20)
	done := false
	if err := f.LoadBitstream(0, b, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	s, _ := f.Slot(0)
	if s.State != SlotReconfiguring {
		t.Fatalf("state = %v, want reconfiguring", s.State)
	}
	if err := f.LoadBitstream(0, b, nil); !errors.Is(err, ErrSlotBusy) {
		t.Fatalf("load during reconfig = %v, want ErrSlotBusy", err)
	}
	eng.Run()
	if !done || s.State != SlotActive {
		t.Fatalf("done=%v state=%v after run", done, s.State)
	}
}

func TestLoadBitstreamAuthorization(t *testing.T) {
	_, f := newTestFabric(t)
	b := testBitstream("evil", 4<<20)
	b.AuthTag = "forged"
	if err := f.LoadBitstream(0, b, nil); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("err = %v, want ErrUnauthorized", err)
	}
}

func TestLoadBitstreamValidation(t *testing.T) {
	_, f := newTestFabric(t)
	cases := []func(*Bitstream){
		func(b *Bitstream) { b.Name = "" },
		func(b *Bitstream) { b.SizeBytes = 0 },
		func(b *Bitstream) { b.Depth = 0 },
		func(b *Bitstream) { b.II = -1 },
		func(b *Bitstream) { b.Process = nil },
	}
	for i, mutate := range cases {
		b := testBitstream("x", 1<<20)
		mutate(b)
		if err := f.LoadBitstream(0, b, nil); !errors.Is(err, ErrBadBitstream) {
			t.Errorf("case %d: err = %v, want ErrBadBitstream", i, err)
		}
	}
}

func TestResourceAccounting(t *testing.T) {
	eng, f := newTestFabric(t)
	big := testBitstream("big", 1<<20)
	big.Uses = Resources{LUTs: 1_000_000}
	if err := f.LoadBitstream(0, big, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	big2 := testBitstream("big2", 1<<20)
	big2.Uses = Resources{LUTs: 1_000_000}
	if err := f.LoadBitstream(1, big2, nil); !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("err = %v, want ErrOverCapacity", err)
	}
	// Replacing the image in slot 0 releases its resources first.
	if err := f.LoadBitstream(0, big2, nil); err != nil {
		t.Fatalf("replace: %v", err)
	}
	eng.Run()
	if err := f.Unload(0); err != nil {
		t.Fatal(err)
	}
	if f.FreeResources().LUTs != U280Resources().LUTs {
		t.Fatalf("resources leaked: free=%d", f.FreeResources().LUTs)
	}
}

func TestSubmitPipelineLatencyAndThroughput(t *testing.T) {
	eng, f := newTestFabric(t)
	b := testBitstream("pipe", 1<<20)
	b.Depth = 10
	b.II = 1
	if err := f.LoadBitstream(0, b, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	start := eng.Now()
	var completions []sim.Time
	const n = 100
	for i := 0; i < n; i++ {
		if err := f.Submit(0, nil, doneFunc(func(*Work) {
			completions = append(completions, eng.Now())
		})); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(completions) != n {
		t.Fatalf("completions = %d, want %d", len(completions), n)
	}
	period := f.CyclePeriod()
	// First item completes after Depth cycles.
	if got := completions[0].Sub(start); got != 10*sim.Duration(period) {
		t.Fatalf("first completion after %v, want %v", got, 10*period)
	}
	// Fully pipelined: one completion per cycle thereafter.
	for i := 1; i < n; i++ {
		if completions[i].Sub(completions[i-1]) != period {
			t.Fatalf("inter-completion gap %v at %d, want %v", completions[i].Sub(completions[i-1]), i, period)
		}
	}
}

func TestSubmitRespectsInitiationInterval(t *testing.T) {
	eng, f := newTestFabric(t)
	b := testBitstream("ii4", 1<<20)
	b.Depth = 8
	b.II = 4
	if err := f.LoadBitstream(0, b, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	var completions []sim.Time
	for i := 0; i < 10; i++ {
		_ = f.Submit(0, nil, doneFunc(func(*Work) { completions = append(completions, eng.Now()) }))
	}
	eng.Run()
	gap := completions[1].Sub(completions[0])
	if gap != 4*f.CyclePeriod() {
		t.Fatalf("II gap = %v, want %v", gap, 4*f.CyclePeriod())
	}
}

func TestSubmitEmptySlot(t *testing.T) {
	_, f := newTestFabric(t)
	if err := f.Submit(0, nil, nil); !errors.Is(err, ErrSlotEmpty) {
		t.Fatalf("err = %v, want ErrSlotEmpty", err)
	}
	if err := f.Submit(99, nil, nil); !errors.Is(err, ErrSlotOutOfRange) {
		t.Fatalf("err = %v, want ErrSlotOutOfRange", err)
	}
}

func TestSpatialIsolation(t *testing.T) {
	// A saturated slot must not delay an idle one: the paper's core
	// predictability argument.
	eng, f := newTestFabric(t)
	busy := testBitstream("busy", 1<<20)
	busy.Depth = 10
	busy.II = 100 // slow: queue builds
	quiet := testBitstream("quiet", 1<<20)
	quiet.Depth = 10
	quiet.II = 1
	if err := f.LoadBitstream(0, busy, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.LoadBitstream(1, quiet, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for i := 0; i < 1000; i++ {
		_ = f.Submit(0, nil, nil)
	}
	start := eng.Now()
	var done sim.Time
	_ = f.Submit(1, &Work{Ctx: []byte("x")}, doneFunc(func(*Work) { done = eng.Now() }))
	eng.Run()
	if got := done.Sub(start); got != f.Cycles(10) {
		t.Fatalf("quiet slot latency %v under load, want %v", got, f.Cycles(10))
	}
}

func TestStreamDeliveryOrderAndTiming(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewStream(eng, "s", 250_000_000, 64, 8)
	var got []int
	var times []sim.Time
	s.Connect(func(it Item) {
		got = append(got, it.Payload.(int))
		times = append(times, eng.Now())
	})
	// 128-byte items: 2 beats each at 4ns/beat = 8ns per item.
	for i := 0; i < 4; i++ {
		if err := s.Push(Item{Payload: i, Bytes: 128}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("order = %v", got)
		}
	}
	if times[0] != sim.Time(8*sim.Nanosecond) {
		t.Fatalf("first delivery at %v, want 8ns", times[0])
	}
	if times[3] != sim.Time(32*sim.Nanosecond) {
		t.Fatalf("last delivery at %v, want 32ns", times[3])
	}
}

func TestStreamBackpressure(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewStream(eng, "s", 250_000_000, 64, 2)
	s.Connect(func(Item) {})
	if err := s.Push(Item{Bytes: 64}); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(Item{Bytes: 64}); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(Item{Bytes: 64}); !errors.Is(err, ErrStreamFull) {
		t.Fatalf("err = %v, want ErrStreamFull", err)
	}
	if s.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", s.Dropped)
	}
	eng.Run()
	if err := s.Push(Item{Bytes: 64}); err != nil {
		t.Fatalf("push after drain: %v", err)
	}
}

func TestArbiterMergesInputs(t *testing.T) {
	eng := sim.NewEngine(1)
	var got []int
	arb := NewArbiter(eng, "arb", 250_000_000, 64, 8, 2, func(it Item) {
		got = append(got, it.Payload.(int))
	})
	_ = arb.In(0).Push(Item{Payload: 1, Bytes: 64})
	_ = arb.In(1).Push(Item{Payload: 2, Bytes: 64})
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
}

func BenchmarkSubmit(b *testing.B) {
	eng := sim.NewEngine(1)
	f := New(eng, DefaultConfig(), "tag")
	bs := testBitstream("bench", 1<<20)
	if err := f.LoadBitstream(0, bs, nil); err != nil {
		b.Fatal(err)
	}
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Submit(0, nil, nil)
		if i%4096 == 0 {
			eng.Run()
		}
	}
	eng.Run()
}
