package tenant

import (
	"errors"
	"fmt"
	"testing"

	"hyperion/internal/ebpf"
	"hyperion/internal/ehdl"
	"hyperion/internal/fabric"
	"hyperion/internal/sim"
)

func testImage(name string, mib int64) *fabric.Bitstream {
	return &fabric.Bitstream{
		Name:      name,
		SizeBytes: mib << 20,
		Uses:      fabric.Resources{LUTs: 20000, FFs: 40000, BRAM: 32, DSP: 16},
		Depth:     12,
		II:        1,
		AuthTag:   "tag",
		Process:   func(in any) any { return in },
	}
}

func newTestPlane(t testing.TB, lease sim.Duration) (*sim.Engine, *fabric.Fabric, *Controller) {
	t.Helper()
	eng := sim.NewEngine(1)
	fab := fabric.New(eng, fabric.DefaultConfig(), "tag")
	cfg := DefaultConfig()
	cfg.Lease = lease
	return eng, fab, New(eng, fab, cfg)
}

func TestAdmissionControl(t *testing.T) {
	_, _, c := newTestPlane(t, 0)
	for _, w := range []int{0, maxWeight + 1} {
		if _, err := c.Admit(Spec{Name: "w", Weight: w, Image: testImage("a", 1)}); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("weight %d: got %v", w, err)
		}
	}
	if _, err := c.Admit(Spec{Name: "noimg", Weight: 1}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("nil image: got %v", err)
	}
	huge := testImage("huge", 4)
	huge.Uses = fabric.U280Resources() // whole device: over the per-slot budget
	if _, err := c.Admit(Spec{Name: "huge", Weight: 1, Image: huge}); !errors.Is(err, ErrRejected) {
		t.Fatalf("oversized image: got %v", err)
	}
	for i := 0; i < c.cfg.MaxTenants; i++ {
		if _, err := c.Admit(Spec{Name: fmt.Sprintf("t%02d", i), Weight: 1, Image: testImage("a", 1)}); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	if _, err := c.Admit(Spec{Name: "extra", Weight: 1, Image: testImage("a", 1)}); !errors.Is(err, ErrRejected) {
		t.Fatalf("over cap: got %v", err)
	}
	if c.Rejected != 2 {
		t.Fatalf("Rejected = %d, want 2", c.Rejected)
	}
}

func TestPlacementAndSubmit(t *testing.T) {
	eng, fab, c := newTestPlane(t, 0)
	tn, err := c.Admit(Spec{Name: "solo", Weight: 1, Image: testImage("solo", 4)})
	if err != nil {
		t.Fatal(err)
	}
	if tn.State != StateReconfiguring || tn.Slot != 0 {
		t.Fatalf("not placed immediately: %v slot %d", tn.State, tn.Slot)
	}
	// Submit before activation is refused retryably.
	if err := c.Submit(tn.ID, nil, 64, nil); !errors.Is(err, ErrNotActive) {
		t.Fatalf("submit while reconfiguring: %v", err)
	}
	eng.Run()
	if tn.State != StateActive {
		t.Fatalf("not active after reconfig: %v", tn.State)
	}
	// The 4 MiB image reconfigures in exactly SizeBytes/ICAP seconds.
	if got, want := tn.ActivatedAt.Sub(sim.Time(0)), fab.ReconfigTime(4<<20); got != want {
		t.Fatalf("activation at %v, want %v", got, want)
	}
	var done int
	for i := 0; i < 10; i++ {
		if err := c.Submit(tn.ID, nil, 64, func(err error) {
			if err != nil {
				t.Errorf("request failed: %v", err)
			}
			done++
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if done != 10 || tn.Completed != 10 {
		t.Fatalf("completed %d/%d, want 10", done, tn.Completed)
	}
	if tn.Lat.Count() != 10 || tn.Lat.Min() <= 0 {
		t.Fatalf("latency not recorded: n=%d min=%v", tn.Lat.Count(), tn.Lat.Min())
	}
}

func TestLeaseRotationSharesSlots(t *testing.T) {
	// 8 tenants over 5 slots with a 500 µs lease: everyone gets placed,
	// nobody waits unboundedly, and preemption counters move.
	eng, _, c := newTestPlane(t, 500*sim.Microsecond)
	horizon := sim.Time(100 * sim.Millisecond)
	c.SetHorizon(horizon)
	var ids []int
	for i := 0; i < 8; i++ {
		tn, err := c.Admit(Spec{Name: fmt.Sprintf("t%02d", i), Weight: 1 + i%3, Image: testImage("img", 1)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, tn.ID)
	}
	eng.RunUntil(horizon)
	eng.Run()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		tn, _ := c.lookup(id)
		if tn.Placements == 0 {
			t.Fatalf("tenant %d never placed under lease rotation", id)
		}
		// FIFO queue + bounded lease + bounded reconfig: wait is bounded
		// by tenants × (lease + reconfig). 1 MiB reconfigures in 2.5 ms.
		bound := sim.Duration(8) * (500*sim.Microsecond + 3*sim.Millisecond)
		if tn.MaxWait > bound {
			t.Fatalf("tenant %d waited %v (bound %v)", id, tn.MaxWait, bound)
		}
	}
	if c.Preempts == 0 {
		t.Fatal("lease rotation produced no preemptions")
	}
}

func TestDepartFreesSlotForWaiter(t *testing.T) {
	eng, _, c := newTestPlane(t, 0)
	var ids []int
	for i := 0; i < 6; i++ {
		tn, err := c.Admit(Spec{Name: fmt.Sprintf("t%02d", i), Weight: 1, Image: testImage("img", 1)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, tn.ID)
	}
	eng.Run()
	waiter, _ := c.lookup(ids[5])
	if waiter.State != StateQueued {
		t.Fatalf("6th tenant over 5 slots should queue, is %v", waiter.State)
	}
	if err := c.Depart(ids[2]); err != nil {
		t.Fatal(err)
	}
	if waiter.State != StateReconfiguring || waiter.Slot != 2 {
		t.Fatalf("waiter not promoted into freed slot: %v slot %d", waiter.State, waiter.Slot)
	}
	eng.Run()
	if waiter.State != StateActive {
		t.Fatalf("waiter never activated: %v", waiter.State)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDepartMidReconfigCancels(t *testing.T) {
	eng, fab, c := newTestPlane(t, 0)
	tn, err := c.Admit(Spec{Name: "gone", Weight: 1, Image: testImage("img", 8)})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(fab.ReconfigTime(8<<20) / 2))
	if err := c.Depart(tn.ID); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if tn.State != StateDeparted {
		t.Fatalf("state %v after depart", tn.State)
	}
	s, _ := fab.Slot(0)
	if s.State != fabric.SlotEmpty {
		t.Fatalf("slot not reclaimed: %v", s.State)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReportSortedByName(t *testing.T) {
	eng, _, c := newTestPlane(t, 0)
	names := []string{"zeta", "alpha", "mike"}
	for _, n := range names {
		if _, err := c.Admit(Spec{Name: n, Weight: 1, Image: testImage("img", 1)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	rows := c.Report(10 * sim.Millisecond)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	want := []string{"alpha", "mike", "zeta"}
	for i, r := range rows {
		if r.Name != want[i] {
			t.Fatalf("row %d = %q, want %q", i, r.Name, want[i])
		}
	}
}

func TestSLOViolationAccounting(t *testing.T) {
	eng, _, c := newTestPlane(t, 0)
	// Impossible latency objective (sub-picosecond) and a trivially met
	// goodput floor.
	tn, err := c.Admit(Spec{
		Name: "strict", Weight: 1, Image: testImage("img", 1),
		SLO: SLO{P99: 1, Goodput: 0.001},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for i := 0; i < 20; i++ {
		if err := c.Submit(tn.ID, nil, 64, nil); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	rows := c.Report(eng.Now().Sub(sim.Time(0)))
	if !rows[0].ViolLat {
		t.Fatal("1 ps p99 objective not flagged")
	}
	if rows[0].ViolGood {
		t.Fatal("met goodput floor flagged")
	}
}

// TestFaultedRunFails pins how a pipeline fault resolves: the request
// fails with the terminal ErrFaulted (wrapping the image's error),
// counts as Failed and adds no latency sample, and the next request on
// the same recycled context completes normally.
func TestFaultedRunFails(t *testing.T) {
	eng, _, c := newTestPlane(t, 0)
	errImage := errors.New("test image: fault")
	img := testImage("faulty", 1)
	img.Process = func(in any) any {
		if w := in.(*fabric.Work); w.Ctx[0] == 1 {
			w.Err = errImage
		}
		return in
	}
	tn, err := c.Admit(Spec{Name: "faulty", Weight: 1, Image: img})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	var got []error
	done := func(err error) { got = append(got, err) }
	for _, ctx := range [][]byte{{1}, {0}} {
		if err := c.Submit(tn.ID, ctx, 64, done); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	if len(got) != 2 || !errors.Is(got[0], ErrFaulted) || !errors.Is(got[0], errImage) || Retryable(got[0]) || got[1] != nil {
		t.Fatalf("resolutions = %v, want [terminal ErrFaulted, nil]", got)
	}
	if tn.Failed != 1 || tn.Completed != 1 || tn.Lat.Count() != 1 {
		t.Fatalf("failed %d completed %d samples %d, want 1 1 1", tn.Failed, tn.Completed, tn.Lat.Count())
	}
	if row := c.Report(sim.Millisecond)[0]; row.Failed != 1 || row.Completed != 1 {
		t.Fatalf("report row = %+v", row)
	}
}

// BenchmarkSubmitCompleteEhdl is one tenant request through the WFQ
// into a compiled eHDL image and back: the context is copied into the
// request's own Work, which the program runs on in place and which
// completes the request itself, so steady state allocates nothing
// (asserted in-line).
func BenchmarkSubmitCompleteEhdl(b *testing.B) {
	eng, _, c := newTestPlane(b, 0)
	pipe, err := ehdl.Compile(ebpf.MustAssemble(`
		ldxw r2, [r1+0]
		mov r0, r2
		and r0, 1
		exit`), ehdl.Options{Name: "parity", AuthTag: "tag", CtxBytes: 8, Verifier: ebpf.DefaultVerifierConfig(nil)})
	if err != nil {
		b.Fatal(err)
	}
	tn, err := c.Admit(Spec{Name: "bench", Weight: 1, Image: pipe.Bitstream()})
	if err != nil {
		b.Fatal(err)
	}
	eng.Run()
	ctx := make([]byte, 8)
	var failed error
	done := func(err error) {
		if err != nil {
			failed = err
		}
	}
	one := func() {
		if err := c.Submit(tn.ID, ctx, 64, done); err != nil {
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
	b.StopTimer()
	if failed != nil || tn.Failed != 0 {
		b.Fatalf("requests failed: %v", failed)
	}
}
