package fabric

import (
	"testing"

	"hyperion/internal/sim"
)

func TestEvictActiveSlot(t *testing.T) {
	eng, f := newTestFabric(t)
	b := testBitstream("victim", 4<<20)
	if err := f.LoadBitstream(0, b, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	free := f.FreeResources()
	if err := f.Evict(0); err != nil {
		t.Fatal(err)
	}
	s, _ := f.Slot(0)
	if s.State != SlotEmpty || s.Image != nil {
		t.Fatalf("slot not cleared: %v image=%v", s.State, s.Image)
	}
	got := f.FreeResources()
	want := free.Add(b.Uses)
	if got != want {
		t.Fatalf("resources not returned: %+v, want %+v", got, want)
	}
}

func TestEvictMidReconfig(t *testing.T) {
	// Eviction during partial reconfiguration cancels the activation:
	// the done callback must never fire, resources return, and a new
	// image can load immediately (Unload would refuse with ErrSlotBusy).
	eng, f := newTestFabric(t)
	fired := false
	b := testBitstream("victim", 8<<20)
	if err := f.LoadBitstream(0, b, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	// Halfway through the ~20 ms reconfiguration.
	eng.RunUntil(sim.Time(f.ReconfigTime(b.SizeBytes) / 2))
	if err := f.Unload(0); err != ErrSlotBusy {
		t.Fatalf("unload mid-reconfig: got %v, want ErrSlotBusy", err)
	}
	if err := f.Evict(0); err != nil {
		t.Fatal(err)
	}
	repl := testBitstream("replacement", 1<<20)
	if err := f.LoadBitstream(0, repl, nil); err != nil {
		t.Fatalf("reload after evict: %v", err)
	}
	eng.Run()
	if fired {
		t.Fatal("cancelled reconfiguration still activated")
	}
	s, _ := f.Slot(0)
	if s.State != SlotActive || s.Image != repl {
		t.Fatalf("replacement not active: %v", s.State)
	}
	want, _ := U280Resources().Sub(repl.Uses)
	if f.FreeResources() != want {
		t.Fatalf("resource accounting off after evict+reload")
	}
}

func TestEvictInFlightItemsComplete(t *testing.T) {
	// Items already issued into the pipeline pin their image: evicting
	// the slot under them must not lose or corrupt their completions.
	eng, f := newTestFabric(t)
	b := testBitstream("busy", 1<<20)
	b.Depth = 100
	if err := f.LoadBitstream(0, b, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	var works [10]Work
	var got []*Work
	for i := range works {
		works[i].Ctx = []byte{byte(i)}
		if err := f.Submit(0, &works[i], doneFunc(func(w *Work) { got = append(got, w) })); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Evict(0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(got) != 10 {
		t.Fatalf("completed %d of 10 in-flight items after eviction", len(got))
	}
	for i, w := range got {
		if w != &works[i] || w.Ctx[0] != byte(i) {
			t.Fatalf("completion %d reordered: got item %d", i, w.Ctx[0])
		}
	}
}
