package fabric

import (
	"fmt"
	"reflect"
	"testing"

	"hyperion/internal/fault"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// load saturates every arbiter input with n equal-size items tagged
// (port, seq) and returns the observed arrival order at the sink.
func runContended(seed uint64, ports, n int, plan func(i int) *fault.Plan) []string {
	eng := sim.NewEngine(seed)
	var got []string
	arb := NewArbiter(eng, "arb", 250_000_000, 64, n, ports, func(it Item) {
		got = append(got, it.Payload.(string))
	})
	for p := 0; p < ports; p++ {
		if plan != nil {
			arb.In(p).SetFaultPlan(plan(p))
		}
		for s := 0; s < n; s++ {
			if err := arb.In(p).Push(Item{Payload: fmt.Sprintf("p%d.%d", p, s), Bytes: 64}); err != nil {
				panic(err)
			}
		}
	}
	eng.Run()
	return got
}

// TestArbiterContentionRoundRobin pins the arbitration order when
// every input is saturated at t=0 with equal-size items: each beat
// completes one item per port, and within a beat the ports drain in
// index order — a strict round-robin interleave. This is the fairness
// property Figure 2's "AXIS Arbiter" box promises: no port starves and
// no port gets two slots in one cycle while others wait.
func TestArbiterContentionRoundRobin(t *testing.T) {
	const ports, n = 3, 4
	got := runContended(1, ports, n, nil)
	if len(got) != ports*n {
		t.Fatalf("delivered %d items, want %d", len(got), ports*n)
	}
	var want []string
	for s := 0; s < n; s++ {
		for p := 0; p < ports; p++ {
			want = append(want, fmt.Sprintf("p%d.%d", p, s))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("arbitration order under contention:\n got %v\nwant %v", got, want)
	}
}

// TestArbiterContentionDeterministic reruns the contended workload and
// requires identical interleaving — same-timestamp events must resolve
// by a stable rule, not scheduler accident.
func TestArbiterContentionDeterministic(t *testing.T) {
	a := runContended(1, 4, 8, nil)
	b := runContended(1, 4, 8, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("contended arbitration order not reproducible:\n 1st %v\n 2nd %v", a, b)
	}
}

// TestArbiterPerPortFIFO: whatever the cross-port interleaving, each
// port's own items must arrive in push order even when other ports
// carry different item sizes (different beat counts break the neat
// round-robin pattern but never intra-port ordering).
func TestArbiterPerPortFIFO(t *testing.T) {
	eng := sim.NewEngine(1)
	var got []string
	arb := NewArbiter(eng, "arb", 250_000_000, 64, 16, 2, func(it Item) {
		got = append(got, it.Payload.(string))
	})
	sizes := []int{64, 192} // 1-beat vs 3-beat items
	for p := 0; p < 2; p++ {
		for s := 0; s < 6; s++ {
			if err := arb.In(p).Push(Item{Payload: fmt.Sprintf("p%d.%d", p, s), Bytes: sizes[p]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Run()
	last := map[byte]int{}
	for _, tag := range got {
		var port byte
		var seq int
		if _, err := fmt.Sscanf(tag, "p%c.%d", &port, &seq); err != nil {
			t.Fatal(err)
		}
		if prev, ok := last[port]; ok && seq != prev+1 {
			t.Fatalf("port %c reordered: %d after %d in %v", port, seq, prev, got)
		}
		last[port] = seq
	}
	if len(got) != 12 {
		t.Fatalf("delivered %d, want 12", len(got))
	}
}

// TestStreamFaultDropSquashesDelivery: an armed Drop plan consumes the
// item's bus beats (timing unchanged) but squashes the sink call and
// counts the loss.
func TestStreamFaultDropSquashesDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewStream(eng, "s", 250_000_000, 64, 8)
	delivered := 0
	s.Connect(func(Item) { delivered++ })
	s.SetFaultPlan(fault.NewPlan(1, "fabric").Set(fault.Drop, 1))
	for i := 0; i < 5; i++ {
		if err := s.Push(Item{Bytes: 128}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if delivered != 0 {
		t.Fatalf("delivered = %d, want 0 at drop rate 1", delivered)
	}
	if s.FaultDrops != 5 {
		t.Fatalf("FaultDrops = %d, want 5", s.FaultDrops)
	}
	// Bus time was still consumed: 5 items x 2 beats x 4ns.
	if eng.Now() != sim.Time(40*sim.Nanosecond) {
		t.Fatalf("clock = %v, want 40ns (drops must still occupy beats)", eng.Now())
	}
}

// TestStreamZeroRatePlanIsNoOp: installing a zero-rate plan must leave
// delivery, timing, and the event count bit-identical to an unhooked
// stream — the strict no-op half of the fault-plane contract.
func TestStreamZeroRatePlanIsNoOp(t *testing.T) {
	run := func(armed bool) (order []int, clock sim.Time, steps uint64) {
		eng := sim.NewEngine(1)
		s := NewStream(eng, "s", 250_000_000, 64, 8)
		s.Connect(func(it Item) { order = append(order, it.Payload.(int)) })
		if armed {
			s.SetFaultPlan(fault.NewPlan(1, "fabric")) // all rates zero
		}
		for i := 0; i < 6; i++ {
			if err := s.Push(Item{Payload: i, Bytes: 64}); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		return order, eng.Now(), eng.Steps()
	}
	bo, bc, bs := run(false)
	ao, ac, as := run(true)
	if !reflect.DeepEqual(bo, ao) || bc != ac || bs != as {
		t.Fatalf("zero-rate plan changed behaviour: order %v vs %v, clock %v vs %v, steps %d vs %d",
			bo, ao, bc, ac, bs, as)
	}
}

// TestArmedStreamSteadyStateAllocFree: an armed stream shadows its FIFO
// with a queue of enqueue times. Both rewind when they drain, so once
// they have seen one burst the stream itself allocates nothing for the
// next (the recorder's span log grows by doubling, far less than once
// per burst).
func TestArmedStreamSteadyStateAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewStream(eng, "s", 250_000_000, 64, 8)
	delivered := 0
	s.Connect(func(Item) { delivered++ })
	s.SetRecorder(telemetry.NewRecorder("test"))
	burst := func() {
		for i := 0; i < 8; i++ {
			if err := s.Push(Item{Bytes: 64}); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
	}
	burst()
	if n := testing.AllocsPerRun(200, burst); n != 0 {
		t.Fatalf("steady-state armed burst allocated %v times, want 0", n)
	}
	if delivered != 8*202 {
		t.Fatalf("delivered %d/%d", delivered, 8*202)
	}
}
