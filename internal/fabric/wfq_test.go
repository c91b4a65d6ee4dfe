package fabric

import (
	"testing"

	"hyperion/internal/fault"
	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// drain pushes n items of size bytes on port p.
func wfqFill(t *testing.T, w *WFQArbiter, port, n, bytes int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := w.Push(port, Item{Payload: port, Bytes: bytes}); err != nil {
			t.Fatalf("push port %d item %d: %v", port, i, err)
		}
	}
}

func TestWFQWeightedShare(t *testing.T) {
	// Two backlogged ports with weights 3:1 must split the bus 3:1 over
	// a long run of equal-size items.
	eng := sim.NewEngine(1)
	var got []int
	w := NewWFQArbiter(eng, "t", 250_000_000, 64, 1024, 2, func(it Item) {
		got = append(got, it.Payload.(int))
	})
	w.SetWeight(0, 3)
	w.SetWeight(1, 1)
	wfqFill(t, w, 0, 400, 64)
	wfqFill(t, w, 1, 400, 64)
	// Stop while both are still backlogged: run a fixed window.
	eng.RunUntil(sim.Time(400 * 4 * 1000)) // 400 beats' worth of time
	var n0, n1 int
	for _, p := range got {
		if p == 0 {
			n0++
		} else {
			n1++
		}
	}
	if n0+n1 == 0 {
		t.Fatal("nothing delivered")
	}
	ratio := float64(n0) / float64(n1)
	if ratio < 2.8 || ratio > 3.2 {
		t.Fatalf("weighted share off: %d vs %d (ratio %.2f, want ~3)", n0, n1, ratio)
	}
}

func TestWFQWorkConservingAndOrder(t *testing.T) {
	// An idle competitor must not slow a lone port, and per-port FIFO
	// order is preserved.
	eng := sim.NewEngine(1)
	var got []int
	w := NewWFQArbiter(eng, "t", 250_000_000, 64, 256, 4, func(it Item) {
		got = append(got, it.Payload.(int))
	})
	for i := 0; i < 100; i++ {
		if err := w.Push(2, Item{Payload: i, Bytes: 64}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(got) != 100 {
		t.Fatalf("delivered %d of 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: got %d", i, v)
		}
	}
	// Work conservation: 100 equal items × 1 beat at 4 ns/beat.
	want := sim.Duration(100) * sim.Duration(int64(sim.Second)/250_000_000)
	if eng.Now().Sub(sim.Time(0)) != want {
		t.Fatalf("lone port slowed: finished at %v, want %v", eng.Now(), want)
	}
}

func TestWFQStarvationFree(t *testing.T) {
	// A weight-1 port against a weight-16 flood still gets served: DRR
	// guarantees each backlogged port at least one item per accumulated
	// quantum, so the weak port's first item completes within a bounded
	// number of strong-port items.
	eng := sim.NewEngine(1)
	var weakAt sim.Time
	var strongBefore int
	w := NewWFQArbiter(eng, "t", 250_000_000, 64, 2048, 2, func(it Item) {
		if it.Payload.(int) == 1 {
			if weakAt == 0 {
				weakAt = eng.Now()
			}
		} else if weakAt == 0 {
			strongBefore++
		}
	})
	w.SetWeight(0, 16)
	w.SetWeight(1, 1)
	wfqFill(t, w, 0, 1000, 512) // 8 beats each
	wfqFill(t, w, 1, 1, 512)
	eng.Run()
	if weakAt == 0 {
		t.Fatal("weight-1 port starved")
	}
	// Weak port needs 8 beats = 8 rounds of credit; each round the
	// strong port may move 16 beats = 2 items. Allow slack.
	if strongBefore > 32 {
		t.Fatalf("weak port waited behind %d strong items (bound 32)", strongBefore)
	}
}

func TestWFQBackpressureAndFlush(t *testing.T) {
	eng := sim.NewEngine(1)
	var delivered int
	w := NewWFQArbiter(eng, "t", 250_000_000, 64, 4, 2, func(it Item) { delivered++ })
	wfqFill(t, w, 0, 4, 64) // one goes in service, three queue... depth counts queued only
	// Port 0 now has 3 queued (head popped into service); one more fits.
	if err := w.Push(0, Item{Payload: 0, Bytes: 64}); err != nil {
		t.Fatalf("push within depth: %v", err)
	}
	for w.Len(0) < 4 {
		if err := w.Push(0, Item{Payload: 0, Bytes: 64}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Push(0, Item{Payload: 0, Bytes: 64}); err != ErrStreamFull {
		t.Fatalf("overfull push: got %v, want ErrStreamFull", err)
	}
	var flushed []Item
	w.SetOnFlush(func(it Item) { flushed = append(flushed, it) })
	items := w.Flush(0)
	if len(items) != 4 || len(flushed) != 4 {
		t.Fatalf("flush returned %d items, observer saw %d (want 4)", len(items), len(flushed))
	}
	eng.Run()
	// Only the in-service item reaches the sink.
	if delivered != 1 {
		t.Fatalf("delivered %d after flush, want 1 (the in-service item)", delivered)
	}
	_, _, dropped, fl := w.PortStats(0)
	if dropped != 1 || fl != 4 {
		t.Fatalf("port stats dropped=%d flushed=%d, want 1/4", dropped, fl)
	}
}

func TestWFQFaultDropResolves(t *testing.T) {
	// An armed Drop rate squashes items on the bus but every squashed
	// item is observed via OnDrop — nothing vanishes silently.
	eng := sim.NewEngine(1)
	var delivered, dropped int
	w := NewWFQArbiter(eng, "t", 250_000_000, 64, 1024, 1, func(it Item) { delivered++ })
	w.SetOnDrop(func(it Item) { dropped++ })
	plan := fault.NewPlan(7, "wfq").Set(fault.Drop, 0.2)
	w.SetFaultPlan(plan)
	wfqFill(t, w, 0, 500, 64)
	eng.Run()
	if delivered+dropped != 500 {
		t.Fatalf("delivered %d + dropped %d != 500", delivered, dropped)
	}
	if dropped == 0 {
		t.Fatal("20% drop rate injected nothing over 500 items")
	}
	if int64(dropped) != w.FaultDrops {
		t.Fatalf("observer saw %d, counter says %d", dropped, w.FaultDrops)
	}
}

func TestWFQDeterministicAndTelemetryNeutral(t *testing.T) {
	// Same seed, same pushes → identical delivery order and timing; an
	// armed recorder must not change either.
	run := func(rec *telemetry.Recorder) (order []int, at []sim.Time) {
		eng := sim.NewEngine(1)
		rng := sim.NewRand(42)
		w := NewWFQArbiter(eng, "t", 250_000_000, 64, 512, 3, func(it Item) {
			order = append(order, it.Payload.(int))
			at = append(at, eng.Now())
		})
		w.SetRecorder(rec)
		w.SetWeight(0, 1)
		w.SetWeight(1, 2)
		w.SetWeight(2, 4)
		for i := 0; i < 300; i++ {
			p := int(rng.Intn(3))
			sz := 64 + int(rng.Intn(8))*64
			port, bytes := p, sz
			eng.At(sim.Time(i*100), "push", func() {
				_ = w.Push(port, Item{Payload: port, Bytes: bytes})
			})
		}
		eng.Run()
		return
	}
	o1, t1 := run(nil)
	o2, t2 := run(nil)
	rec := telemetry.NewRecorder("wfq-test")
	o3, t3 := run(rec)
	if len(o1) == 0 {
		t.Fatal("no deliveries")
	}
	for i := range o1 {
		if o1[i] != o2[i] || t1[i] != t2[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
		if o1[i] != o3[i] || t1[i] != t3[i] {
			t.Fatalf("armed recorder perturbed delivery at %d", i)
		}
	}
	if rec.Events() == 0 {
		t.Fatal("armed recorder captured no spans")
	}
}

func TestWFQArmedMidRun(t *testing.T) {
	// Arming with items already queued stamps them with the arming time:
	// every delivered item still gets a span, none reaching back further.
	eng := sim.NewEngine(1)
	w := NewWFQArbiter(eng, "t", 250_000_000, 64, 16, 2, func(Item) {})
	wfqFill(t, w, 0, 3, 640)
	wfqFill(t, w, 1, 3, 640)
	eng.RunFor(12 * sim.Nanosecond) // the first item (10 beats, 40 ns) is on the bus
	rec := telemetry.NewRecorder("wfq-late")
	w.SetRecorder(rec)
	wfqFill(t, w, 1, 2, 640)
	eng.Run()
	h0, h1 := rec.Hist("wfq", "t.in0"), rec.Hist("wfq", "t.in1")
	if h0.Count() != 3 || h1.Count() != 5 {
		t.Fatalf("spans after arming: %d and %d, want 3 and 5", h0.Count(), h1.Count())
	}
	if limit := eng.Now().Sub(sim.Time(12 * sim.Nanosecond)); h0.Max() > limit || h1.Max() > limit {
		t.Fatalf("span of %v/%v starts before the recorder was armed (limit %v)", h0.Max(), h1.Max(), limit)
	}
}

// --- round-skip oracle -------------------------------------------------

// refItem is one queued item of the reference model: its identity and
// its cost in bus beats.
type refItem struct {
	seq  int
	cost int64
}

type refPort struct {
	weight  int
	deficit int64
	visited bool
	queue   []refItem
}

// wfqEvent is one item leaving the bus: who, when, and whether the
// fault plan squashed it.
type wfqEvent struct {
	port, seq int
	at        sim.Time
	dropped   bool
}

// refWFQ is the scheduler WFQArbiter had before the closed-form round
// skip, kept as a test oracle. next is that DRR loop verbatim over bare
// state (queued costs, deficit, visited, rr): it walks every round one
// port at a time, so a pick costs O(ports × cost/weight). The rest is
// the thinnest bus around it that gives picks the same call sites.
type refWFQ struct {
	eng    *sim.Engine
	period sim.Duration
	depth  int
	ports  []refPort
	rr     int
	busy   bool
	plan   *fault.Plan
	out    []wfqEvent
}

func (r *refWFQ) push(i, seq int, cost int64) bool {
	p := &r.ports[i]
	if len(p.queue) >= r.depth {
		return false
	}
	p.queue = append(p.queue, refItem{seq, cost})
	if !r.busy {
		r.busy = true
		r.next()
	}
	return true
}

func (r *refWFQ) flush(i int) []int {
	p := &r.ports[i]
	var seqs []int
	for _, it := range p.queue {
		seqs = append(seqs, it.seq)
	}
	p.queue = nil
	p.deficit = 0
	p.visited = false
	return seqs
}

func (r *refWFQ) next() {
	n := len(r.ports)
	backlog := false
	for i := range r.ports {
		if len(r.ports[i].queue) > 0 {
			backlog = true
			break
		}
	}
	if !backlog {
		r.busy = false
		return
	}
	for {
		p := &r.ports[r.rr]
		if len(p.queue) == 0 {
			p.deficit = 0
			p.visited = false
			r.rr = (r.rr + 1) % n
			continue
		}
		if !p.visited {
			p.deficit += int64(p.weight)
			p.visited = true
		}
		cost := p.queue[0].cost
		if p.deficit < cost {
			p.visited = false
			r.rr = (r.rr + 1) % n
			continue
		}
		p.deficit -= cost
		it, port := p.queue[0], r.rr
		p.queue = p.queue[1:]
		r.eng.After(sim.Duration(cost)*r.period, "ref", func() {
			r.out = append(r.out, wfqEvent{port, it.seq, r.eng.Now(), r.plan.Roll(fault.Drop)})
			r.next()
		})
		return
	}
}

// wfqDiff drives a WFQArbiter and the reference model through the same
// operations on two engines in lockstep and compares scheduler state
// after every one.
type wfqDiff struct {
	t      testing.TB
	eng    *sim.Engine
	arb    *WFQArbiter
	rec    *telemetry.Recorder
	ref    *refWFQ
	out    []wfqEvent
	pushAt []sim.Time // by seq
}

type wfqTag struct{ port, seq int }

const wfqDiffClockHz = 250_000_000

func newWFQDiff(t testing.TB, ports, width, depth int, dropRate float64, armed bool) *wfqDiff {
	d := &wfqDiff{t: t, eng: sim.NewEngine(1)}
	leave := func(dropped bool) func(Item) {
		return func(it Item) {
			tag := it.Payload.(wfqTag)
			d.out = append(d.out, wfqEvent{tag.port, tag.seq, d.eng.Now(), dropped})
		}
	}
	d.arb = NewWFQArbiter(d.eng, "diff", wfqDiffClockHz, width, depth, ports, leave(false))
	d.arb.SetOnDrop(leave(true))
	d.ref = &refWFQ{
		eng: sim.NewEngine(1), period: d.arb.period, depth: depth,
		ports: make([]refPort, ports),
	}
	for i := range d.ref.ports {
		d.ref.ports[i].weight = 1
	}
	if dropRate > 0 {
		d.arb.SetFaultPlan(fault.NewPlan(9, "wfq").Set(fault.Drop, dropRate))
		d.ref.plan = fault.NewPlan(9, "wfq").Set(fault.Drop, dropRate)
	}
	if armed {
		d.rec = telemetry.NewRecorder("wfq-diff")
		d.arb.SetRecorder(d.rec)
	}
	return d
}

func (d *wfqDiff) push(port, bytes int) {
	seq := len(d.pushAt)
	d.pushAt = append(d.pushAt, d.eng.Now())
	it := Item{Payload: wfqTag{port, seq}, Bytes: bytes}
	err := d.arb.Push(port, it)
	if ok := d.ref.push(port, seq, d.arb.beats(it)); ok != (err == nil) {
		d.t.Fatalf("push port %d: arbiter says %v, reference accepted=%v", port, err, ok)
	}
	d.check("push")
}

func (d *wfqDiff) flush(port int) {
	got, want := d.arb.Flush(port), d.ref.flush(port)
	if len(got) != len(want) {
		d.t.Fatalf("flush port %d: %d items, reference %d", port, len(got), len(want))
	}
	for i, it := range got {
		if it.Payload.(wfqTag).seq != want[i] {
			d.t.Fatalf("flush port %d item %d: seq %d, reference %d", port, i, it.Payload.(wfqTag).seq, want[i])
		}
	}
	d.check("flush")
}

func (d *wfqDiff) setWeight(port, weight int) {
	d.arb.SetWeight(port, weight)
	d.ref.ports[port].weight = weight
	d.check("setweight")
}

func (d *wfqDiff) advance(beats int64) {
	until := d.eng.Now().Add(sim.Duration(beats) * d.arb.period)
	d.eng.RunUntil(until)
	d.ref.eng.RunUntil(until)
	d.check("advance")
}

// check compares scheduler state with the reference and the arbiter
// with its own invariants.
func (d *wfqDiff) check(op string) {
	d.t.Helper()
	if d.arb.rr != d.ref.rr || d.arb.busy != d.ref.busy {
		d.t.Fatalf("after %s: rr=%d busy=%v, reference rr=%d busy=%v", op, d.arb.rr, d.arb.busy, d.ref.rr, d.ref.busy)
	}
	for i, p := range d.arb.ports {
		if q := &d.ref.ports[i]; p.deficit != q.deficit || p.visited != q.visited || p.queue.Len() != len(q.queue) {
			d.t.Fatalf("after %s: port %d deficit=%d visited=%v len=%d, reference deficit=%d visited=%v len=%d",
				op, i, p.deficit, p.visited, p.queue.Len(), q.deficit, q.visited, len(q.queue))
		}
	}
	if err := d.arb.CheckInvariants(); err != nil {
		d.t.Fatalf("after %s: %v", op, err)
	}
}

// finish drains both sides and compares what left the bus, and when.
// Armed, the per-port span histograms must also match the enqueue times
// the harness saw.
func (d *wfqDiff) finish() {
	d.t.Helper()
	d.eng.Run()
	d.ref.eng.Run()
	d.check("drain")
	if len(d.out) != len(d.ref.out) {
		d.t.Fatalf("%d items left the bus, reference %d", len(d.out), len(d.ref.out))
	}
	for i, ev := range d.out {
		if ev != d.ref.out[i] {
			d.t.Fatalf("departure %d: %+v, reference %+v", i, ev, d.ref.out[i])
		}
	}
	if d.rec == nil {
		return
	}
	type stat struct {
		n             uint64
		sum, min, max sim.Duration
	}
	stats := make([]stat, len(d.arb.ports))
	for _, ev := range d.out {
		if ev.dropped {
			continue
		}
		s, w := &stats[ev.port], ev.at.Sub(d.pushAt[ev.seq])
		if s.n == 0 || w < s.min {
			s.min = w
		}
		if w > s.max {
			s.max = w
		}
		s.n++
		s.sum += w
	}
	for i, s := range stats {
		h := d.rec.Hist("wfq", d.arb.ports[i].name)
		if h.Count() != s.n || h.Min() != s.min || h.Max() != s.max || (s.n > 0 && h.Mean() != s.sum/sim.Duration(s.n)) {
			d.t.Fatalf("port %d spans: n=%d min=%v max=%v mean=%v, harness saw n=%d min=%v max=%v sum=%v",
				i, h.Count(), h.Min(), h.Max(), h.Mean(), s.n, s.min, s.max, s.sum)
		}
	}
}

// runWFQTape interprets tape as a 4-byte header (ports 1-16; bus width;
// fault plan and recorder flags; FIFO depth) and 3-byte operations:
// push (1 B-1 MiB), flush, set weight (1-8), advance time.
func runWFQTape(t testing.TB, tape []byte) {
	if len(tape) < 4 {
		return
	}
	ports := 1 + int(tape[0])%16
	width := []int{8, 64, 512}[int(tape[1])%3]
	dropRate := 0.0
	if tape[2]&1 != 0 {
		dropRate = 0.1
	}
	d := newWFQDiff(t, ports, width, 2+int(tape[3])%15, dropRate, tape[2]&2 != 0)
	for ops := tape[4:]; len(ops) >= 3; ops = ops[3:] {
		op, a, b := ops[0], int(ops[1]), int(ops[2])
		switch op % 8 {
		case 0, 1, 2, 3:
			e := uint(b % 21)
			d.push(a%ports, min(1<<e+int(op>>3)<<e/32, 1<<20))
		case 4:
			d.flush(a % ports)
		case 5:
			d.setWeight(a%ports, 1+b%8)
		default:
			d.advance(int64(a+1) << uint(b%12))
		}
	}
	d.finish()
}

func TestWFQRoundSkipMatchesReference(t *testing.T) {
	// Seeded tapes: every port count, each with and without a fault
	// plan and with and without the recorder.
	t.Run("tapes", func(t *testing.T) {
		ops := 240
		if testing.Short() {
			ops = 60
		}
		rng := sim.NewRand(13)
		for i := 0; i < 64; i++ {
			tape := make([]byte, 4+3*ops)
			for j := range tape {
				tape[j] = byte(rng.Intn(256))
			}
			tape[0], tape[2] = byte(i%16), byte(i/16)
			runWFQTape(t, tape)
		}
	})

	const beat = 64 // bus width: one beat per 64 B
	t.Run("leftover credit on the visited rr port", func(t *testing.T) {
		d := newWFQDiff(t, 3, beat, 16, 0, false)
		d.setWeight(0, 8)
		d.push(0, beat) // earns 8, pays 1, stays visited on the bus
		d.push(0, 100*beat)
		d.push(1, 50*beat)
		d.push(2, 30*beat)
		if p := d.arb.ports[0]; d.arb.rr != 0 || !p.visited || p.deficit != 7 {
			t.Fatalf("setup: rr=%d visited=%v deficit=%d, want 0/true/7", d.arb.rr, p.visited, p.deficit)
		}
		d.advance(1) // 7 < 100: no fresh quantum on this visit, then a 12-round skip
		d.finish()
	})
	t.Run("port refilled while its last item is on the bus", func(t *testing.T) {
		d := newWFQDiff(t, 2, beat, 16, 0, true)
		d.setWeight(0, 4)
		d.push(0, beat)
		d.push(1, 10*beat)
		if d.arb.Len(0) != 0 || !d.arb.busy {
			t.Fatalf("setup: port 0 holds %d, busy=%v; want its only item on the bus", d.arb.Len(0), d.arb.busy)
		}
		d.push(0, 2*beat) // spends the 3 beats left over, no new quantum
		d.advance(1)
		d.push(0, 9*beat)
		d.finish()
	})
	t.Run("flush of the rr port mid-round", func(t *testing.T) {
		d := newWFQDiff(t, 3, beat, 16, 0, false)
		d.setWeight(0, 8)
		d.push(0, beat)
		d.push(0, 3*beat)
		d.push(0, 20*beat)
		d.push(1, 9*beat)
		d.push(2, 9*beat)
		d.flush(0) // rr stays on port 0, now empty and without credit
		d.advance(1)
		d.push(0, 5*beat)
		d.flush(1)
		d.advance(3)
		d.flush(d.arb.rr)
		d.finish()
	})
	t.Run("all ports but one empty", func(t *testing.T) {
		d := newWFQDiff(t, 16, 8, 16, 0.1, true)
		d.push(11, 1<<20)
		d.push(11, 1)
		d.push(11, 1<<19)
		d.finish()
	})
}

// FuzzWFQRoundSkip drives the same comparison from a byte tape; the
// seeds are the awkward states above, in testdata/fuzz.
func FuzzWFQRoundSkip(f *testing.F) {
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 4+3*128 {
			tape = tape[:4+3*128] // the oracle is O(ports × cost/weight) per pick
		}
		runWFQTape(t, tape)
	})
}

func TestWFQHugeItemIsConstantWork(t *testing.T) {
	// A 2^40-beat item at weight 1 among 16 ports is ~2^44 steps of the
	// port-at-a-time loop: it would never return. The round skip picks
	// it in two passes, and (k-1)*weight stays below the item's cost.
	const huge = 1 << 40
	eng := sim.NewEngine(1)
	var at []sim.Time
	w := NewWFQArbiter(eng, "t", 250_000_000, 1, 4, 16, func(Item) { at = append(at, eng.Now()) })
	w.SetWeight(9, 7)
	for _, port := range []int{5, 9} {
		if err := w.Push(port, Item{Bytes: huge}); err != nil {
			t.Fatal(err)
		}
	}
	// Port 5 went straight onto the idle bus after a 2^40-round skip.
	period := sim.Duration(int64(sim.Second) / 250_000_000)
	if next, ok := eng.NextAt(); !ok || next != sim.Time(huge*period) || w.ports[5].deficit != 0 {
		t.Fatalf("first pick: bus free at %v (pending=%v), deficit %d; want %v and 0", next, ok, w.ports[5].deficit, sim.Time(huge*period))
	}
	eng.Run()
	if len(at) != 2 || at[0] != sim.Time(huge*period) || at[1] != sim.Time(2*huge*period) {
		t.Fatalf("delivered at %v, want [%v %v]", at, sim.Time(huge*period), sim.Time(2*huge*period))
	}
	// Port 9 needed ceil(2^40/7) rounds at weight 7; what it overpaid stays.
	const rounds = (huge + 6) / 7
	if got := w.ports[9].deficit; got != 7*rounds-huge {
		t.Fatalf("port 9 deficit %d after paying, want %d", got, int64(7*rounds-huge))
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// benchWFQPicks times one scheduler pick per iteration: the arbiter is
// refilled to depth (untimed) whenever it drains, as hyperbench's
// fabric.wfq_pick_ns and fabric.wfq2_pick_ns probes do.
func benchWFQPicks(b *testing.B, ports int, weight func(i int) int, size func(r *sim.Rand) int) {
	const depth = 64
	eng := sim.NewEngine(1)
	arb := NewWFQArbiter(eng, "bench", DefaultConfig().ClockHz, 64, depth, ports, func(Item) {})
	for i := 0; i < ports; i++ {
		arb.SetWeight(i, weight(i))
	}
	r := sim.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if eng.Step() {
			continue
		}
		b.StopTimer()
		for p := 0; p < ports; p++ {
			for arb.Len(p) < depth {
				if err := arb.Push(p, Item{Bytes: size(r)}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
		eng.Step()
	}
}

// BenchmarkWFQPick is E18's shape: 16 backlogged ports, weights 1-4,
// 64 B to 64 KiB items, so a pick spans many DRR rounds.
func BenchmarkWFQPick(b *testing.B) {
	sizes := []int{64, 128, 4096, 64 << 10}
	benchWFQPicks(b, 16, func(i int) int { return 1 + i%4 }, func(r *sim.Rand) int { return sizes[r.Intn(len(sizes))] })
}

// BenchmarkWFQPickTwoEqual is the bypass case: two equal ports, one-beat
// items, one DRR round per pick.
func BenchmarkWFQPickTwoEqual(b *testing.B) {
	benchWFQPicks(b, 2, func(int) int { return 1 }, func(*sim.Rand) int { return 64 })
}
