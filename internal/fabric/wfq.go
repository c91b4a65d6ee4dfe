package fabric

import (
	"fmt"
	"math"

	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// wfqPort is one weighted input of a WFQArbiter: a FIFO plus the
// deficit-round-robin bookkeeping for its share of the bus.
type wfqPort struct {
	weight  int
	deficit int64 // accumulated bus beats of credit
	visited bool  // quantum already granted on the current scheduler visit
	queue   sim.Queue[Item]
	pushAt  sim.Queue[sim.Time] // armed only: enqueue time per queued item

	Pushed    int64
	Delivered int64
	Dropped   int64 // backpressure drops (FIFO full)
	Flushed   int64 // items removed by Flush (preemption/eviction)
}

// pop removes port p's head item, returning it with its enqueue time
// (zero unless armed).
func (w *WFQArbiter) pop(p *wfqPort) (Item, sim.Time) {
	var t0 sim.Time
	if w.rec != nil {
		t0 = p.pushAt.Pop()
	}
	w.queued--
	return p.queue.Pop(), t0
}

// WFQArbiter merges N weighted input FIFOs onto one bus using deficit
// round robin: on each visit a non-empty port earns `weight` beats of
// credit, and its head departs once the credit covers the item's beat
// cost. The long-run bus share of backlogged ports is therefore
// proportional to their weights, yet any port with a positive weight is
// served within a bounded number of rounds — the weighted-fair
// front end of the tenant plane, replacing the plain round-robin
// Arbiter where tenants are not equals.
//
// Unlike Arbiter (independent per-input Streams racing to one sink),
// WFQArbiter models a single shared bus: exactly one item occupies it
// at a time, for ceil(Bytes/WidthBytes) beats.
//
// A pick costs two passes over the ports however many DRR rounds lie
// between a head item and the credit to pay for it: next skips the
// rounds that serve nobody in closed form.
type WFQArbiter struct {
	Name       string
	WidthBytes int // bus width per beat
	DepthItems int // FIFO capacity per port, in items

	eng     *sim.Engine
	period  sim.Duration // one beat
	sink    func(Item)
	ports   []wfqPort
	queued  int // items waiting in port FIFOs (the bus item excluded)
	rr      int // port the scheduler is currently visiting
	busy    bool
	cur     Item     // item occupying the bus
	curPort int      // its port
	curT0   sim.Time // armed only: its enqueue time

	beatName string
	beatFn   func()
	rec      *telemetry.Recorder
	spans    []string // armed only: port i's span name, <Name>.in<i>

	Pushed    int64
	Delivered int64
}

// NewWFQArbiter creates a weighted-fair arbiter with n input ports (all
// weight 1 until SetWeight) feeding sink out, clocked at clockHz.
func NewWFQArbiter(eng *sim.Engine, name string, clockHz int64, widthBytes, depthItems, n int, out func(Item)) *WFQArbiter {
	if widthBytes <= 0 || depthItems <= 0 || clockHz <= 0 || n <= 0 {
		panic("fabric: invalid wfq parameters")
	}
	w := &WFQArbiter{
		Name:       name,
		WidthBytes: widthBytes,
		DepthItems: depthItems,
		eng:        eng,
		period:     sim.Duration(int64(sim.Second) / clockHz),
		sink:       out,
		beatName:   "wfq:" + name,
		ports:      make([]wfqPort, n),
	}
	w.beatFn = w.deliver
	for i := range w.ports {
		w.ports[i].weight = 1
	}
	return w
}

// SetWeight sets port i's DRR quantum, in bus beats per scheduler
// visit. Weights must be positive: the starvation bound (any backlogged
// port is served within one full round once its credit covers its head)
// holds only for weight >= 1.
func (w *WFQArbiter) SetWeight(i, weight int) {
	if weight < 1 {
		panic("fabric: wfq weight must be positive")
	}
	w.ports[i].weight = weight
}

// Len returns port i's FIFO occupancy (excluding an item on the bus).
func (w *WFQArbiter) Len(i int) int { return w.ports[i].queue.Len() }

// CheckInvariants validates the scheduler's bookkeeping: credit is never
// negative, only the port under the scheduler may be mid-visit, the
// queued-items count matches the FIFOs, an idle bus means no backlog,
// and every pushed item is delivered, flushed, queued or on the bus. It
// returns the first violation.
func (w *WFQArbiter) CheckInvariants() error {
	var queued int
	var flushed int64
	for i := range w.ports {
		p := &w.ports[i]
		if p.deficit < 0 {
			return fmt.Errorf("wfq %q port %d: negative deficit %d", w.Name, i, p.deficit)
		}
		if p.visited && i != w.rr {
			return fmt.Errorf("wfq %q port %d: visited but scheduler is at port %d", w.Name, i, w.rr)
		}
		queued += p.queue.Len()
		flushed += p.Flushed
	}
	if queued != w.queued {
		return fmt.Errorf("wfq %q: queued count %d but ports hold %d", w.Name, w.queued, queued)
	}
	if !w.busy && queued != 0 {
		return fmt.Errorf("wfq %q: idle with %d items queued", w.Name, queued)
	}
	var onBus int64
	if w.cur.Bytes > 0 { // Push stores Bytes >= 1; deliver zeroes cur
		onBus = 1
	}
	if got := w.Delivered + flushed + int64(queued) + onBus; got != w.Pushed {
		return fmt.Errorf("wfq %q: pushed %d != delivered %d + flushed %d + queued %d + on bus %d",
			w.Name, w.Pushed, w.Delivered, flushed, queued, onBus)
	}
	return nil
}

// SetRecorder arms the telemetry plane: one span per delivered item
// covering enqueue to sink handoff (FIFO wait + bus beats), named after
// the port. Disarmed (nil, the default) the hooks are pure nil checks
// and delivery stays bit-identical.
func (w *WFQArbiter) SetRecorder(rec *telemetry.Recorder) {
	w.rec = rec
	// pushAt runs parallel to queue only while armed: items already
	// waiting (or on the bus) when the recorder arrives are stamped with
	// the arming time.
	now := w.eng.Now()
	w.curT0 = now
	if rec != nil && w.spans == nil {
		w.spans = make([]string, len(w.ports))
		for i := range w.spans {
			w.spans[i] = fmt.Sprintf("%s.in%d", w.Name, i)
		}
	}
	for i := range w.ports {
		p := &w.ports[i]
		p.pushAt.Reset()
		if rec != nil {
			for n := p.queue.Len(); n > 0; n-- {
				p.pushAt.Push(now)
			}
		}
	}
}

// Push enqueues an item on port i, or returns ErrStreamFull under
// backpressure.
func (w *WFQArbiter) Push(i int, it Item) error {
	if w.sink == nil {
		panic(fmt.Sprintf("fabric: wfq %q has no sink", w.Name))
	}
	p := &w.ports[i]
	if it.Bytes <= 0 {
		it.Bytes = 1
	}
	if p.queue.Len() >= w.DepthItems {
		p.Dropped++
		return ErrStreamFull
	}
	p.queue.Push(it)
	if w.rec != nil {
		p.pushAt.Push(w.eng.Now())
	}
	w.queued++
	p.Pushed++
	w.Pushed++
	if !w.busy {
		w.busy = true
		w.next()
	}
	return nil
}

// Flush removes every queued item from port i (an evicted or departing
// tenant's backlog) and returns them in FIFO order, resetting the
// port's scheduler credit. An item already occupying the bus is not
// recalled — it was committed to the wire — and still reaches the sink.
func (w *WFQArbiter) Flush(i int) []Item {
	p := &w.ports[i]
	n := p.queue.Len()
	if n == 0 {
		p.deficit = 0
		p.visited = false
		return nil
	}
	out := make([]Item, 0, n)
	for p.queue.Len() > 0 {
		it, _ := w.pop(p)
		p.Flushed++
		out = append(out, it)
	}
	p.deficit = 0
	p.visited = false
	return out
}

func (w *WFQArbiter) beats(it Item) int64 {
	b := int64((it.Bytes + w.WidthBytes - 1) / w.WidthBytes)
	if b < 1 {
		b = 1
	}
	return b
}

// next runs the DRR scheduler: pick the item to put on the bus and
// schedule its beats. A pick is two passes over the ports at most.
// The first pass is plain DRR from rr; if it serves nobody, every
// backlogged port is unvisited and short of its head's cost, so the
// number of rounds until somebody can pay is known in closed form:
// k = min over backlogged ports of ceil((cost-deficit)/weight). Rounds
// 1..k-1 serve nobody by definition of k and are credited in one sweep
// ((k-1)*weight < cost, so the product cannot overflow); round k is the
// plain pass again and must serve. Progress is therefore guaranteed:
// weights are positive and costs finite, so k is. Scheduler state after
// a pick is bit-identical to walking the k rounds one port at a time.
func (w *WFQArbiter) next() {
	if w.queued == 0 {
		w.busy = false
		return
	}
	if w.pass() {
		return
	}
	k := int64(math.MaxInt64)
	for i := range w.ports {
		if p := &w.ports[i]; p.queue.Len() > 0 {
			wt := int64(p.weight)
			if r := (w.beats(p.queue.Peek()) - p.deficit + wt - 1) / wt; r < k {
				k = r
			}
		}
	}
	for i := range w.ports {
		if p := &w.ports[i]; p.queue.Len() > 0 {
			p.deficit += (k - 1) * int64(p.weight)
		}
	}
	if !w.pass() {
		panic(fmt.Sprintf("fabric: wfq %q: no port served after a %d-round skip", w.Name, k))
	}
}

// pass visits each port once from rr, one DRR step per port, and
// reports whether one was served (rr then stays on it, still visited,
// so leftover credit can serve its next item without a fresh quantum).
func (w *WFQArbiter) pass() bool {
	n := len(w.ports)
	for i := 0; i < n; i++ {
		p := &w.ports[w.rr]
		if p.queue.Len() == 0 {
			p.deficit = 0
			p.visited = false
		} else {
			if !p.visited {
				p.deficit += int64(p.weight)
				p.visited = true
			}
			cost := w.beats(p.queue.Peek())
			if p.deficit >= cost {
				p.deficit -= cost
				w.cur, w.curT0 = w.pop(p)
				w.curPort = w.rr
				w.eng.After(sim.Duration(cost)*w.period, w.beatName, w.beatFn)
				return true
			}
			p.visited = false
		}
		if w.rr++; w.rr == n {
			w.rr = 0
		}
	}
	return false
}

// deliver fires when the bus finishes the in-service item's beats.
func (w *WFQArbiter) deliver() {
	it := w.cur
	p := &w.ports[w.curPort]
	w.cur = Item{}
	if w.rec != nil {
		w.rec.Span("wfq", w.spans[w.curPort], it.Span, w.curT0, w.eng.Now())
	}
	p.Delivered++
	w.Delivered++
	w.sink(it)
	w.next()
}
