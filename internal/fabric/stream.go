package fabric

import (
	"errors"
	"fmt"

	"hyperion/internal/sim"
	"hyperion/internal/telemetry"
)

// ErrStreamFull is returned by Stream.Push when the FIFO is at capacity
// (AXIS backpressure: TREADY deasserted).
var ErrStreamFull = errors.New("fabric: stream FIFO full")

// Item is one unit travelling on an AXI-Stream: an opaque payload plus
// its wire size, which determines how many bus beats it occupies. Span
// carries the request-scoped trace context alongside the payload.
type Item struct {
	Payload any
	Bytes   int
	Span    telemetry.RequestID
}

// Stream models an AXI-Stream channel: a fixed-width bus clocked at the
// fabric frequency, with a FIFO of bounded depth and a single downstream
// sink. Items are delivered in order; each item occupies
// ceil(Bytes/WidthBytes) beats of exclusive bus time.
type Stream struct {
	Name       string
	WidthBytes int // bus width per beat, e.g. 64 for 512-bit AXIS
	DepthItems int // FIFO capacity in items

	eng      *sim.Engine
	period   sim.Duration // one beat
	sink     func(Item)
	beatName string // precomputed event name
	beatFn   func() // prebound deliver, reads the queue head at fire time
	queue    sim.Queue[Item]
	busy     bool
	rec      *telemetry.Recorder
	pushAt   sim.Queue[sim.Time] // armed only: enqueue time per queued item
	Pushed   int64
	Dropped  int64 // backpressure drops (FIFO full)
	Bytes    int64
}

// NewStream creates a stream clocked at clockHz.
func NewStream(eng *sim.Engine, name string, clockHz int64, widthBytes, depthItems int) *Stream {
	if widthBytes <= 0 || depthItems <= 0 || clockHz <= 0 {
		panic("fabric: invalid stream parameters")
	}
	s := &Stream{
		Name:       name,
		WidthBytes: widthBytes,
		DepthItems: depthItems,
		eng:        eng,
		period:     sim.Duration(int64(sim.Second) / clockHz),
		beatName:   "stream:" + name,
	}
	s.beatFn = s.deliver
	return s
}

// Connect sets the downstream sink. It must be called before Push.
func (s *Stream) Connect(sink func(Item)) { s.sink = sink }

// SetRecorder arms the telemetry plane: one span per delivered item
// covering enqueue to sink handoff (FIFO wait + bus beats), named
// after the stream. Disarmed (nil, the default) the hooks are pure
// nil checks and delivery stays bit-identical.
func (s *Stream) SetRecorder(rec *telemetry.Recorder) { s.rec = rec }

// Len returns the current FIFO occupancy.
func (s *Stream) Len() int { return s.queue.Len() }

// Push enqueues an item, or returns ErrStreamFull under backpressure.
func (s *Stream) Push(it Item) error {
	if s.sink == nil {
		panic(fmt.Sprintf("fabric: stream %q pushed before Connect", s.Name))
	}
	if it.Bytes <= 0 {
		it.Bytes = 1
	}
	if s.Len() >= s.DepthItems {
		s.Dropped++
		return ErrStreamFull
	}
	s.queue.Push(it)
	if s.rec != nil {
		s.pushAt.Push(s.eng.Now())
	}
	s.Pushed++
	s.Bytes += int64(it.Bytes)
	if !s.busy {
		s.busy = true
		s.deliverNext()
	}
	return nil
}

// deliverNext schedules the bus occupancy of the queue head. The beat
// event carries no closure state: only deliver pops, so the head it
// reads at fire time is the item whose beats were just charged.
func (s *Stream) deliverNext() {
	if s.Len() == 0 {
		s.busy = false
		return
	}
	it := s.queue.Peek()
	beats := (it.Bytes + s.WidthBytes - 1) / s.WidthBytes
	if beats < 1 {
		beats = 1
	}
	s.eng.After(sim.Duration(beats)*s.period, s.beatName, s.beatFn)
}

func (s *Stream) deliver() {
	it := s.queue.Pop()
	// The enqueue-time shadow queue exists only while armed; if the
	// recorder was installed mid-flight it may briefly run short.
	t0 := s.eng.Now()
	if s.rec != nil && s.pushAt.Len() > 0 {
		t0 = s.pushAt.Pop()
	}
	if s.rec != nil {
		s.rec.Span("stream", s.Name, it.Span, t0, s.eng.Now())
	}
	s.sink(it)
	s.deliverNext()
}

// Arbiter fans N input streams into one sink — the "AXIS Arbiter" boxes
// in Figure 2. Each In(i) is an independent Stream with its own FIFO
// clocking its own beats, so per-input backpressure is isolated and the
// inputs race to the sink in event order: there is no round-robin pick
// and no shared-bus serialisation between them. WFQArbiter is the
// shared-bus model (one item on the bus at a time, weighted-fair pick).
// Only hyperbench's frozen fabric.rr_pick_ns probe still builds one.
type Arbiter struct {
	ins []*Stream
}

// NewArbiter creates an arbiter with n input streams feeding sink out.
func NewArbiter(eng *sim.Engine, name string, clockHz int64, widthBytes, depthItems, n int, out func(Item)) *Arbiter {
	a := &Arbiter{}
	for i := 0; i < n; i++ {
		st := NewStream(eng, fmt.Sprintf("%s.in%d", name, i), clockHz, widthBytes, depthItems)
		st.Connect(out)
		a.ins = append(a.ins, st)
	}
	return a
}

// In returns input port i.
func (a *Arbiter) In(i int) *Stream { return a.ins[i] }
