// Package sim provides the discrete-event simulation kernel that underpins
// every hardware model in Hyperion: the virtual clock, the event queue, and
// deterministic pseudo-randomness.
//
// All device models (fabric, PCIe, NVMe, network) are state machines that
// schedule work on a shared *Engine. Virtual time is measured in
// picoseconds so that a 250 MHz fabric clock (4 ns) and a 100 Gbps link
// (80 ps per byte) can both be expressed exactly as integers.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in picoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is a time later than any event the engine will ever reach.
const Forever Time = math.MaxInt64

func (t Time) String() string     { return fmtDur(int64(t)) }
func (d Duration) String() string { return fmtDur(int64(d)) }

func fmtDur(ps int64) string {
	switch {
	case ps >= int64(Second):
		return fmt.Sprintf("%.3fs", float64(ps)/float64(Second))
	case ps >= int64(Millisecond):
		return fmt.Sprintf("%.3fms", float64(ps)/float64(Millisecond))
	case ps >= int64(Microsecond):
		return fmt.Sprintf("%.3fus", float64(ps)/float64(Microsecond))
	case ps >= int64(Nanosecond):
		return fmt.Sprintf("%.3fns", float64(ps)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", ps)
	}
}

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between two times.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds converts d to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// EventRef is a generation-stamped handle to a scheduled event. The
// zero EventRef refers to nothing; Cancel on it (or on a ref whose
// event has already fired, been cancelled, or had its slot recycled) is
// a safe no-op. Refs are values — copy and store them freely.
type EventRef struct {
	slot int32 // pool index + 1; 0 means "no event"
	gen  uint32
}

// NoEvent is the zero EventRef, handy for resetting stored timers.
var NoEvent EventRef

// Valid reports whether the ref was produced by At/After. It does not
// know whether the event is still pending — Cancel checks that.
func (r EventRef) Valid() bool { return r.slot != 0 }

// Engine is the discrete-event simulator. It is not safe for concurrent
// use: device models run single-threaded inside the event loop, which is
// what makes simulations deterministic. (Separate Engines are fully
// independent and may run on separate goroutines — the parallel
// experiment harness relies on exactly that.)
type Engine struct {
	now    Time
	q      heap4
	pool   eventPool
	live   int     // scheduled events neither fired nor cancelled
	lanes  []*Lane // every lane scheduled on, by Lane.id-1
	seq    uint64
	nsteps uint64
	rng    *Rand
}

// NewEngine returns an engine at time zero with the given random seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRand(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.nsteps }

// At schedules fn to run at absolute time t. Scheduling in the past
// (before Now) panics: it would break causality.
func (e *Engine) At(t Time, name string, fn func()) EventRef {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event %q at %v before now %v", name, t, e.now))
	}
	id := e.pool.alloc()
	s := &e.pool.slots[id]
	s.do = fn
	s.live = true
	e.q.push(heapEntry{at: t, seq: e.seq, slot: id})
	e.seq++
	e.live++
	return EventRef{slot: id + 1, gen: s.gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, name string, fn func()) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for event %q", d, name))
	}
	return e.At(e.now.Add(d), name, fn)
}

// Cancel removes a pending event. Cancelling the zero ref, an
// already-fired, already-cancelled, or recycled event is a no-op: the
// generation stamp stops stale refs from touching a reused slot.
// Cancellation is lazy — the heap entry is tombstoned here and drained
// when it surfaces, never removed from the middle of the heap.
func (e *Engine) Cancel(ref EventRef) {
	if ref.slot == 0 {
		return
	}
	id := ref.slot - 1
	if int(id) >= len(e.pool.slots) {
		return
	}
	s := &e.pool.slots[id]
	if s.gen != ref.gen || !s.live {
		return
	}
	e.live--
	// Fast path: if the event's entry is still the heap's tail (the
	// common schedule-then-cancel timer pattern), truncating it keeps
	// the heap property and leaves no tombstone behind.
	if n := e.q.len(); n > 0 && e.q.entries[n-1].slot == id {
		e.q.entries = e.q.entries[:n-1]
		e.pool.release(id)
		return
	}
	s.live = false
	s.do = nil // free the closure now; the slot itself drains on pop
}

// Step executes the single next event. It returns false when the queue is
// empty.
func (e *Engine) Step() bool {
	for e.q.len() > 0 {
		ent := e.q.entries[0]
		var do func()
		if ent.slot < 0 {
			do = e.advanceLane(ent.slot)
		} else {
			e.q.pop()
			s := &e.pool.slots[ent.slot]
			if !s.live {
				e.pool.release(ent.slot) // drained tombstone
				continue
			}
			do = s.do
			s.live = false
			e.pool.release(ent.slot)
		}
		e.live--
		e.now = ent.at
		e.nsteps++
		do()
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with At <= deadline, then advances the clock to
// the deadline (if the queue emptied earlier or the next event is later).
func (e *Engine) RunUntil(deadline Time) {
	for {
		next, ok := e.peek()
		if !ok || next > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// peek reports the time of the next live event, draining any tombstones
// that have reached the top of the heap.
func (e *Engine) peek() (Time, bool) {
	for e.q.len() > 0 {
		ent := e.q.entries[0]
		if ent.slot >= 0 && !e.pool.slots[ent.slot].live {
			e.q.pop()
			e.pool.release(ent.slot)
			continue
		}
		return ent.at, true
	}
	return 0, false
}

// Pending reports the number of live queued events. It is a maintained
// counter, O(1) — not a scan of the queue.
func (e *Engine) Pending() int { return e.live }

// NextAt reports the time of the next live event without executing it,
// or false with an empty queue. The conservative cluster scheduler uses
// it to compute the lower bound on cross-shard timestamps (LBTS); it is
// also handy for tests and tools that want to observe the frontier.
func (e *Engine) NextAt() (Time, bool) { return e.peek() }
