package sim

import "fmt"

// Event is a pooled context that is its own lane event: firing it runs
// the context's next step, so scheduling one binds no closure.
type Event interface{ Fire() }

// Lane is a FIFO of events whose times never decrease — a flash
// channel's completions, a box's KV answers, a shard's barrier-sorted
// envelopes (DESIGN §4 "Lanes"). Only the lane's head sits in the
// engine's heap; its successors wait in the lane's ring, where keeping
// them in order costs nothing. When the head fires, its successor
// takes over the heap root with one sift-down.
//
// A lane carries one owner's contexts, T, each of which fires itself
// (P is *T). The ring holds a typed pointer rather than an Event
// interface, so an entry is (at, seq, *T) — 24 bytes, the size of a
// heap event's (at, seq, func()) — and scheduling a context allocates
// nothing.
//
// Every lane event takes its seq from the engine's counter when it is
// scheduled, exactly as At does, and a FIFO of non-decreasing times and
// increasing seqs is already in (at, seq) order: the lane's head is its
// minimum, so the engine fires lane and heap events in the order an
// all-heap engine would. A push earlier than the lane's tail cannot
// join the FIFO and goes into the heap as an ordinary event.
//
// Lane events return no EventRef and cannot be cancelled. A lane
// belongs to the engine that first schedules on it. The zero value is
// ready to use and allocates nothing until a second event is queued
// behind its head; the ring keeps its capacity once grown, so a
// standing backlog recycles it.
type Lane[T any, P interface {
	*T
	Event
}] struct {
	ring     []laneEvent[T] // successors of the head; len is 0 or a power of two
	head     *T             // the head's context; its (at, seq) is its heap entry
	tail     Time           // time of the newest event on the lane
	first, n int32          // ring index of the oldest successor; successors queued
	id       int32          // 1 + index in the engine's lanes; 0 before first use
	queued   bool           // the head is in the engine's heap
}

type laneEvent[T any] struct {
	at  Time
	seq uint64
	ev  *T
}

// anyLane is how the engine reaches a Lane of any owner type.
type anyLane interface {
	// advance retires the lane's head, whose entry is at the heap's
	// root under slot, and returns it.
	advance(e *Engine, slot int32) Event
}

// At schedules ev to fire at absolute time t on lane l of engine e.
// Scheduling in the past panics, as with Engine.At.
func (l *Lane[T, P]) At(e *Engine, t Time, ev *T) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling lane event at %v before now %v", t, e.now))
	}
	switch {
	case !l.queued:
		if l.id == 0 {
			e.lanes = append(e.lanes, l)
			l.id = int32(len(e.lanes))
		} else if int(l.id) > len(e.lanes) || e.lanes[l.id-1] != anyLane(l) {
			panic("sim: lane scheduled on a second engine")
		}
		l.head, l.tail, l.queued = ev, t, true
		e.q.push(heapEntry{at: t, seq: e.seq, slot: -l.id})
	case t >= l.tail:
		l.push(laneEvent[T]{at: t, seq: e.seq, ev: ev})
		l.tail = t
	default:
		e.At(t, "", P(ev).Fire)
		return
	}
	e.seq++
	e.live++
}

// advance implements anyLane: a successor takes over the root — one
// sift-down instead of a pop and a push.
func (l *Lane[T, P]) advance(e *Engine, slot int32) Event {
	ev := l.head
	if l.n > 0 {
		next := l.pop()
		l.head = next.ev
		e.q.replaceTop(heapEntry{at: next.at, seq: next.seq, slot: slot})
	} else {
		e.q.pop()
		l.head, l.queued = nil, false
	}
	return P(ev)
}

func (l *Lane[T, P]) push(ev laneEvent[T]) {
	if int(l.n) == len(l.ring) {
		ring := make([]laneEvent[T], max(2*len(l.ring), 8))
		k := copy(ring, l.ring[l.first:])
		copy(ring[k:], l.ring[:l.first])
		l.ring, l.first = ring, 0
	}
	l.ring[(int(l.first)+int(l.n))&(len(l.ring)-1)] = ev
	l.n++
}

// pop removes the oldest successor; the lane must have one.
func (l *Lane[T, P]) pop() laneEvent[T] {
	ev := l.ring[l.first]
	l.ring[l.first].ev = nil
	l.first = (l.first + 1) & int32(len(l.ring)-1)
	l.n--
	return ev
}
