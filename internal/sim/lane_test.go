package sim

import (
	"runtime"
	"testing"
	"unsafe"
)

// laneScript drives one engine through a seeded tape of heap events,
// cancelled heap events and lane events, each firing event scheduling
// more. With lanes false every "lane" event is an ordinary At, which is
// the reference: the firing sequence must not depend on it. Times are
// drawn from a small range so equal-time ties are common, and a
// fraction of lane pushes land before the lane's tail (the heap
// fallback).
type laneScript struct {
	e      *Engine
	rng    *Rand
	lanes  []Lane[tapeEvent, *tapeEvent]
	tails  []Time // the newest time pushed onto each lane, by the script
	useLn  bool
	refs   []EventRef
	log    []int
	next   int
	budget int

	behind, deepest int // fallback pushes made; deepest lane ring seen
}

// tapeEvent is one event of the tape, a context that fires itself as
// the model layers' pooled contexts do.
type tapeEvent struct {
	s  *laneScript
	id int
}

func (ev *tapeEvent) Fire() {
	s := ev.s
	s.log = append(s.log, ev.id)
	for _, l := range s.lanes {
		s.deepest = max(s.deepest, int(l.n))
	}
	for k := s.rng.Intn(4); k > 0 && s.next < s.budget; k-- {
		s.schedule()
	}
}

func (s *laneScript) event() *tapeEvent {
	s.next++
	return &tapeEvent{s: s, id: s.next - 1}
}

func (s *laneScript) schedule() {
	now := s.e.Now()
	switch r := s.rng.Intn(10); {
	case r < 3: // heap event
		s.refs = append(s.refs, s.e.At(now.Add(Duration(s.rng.Intn(40))), "", s.event().Fire))
	case r < 4: // cancel a random earlier heap event, fired or not
		if len(s.refs) > 0 {
			s.e.Cancel(s.refs[s.rng.Intn(len(s.refs))])
		}
	default: // lane event, usually at or after the lane's tail
		i := s.rng.Intn(len(s.lanes))
		t := max(now, s.tails[i]).Add(Duration(s.rng.Intn(6)))
		if s.rng.Intn(8) == 0 {
			t = now.Add(Duration(s.rng.Intn(20)))
		}
		if t < s.tails[i] {
			s.behind++
		} else {
			s.tails[i] = t
		}
		if s.useLn {
			s.lanes[i].At(s.e, t, s.event())
		} else {
			s.e.At(t, "", s.event().Fire)
		}
	}
}

func runLaneScript(seed uint64, useLanes bool) *laneScript {
	s := &laneScript{
		e: NewEngine(seed), rng: NewRand(seed),
		lanes: make([]Lane[tapeEvent, *tapeEvent], 4), tails: make([]Time, 4),
		useLn: useLanes, budget: 20000,
	}
	for i := 0; i < 64; i++ {
		s.schedule()
	}
	// Short windows, as sim.Cluster runs them: NextAt and RunUntil see
	// lane heads at the heap's root too.
	for {
		next, ok := s.e.NextAt()
		if !ok {
			return s
		}
		s.e.RunUntil(next.Add(3))
	}
}

// TestLaneOrderMatchesHeap: lanes are a cost model, never an ordering
// one. For every seed the engine with lanes fires the same events in
// the same order, at the same times, as an engine with every event in
// the heap.
func TestLaneOrderMatchesHeap(t *testing.T) {
	var behind, deepest int
	for seed := uint64(1); seed <= 20; seed++ {
		ref := runLaneScript(seed, false)
		got := runLaneScript(seed, true)
		if len(got.log) != len(ref.log) {
			t.Fatalf("seed %d: %d events fired with lanes, %d without", seed, len(got.log), len(ref.log))
		}
		for i := range ref.log {
			if got.log[i] != ref.log[i] {
				t.Fatalf("seed %d: event %d is #%d with lanes, #%d without", seed, i, got.log[i], ref.log[i])
			}
		}
		if got.e.Now() != ref.e.Now() || got.e.Steps() != ref.e.Steps() || got.e.Pending() != 0 {
			t.Fatalf("seed %d: now %v steps %d pending %d with lanes; now %v steps %d without",
				seed, got.e.Now(), got.e.Steps(), got.e.Pending(), ref.e.Now(), ref.e.Steps())
		}
		behind += got.behind
		deepest = max(deepest, got.deepest)
	}
	// The tape must reach the paths it is meant to cover.
	if behind == 0 || deepest < 8 {
		t.Fatalf("tape too tame: %d pushes behind a tail, deepest lane ring %d", behind, deepest)
	}
}

// nopEvent is a context whose firing does nothing. It is not
// zero-sized, so a FreeList of them carves real chunks.
type nopEvent struct{ _ byte }

func (*nopEvent) Fire() {}

// TestLaneAllocatesNothingUntilUsed: a lane embedded in a model that
// never queues two events behind each other costs no allocation, and
// its ring is never built.
func TestLaneAllocatesNothingUntilUsed(t *testing.T) {
	e := NewEngine(1)
	ev := new(nopEvent)
	var l Lane[nopEvent, *nopEvent]
	one := func() {
		l.At(e, e.Now().Add(Nanosecond), ev)
		e.Step()
	}
	one() // the engine's lane table
	if a := testing.AllocsPerRun(100, one); a != 0 {
		t.Errorf("lone lane event allocates %v objects, want 0", a)
	}
	if l.ring != nil {
		t.Errorf("lane built a ring of %d without a second event queued", len(l.ring))
	}
}

// TestLaneEntryIsAHeapEventsSize: a lane's ring entry is (at, seq, *T),
// no larger than the (at, seq, func()) a heap event carries.
func TestLaneEntryIsAHeapEventsSize(t *testing.T) {
	if n := unsafe.Sizeof(laneEvent[nopEvent]{}); n != 24 {
		t.Errorf("lane ring entry is %d bytes, want 24", n)
	}
}

// backlog fills lanes with a depth-deep backlog of monotone events
// spread over them, each taken from next, and returns the lanes' tails.
func backlog(e *Engine, ls []Lane[nopEvent, *nopEvent], depth int, next func() *nopEvent) []Time {
	tails := make([]Time, len(ls))
	for i := 0; i < depth; i++ {
		k := i % len(ls)
		tails[k] = tails[k].Add(Nanosecond + Duration(k))
		ls[k].At(e, tails[k], next())
	}
	return tails
}

// BenchmarkEngineLaneBacklog is E17's shape: a 45k-deep backlog of
// monotone completions spread over eight lanes, each step firing one
// head and queueing a successor at its lane's tail. Steady state
// allocates nothing: the rings keep their capacity.
func BenchmarkEngineLaneBacklog(b *testing.B) {
	const lanes, depth = 8, 45000
	e := NewEngine(1)
	ev := new(nopEvent)
	ls := make([]Lane[nopEvent, *nopEvent], lanes)
	tails := backlog(e, ls, depth, func() *nopEvent { return ev })
	k := 0
	one := func() {
		e.Step()
		k = (k + 1) % lanes
		tails[k] = max(tails[k], e.Now()).Add(Duration(lanes) * Nanosecond)
		ls[k].At(e, tails[k], ev)
	}
	if a := testing.AllocsPerRun(1000, one); a != 0 {
		b.Fatalf("lane backlog allocates %v objects/op in steady state, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one()
	}
}

// BenchmarkLaneOpenLoop is E17's open loop: its backlog never drains,
// so every context a step schedules is a fresh one from its FreeList,
// and the one that fired is never recycled before the next is taken.
// Scheduling a context binds nothing, so what a step allocates is the
// list's chunk carving alone — at most one object per 16 events
// (chunks grow to 32) — and the lanes' rings keep their capacity.
func BenchmarkLaneOpenLoop(b *testing.B) {
	const lanes, depth, events = 8, 4096, 1 << 14
	e := NewEngine(1)
	var ctxs FreeList[nopEvent]
	fresh := func() *nopEvent {
		ev, _ := ctxs.Get()
		return ev
	}
	ls := make([]Lane[nopEvent, *nopEvent], lanes)
	tails := backlog(e, ls, depth, fresh)
	k := 0
	one := func() {
		e.Step()
		k = (k + 1) % lanes
		tails[k] = max(tails[k], e.Now()).Add(Duration(lanes) * Nanosecond)
		ls[k].At(e, tails[k], fresh())
	}
	for i := 0; i < events; i++ { // reach the chunk cap
		one()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < events; i++ {
		one()
	}
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n > events/16 {
		b.Fatalf("open loop allocates %d objects over %d fresh-context events, want at most %d", n, events, events/16)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one()
	}
}
