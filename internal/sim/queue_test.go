package sim

import (
	"cmp"
	"slices"
	"testing"
)

// firedEvent logs its id when it fires.
type firedEvent struct {
	log *[]int
	id  int
}

func (ev *firedEvent) Fire() { *ev.log = append(*ev.log, ev.id) }

// TestHeapPopsInKeyOrder drives one engine through random tie-heavy
// tapes: every event lands on one of four grid points ahead of now, and
// the tape mixes heap events, lane pushes (whose successors take over
// the root through siftDown), Cancel tombstones and Steps. Keys are
// unique and never scheduled behind the last one fired, so the whole
// fire order must be the (at, seq) sort of every event not cancelled
// before it fired.
func TestHeapPopsInKeyOrder(t *testing.T) {
	type key struct {
		at  Time
		seq uint64
		id  int
	}
	const grid = 100 * Microsecond
	for seed := uint64(1); seed <= 20; seed++ {
		e, rng := NewEngine(seed), NewRand(seed)
		lanes := make([]Lane[firedEvent, *firedEvent], 3)
		var (
			log       []int
			keys      []key
			refs      []EventRef
			refID     []int
			cancelled = map[int]bool{}
		)
		fired := func(id int) bool { return slices.Contains(log, id) }
		next := func() (Time, *firedEvent) {
			at := e.Now().Add(Duration(rng.Intn(4)) * grid)
			ev := &firedEvent{log: &log, id: len(keys)}
			keys = append(keys, key{at: at, seq: uint64(len(keys)), id: ev.id})
			return at, ev
		}
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(10); {
			case r < 3:
				at, ev := next()
				refs, refID = append(refs, e.At(at, "", ev.Fire)), append(refID, ev.id)
			case r < 6:
				at, ev := next()
				lanes[rng.Intn(len(lanes))].At(e, at, ev)
			case r < 7:
				if len(refs) > 0 {
					k := rng.Intn(len(refs))
					if !fired(refID[k]) {
						cancelled[refID[k]] = true
					}
					e.Cancel(refs[k])
				}
			default:
				e.Step()
			}
		}
		e.Run()
		var want []int
		slices.SortFunc(keys, func(a, b key) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
		})
		for _, k := range keys {
			if !cancelled[k.id] {
				want = append(want, k.id)
			}
		}
		if !slices.Equal(log, want) {
			t.Fatalf("seed %d: fired %d events, oracle %d; first difference at %d",
				seed, len(log), len(want), firstDiff(log, want))
		}
		if len(cancelled) == 0 {
			t.Fatalf("seed %d: tape cancelled nothing", seed)
		}
	}
}

func firstDiff(a, b []int) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestQueueMatchesSliceModel drives Queue and a plain slice over one
// random push/pop/peek/reset tape and compares every answer.
func TestQueueMatchesSliceModel(t *testing.T) {
	var q Queue[int]
	var model []int
	r := NewRand(5)
	for step := 0; step < 50_000; step++ {
		switch op := r.Intn(100); {
		case op < 50:
			q.Push(step)
			model = append(model, step)
		case op < 90:
			if len(model) == 0 {
				continue
			}
			if got := q.Pop(); got != model[0] {
				t.Fatalf("step %d: Pop = %d, model %d", step, got, model[0])
			}
			model = model[1:]
		case op < 99:
			if len(model) == 0 {
				continue
			}
			if got := q.Peek(); got != model[0] {
				t.Fatalf("step %d: Peek = %d, model %d", step, got, model[0])
			}
		default:
			q.Reset()
			model = model[:0]
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", step, q.Len(), len(model))
		}
	}
}

// TestQueueReusesBackingArray is the property rpc's queued mode and the
// armed fabric streams lacked: a queue that drains rewinds, so a
// thousand fill/drain rounds grow the backing array no further than the
// first one did, and no popped or reset slot still holds what was
// pushed into it.
func TestQueueReusesBackingArray(t *testing.T) {
	var q Queue[*int]
	const depth = 16
	round := func() {
		for i := 0; i < depth; i++ {
			q.Push(new(int))
		}
		for i := 0; i < depth-1; i++ {
			q.Pop()
		}
	}
	round()
	q.Pop()
	first := cap(q.buf)
	for i := 0; i < 1000; i++ {
		round()
		if i%2 == 0 {
			q.Pop()
		} else {
			q.Reset()
		}
		if q.Len() != 0 {
			t.Fatalf("round %d: %d items left", i, q.Len())
		}
	}
	if cap(q.buf) != first {
		t.Fatalf("backing array grew from %d to %d slots over 1000 fill/drain rounds", first, cap(q.buf))
	}
	for i, p := range q.buf[:cap(q.buf)] {
		if p != nil {
			t.Fatalf("slot %d still references a popped item", i)
		}
	}
}

// TestQueueBoundedUnderStandingBacklog: a queue that never drains — a
// timeout FIFO under steady traffic, always holding the last 100
// pushes — slides its items forward instead of growing, keeps FIFO
// order, and pins no popped item.
func TestQueueBoundedUnderStandingBacklog(t *testing.T) {
	var q Queue[*int]
	next := 0
	for i := 0; i < 100_000; i++ {
		v := i
		q.Push(&v)
		if q.Len() > 100 {
			if got := *q.Pop(); got != next {
				t.Fatalf("push %d: Pop = %d, want %d", i, got, next)
			}
			next++
		}
	}
	if cap(q.buf) > 4*101 {
		t.Fatalf("backing array of %d slots under a standing backlog of 100", cap(q.buf))
	}
	for i, p := range q.buf[:q.head] {
		if p != nil {
			t.Fatalf("popped slot %d still references its item", i)
		}
	}
	for i, p := range q.buf[len(q.buf):cap(q.buf)] {
		if p != nil {
			t.Fatalf("spare slot %d references an item", len(q.buf)+i)
		}
	}
}

// BenchmarkQueue is a FIFO in front of a prebound event function: once
// the backing array has reached the backlog's depth, pushes and pops
// allocate nothing.
func BenchmarkQueue(b *testing.B) {
	var q Queue[[2]uint64]
	const depth = 64
	cycle := func() {
		for i := 0; i < depth; i++ {
			q.Push([2]uint64{uint64(i)})
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		b.Fatalf("warm fill/drain cycle allocated %v times, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
