package sim

import "testing"

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
