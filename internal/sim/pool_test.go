package sim

import "testing"

type poolObj struct {
	id    int
	bound bool
}

// TestFreeListFreshOnceAndLIFO drives a random get/put tape: an object
// is reported fresh exactly the first time it is handed out, never
// while another holder has it, and a Get after Puts returns the most
// recently put object.
func TestFreeListFreshOnceAndLIFO(t *testing.T) {
	var l FreeList[poolObj]
	r := NewRand(3)
	seen := make(map[*poolObj]bool)
	var held, free []*poolObj
	for step := 0; step < 20_000; step++ {
		if len(held) > 0 && r.Intn(2) == 0 {
			i := r.Intn(len(held))
			o := held[i]
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
			l.Put(o)
			free = append(free, o)
			continue
		}
		o, fresh := l.Get()
		if fresh == seen[o] {
			t.Fatalf("step %d: fresh=%v for an object seen=%v", step, fresh, seen[o])
		}
		if fresh {
			if len(free) > 0 {
				t.Fatalf("step %d: carved a fresh object with %d free", step, len(free))
			}
			if *o != (poolObj{}) {
				t.Fatalf("step %d: fresh object is not zero: %+v", step, *o)
			}
			o.id, o.bound = len(seen), true
			seen[o] = true
		} else {
			if want := free[len(free)-1]; o != want {
				t.Fatalf("step %d: reuse is not LIFO: got object %d, want %d", step, o.id, want.id)
			}
			free = free[:len(free)-1]
			if !o.bound {
				t.Fatalf("step %d: the list touched a recycled object", step)
			}
		}
		for _, h := range held {
			if h == o {
				t.Fatalf("step %d: object %d handed out twice", step, o.id)
			}
		}
		held = append(held, o)
	}
}

// TestFreeListChunks pins the growth policy: chunks of 1, 2, 4, 8, 16,
// 32, 32, ... objects, so a list that only ever serves one object
// allocates exactly one (E16 builds hundreds of devices that serve a
// handful of commands each).
func TestFreeListChunks(t *testing.T) {
	var l FreeList[poolObj]
	var sizes []int
	for n := 0; n < 1+2+4+8+16+32+32; n++ {
		if len(l.rest) == 0 {
			l.Get()
			sizes = append(sizes, l.chunk)
		} else {
			l.Get()
		}
	}
	want := []int{1, 2, 4, 8, 16, 32, 32}
	if len(sizes) != len(want) {
		t.Fatalf("chunk sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("chunk sizes %v, want %v", sizes, want)
		}
	}
	var sink *poolObj
	one := testing.AllocsPerRun(100, func() {
		var single FreeList[poolObj]
		sink, _ = single.Get()
	})
	if one != 1 || sink == nil {
		t.Fatalf("a list serving one object allocated %v times, want 1", one)
	}
}

// BenchmarkFreeList is the steady state every pooled context lives in:
// a warm list hands out and takes back objects without allocating.
func BenchmarkFreeList(b *testing.B) {
	var l FreeList[poolObj]
	const depth = 64
	var held [depth]*poolObj
	cycle := func() {
		for i := range held {
			held[i], _ = l.Get()
		}
		for _, o := range held {
			l.Put(o)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		b.Fatalf("warm Get/Put cycle allocated %v times, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
